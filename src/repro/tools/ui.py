"""Widget/screen model for the simulated diagnostic tools.

The paper's data-collection rig never gets inside the diagnostic tool — it
only sees the screen through a camera and touches it through a stylus.  The
UI model is therefore the *entire* interface between the tool simulator and
the CPS layer: a :class:`Screen` is a set of positioned :class:`Widget`
instances carrying text (or an icon for textless buttons), and the tool
reacts to taps at (x, y) coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional, Tuple


class WidgetKind(Enum):
    LABEL = "label"  # static text (titles, names)
    VALUE = "value"  # live-updating numeric text
    BUTTON = "button"  # tappable, with text
    ICON_BUTTON = "icon_button"  # tappable, no text — matched by similarity


@dataclass
class Widget:
    """One rectangular UI element."""

    kind: WidgetKind
    text: str
    x: int
    y: int
    width: int = 160
    height: int = 32
    icon: str = ""  # icon template name for ICON_BUTTON widgets
    on_tap: Optional[Callable[[], None]] = None

    @property
    def center(self) -> Tuple[int, int]:
        return (self.x + self.width // 2, self.y + self.height // 2)

    def contains(self, x: int, y: int) -> bool:
        return self.x <= x < self.x + self.width and self.y <= y < self.y + self.height

    @property
    def tappable(self) -> bool:
        return self.kind in (WidgetKind.BUTTON, WidgetKind.ICON_BUTTON)


@dataclass
class Screen:
    """A full screen of widgets, identified by a name for logging."""

    name: str
    title: str
    widgets: List[Widget] = field(default_factory=list)
    width: int = 800
    height: int = 600

    def add(self, widget: Widget) -> Widget:
        self.widgets.append(widget)
        return widget

    def widget_at(self, x: int, y: int) -> Optional[Widget]:
        """Topmost tappable widget at the given coordinates."""
        for widget in reversed(self.widgets):
            if widget.tappable and widget.contains(x, y):
                return widget
        return None

    def find(self, text: str) -> Optional[Widget]:
        """First widget whose text equals ``text``."""
        for widget in self.widgets:
            if widget.text == text:
                return widget
        return None

    def buttons(self) -> List[Widget]:
        return [w for w in self.widgets if w.tappable]

    def labels(self) -> List[Widget]:
        return [w for w in self.widgets if not w.tappable]


class ScreenBuilder:
    """Lays widgets out in rows, the way the real tools' list UIs look."""

    ROW_HEIGHT = 44
    MARGIN_X = 40
    MARGIN_Y = 80

    def __init__(self, name: str, title: str, width: int = 800, height: int = 600) -> None:
        self.screen = Screen(name, title, width=width, height=height)
        self.screen.add(
            Widget(WidgetKind.LABEL, title, self.MARGIN_X, 24, width=width - 80)
        )
        self._row = 0

    def add_row(
        self,
        kind: WidgetKind,
        text: str,
        on_tap: Optional[Callable[[], None]] = None,
        column: int = 0,
        icon: str = "",
    ) -> Widget:
        widget = Widget(
            kind,
            text,
            x=self.MARGIN_X + column * 360,
            y=self.MARGIN_Y + self._row * self.ROW_HEIGHT,
            width=320,
            on_tap=on_tap,
            icon=icon,
        )
        if column == 0:
            self._row += 1
        return self.screen.add(widget)

    def add_pair(self, label: str, value: str) -> Tuple[Widget, Widget]:
        """A name/value row as shown on live-data screens."""
        name_widget = self.add_row(WidgetKind.LABEL, label)
        value_widget = Widget(
            WidgetKind.VALUE,
            value,
            x=self.MARGIN_X + 360,
            y=name_widget.y,
            width=200,
        )
        return name_widget, self.screen.add(value_widget)
