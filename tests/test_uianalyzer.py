"""Tests for the UI analyzer (keyword filtering, icons, selectable rows)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cps import Camera, OcrEngine, UIAnalyzer, fuzzy_match, text_similarity
from repro.simtime import SimClock
from repro.tools.ui import ScreenBuilder, WidgetKind


def analyze(screen, analyzer=None):
    frame = Camera(SimClock()).capture(screen)
    ocr_frame = OcrEngine(error_rate=0.0).read_frame(frame)
    return (analyzer or UIAnalyzer()).analyze(ocr_frame)


def menu_screen():
    builder = ScreenBuilder("ecu_menu", "Engine - Functions")
    builder.add_row(WidgetKind.BUTTON, "Read Data Stream")
    builder.add_row(WidgetKind.BUTTON, "Active Test")
    builder.add_row(WidgetKind.BUTTON, "Read Trouble Codes")
    builder.add_row(WidgetKind.BUTTON, "Clear Trouble Codes")
    builder.add_row(WidgetKind.BUTTON, "ECU Coding")
    builder.add_row(WidgetKind.BUTTON, "Back")
    builder.add_row(WidgetKind.ICON_BUTTON, "", icon="settings-gear")
    return builder.screen


class TestTextMatching:
    def test_similarity_symmetric_range(self):
        assert text_similarity("abc", "abc") == 1.0
        assert 0 < text_similarity("Read Data Stream", "Read Data Strea") < 1.0

    def test_fuzzy_match_survives_char_drop(self):
        assert fuzzy_match("Read Data Strea", "Read Data Stream")
        assert not fuzzy_match("Clear Trouble Codes", "Read Data Stream")

    @settings(max_examples=500, deadline=None)
    @given(
        text=st.text(alphabet="aAbcde Tt", max_size=14),
        keyword=st.text(alphabet="aAbcde Tt", max_size=14),
        threshold=st.sampled_from([0.0, 0.5, 0.82, 0.88, 0.9, 1.0]),
    )
    def test_fuzzy_match_is_the_similarity_threshold(self, text, keyword, threshold):
        """The quick-ratio bounds only skip work: the verdict is the
        full similarity's."""
        assert fuzzy_match(text, keyword, threshold) == (
            text_similarity(text, keyword) >= threshold
        )


class TestClassification:
    def test_function_buttons_found(self):
        analysis = analyze(menu_screen())
        assert set(analysis.function_buttons) == {"Read Data Stream", "Active Test"}

    def test_ignore_list_filters_decoys(self):
        analysis = analyze(menu_screen())
        texts = [r.text for r in analysis.plain_buttons]
        assert "Clear Trouble Codes" not in texts
        assert "ECU Coding" not in texts

    def test_nav_buttons(self):
        analysis = analyze(menu_screen())
        assert "Back" in analysis.nav_buttons

    def test_unknown_icons_not_clickable(self):
        analysis = analyze(menu_screen())
        assert analysis.icon_buttons == []

    def test_known_icon_template_matched(self):
        analyzer = UIAnalyzer(icon_templates={"settings-gear": "open-settings"})
        analysis = analyze(menu_screen(), analyzer)
        assert len(analysis.icon_buttons) == 1
        __, action, score = analysis.icon_buttons[0]
        assert action == "open-settings" and score >= 0.8

    def test_selectable_rows(self):
        builder = ScreenBuilder("sel", "Engine - Read Data Stream (1/2)")
        builder.add_row(WidgetKind.BUTTON, "[ ] Engine Speed")
        builder.add_row(WidgetKind.BUTTON, "[x] Coolant Temperature")
        builder.add_row(WidgetKind.BUTTON, "Start")
        analysis = analyze(builder.screen)
        assert len(analysis.selectable_rows) == 2
        assert len(UIAnalyzer.unchecked_rows(analysis)) == 1
        assert UIAnalyzer.row_label(analysis.selectable_rows[0]) == "Engine Speed"

    def test_page_indicator_parsed(self):
        builder = ScreenBuilder("sel", "Engine - Read Data Stream (2/3)")
        analysis = analyze(builder.screen)
        assert (analysis.page, analysis.pages) == (2, 3)
