"""MiniJimple — a small three-address IR for telematics-app analysis.

The paper's §4.6 / §9.2 analysis runs on Soot's Jimple representation of
Android apps (Fig. 9 shows real Jimple).  Our synthetic corpus is expressed
in the same shape: SSA-style locals, one operation per statement, invoke
expressions carrying full method signatures, and structured conditionals
lowered to ``if <cond> goto <label>`` + labels.

Statement forms:

* ``AssignStmt(target, expr)`` — ``$d0 = 64.0 * $d1``
* ``IfStmt(cond, target_label)`` — branch *around* the guarded block when
  the condition is false (Jimple's inverted-goto lowering)
* ``LabelStmt(name)`` / ``GotoStmt(label)``
* ``ReturnStmt(value)``

Expression forms: constants, locals, binary operations, casts, array
references and invoke expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union


# ----------------------------------------------------------------- values


@dataclass(frozen=True)
class Local:
    """An SSA-style local variable, e.g. ``$r7_18``."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class StringConst:
    value: str

    def __str__(self) -> str:
        return f'"{self.value}"'


@dataclass(frozen=True)
class IntConst:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class DoubleConst:
    value: float

    def __str__(self) -> str:
        return f"{self.value:g}"


Constant = Union[StringConst, IntConst, DoubleConst]
Value = Union[Local, StringConst, IntConst, DoubleConst]


# ------------------------------------------------------------- expressions


@dataclass(frozen=True)
class InvokeExpr:
    """``virtualinvoke $r7.<java.lang.String: boolean startsWith(...)>(...)``"""

    receiver: Optional[Value]  # None for static invokes
    signature: str  # full Soot-style signature
    args: Tuple[Value, ...] = ()

    @property
    def method_name(self) -> str:
        # "<java.lang.Integer: int parseInt(java.lang.String,int)>" -> parseInt
        inner = self.signature.strip("<>")
        after_type = inner.split(" ", 2)[-1]
        return after_type.split("(")[0]

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        if self.receiver is None:
            return f"staticinvoke {self.signature}({args})"
        return f"virtualinvoke {self.receiver}.{self.signature}({args})"


@dataclass(frozen=True)
class BinopExpr:
    """``$d0_1 = 64.0 * $d0``"""

    op: str  # "+", "-", "*", "/"
    left: Value
    right: Value

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class CastExpr:
    """``$d0 = (double) $i2_3``"""

    to_type: str
    value: Value

    def __str__(self) -> str:
        return f"({self.to_type}) {self.value}"


@dataclass(frozen=True)
class ArrayRef:
    """``$r7_21 = $r9[0]``"""

    base: Value
    index: int

    def __str__(self) -> str:
        return f"{self.base}[{self.index}]"


@dataclass(frozen=True)
class CondExpr:
    """A branch condition, e.g. ``$z0_17 == 0``."""

    op: str  # "==", "!=", "<", ">"
    left: Value
    right: Value

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


Expr = Union[InvokeExpr, BinopExpr, CastExpr, ArrayRef, Value]


# -------------------------------------------------------------- statements


@dataclass(frozen=True)
class AssignStmt:
    target: Local
    expr: Expr

    def __str__(self) -> str:
        return f"{self.target} = {self.expr}"


@dataclass(frozen=True)
class IfStmt:
    """``if $z0 == 0 goto labelN`` — skips the guarded block when false."""

    cond: CondExpr
    target: str

    def __str__(self) -> str:
        return f"if {self.cond} goto {self.target}"


@dataclass(frozen=True)
class GotoStmt:
    target: str

    def __str__(self) -> str:
        return f"goto {self.target}"


@dataclass(frozen=True)
class LabelStmt:
    name: str

    def __str__(self) -> str:
        return f"{self.name}:"


@dataclass(frozen=True)
class ReturnStmt:
    value: Optional[Value] = None

    def __str__(self) -> str:
        return f"return {self.value}" if self.value is not None else "return"


Statement = Union[AssignStmt, IfStmt, GotoStmt, LabelStmt, ReturnStmt]


# ------------------------------------------------------------------ method


@dataclass
class Method:
    """One method body: a flat statement list (Jimple style)."""

    name: str
    statements: List[Statement] = field(default_factory=list)

    def listing(self) -> str:
        return "\n".join(f"{i:3d}  {s}" for i, s in enumerate(self.statements))


@dataclass
class App:
    """One analysed telematics app."""

    name: str
    methods: List[Method] = field(default_factory=list)

    def method(self, name: str) -> Method:
        for method in self.methods:
            if method.name == name:
                return method
        raise KeyError(name)

    def statement_count(self) -> int:
        return sum(len(m.statements) for m in self.methods)


# ---------------------------------------------------------- API signatures

#: Framework APIs that read response messages (taint sources, Alg. 1).
RESPONSE_READ_APIS: Tuple[str, ...] = (
    "<java.io.InputStream: int read(byte[])>",
    "<java.io.BufferedReader: java.lang.String readLine()>",
    "<android.bluetooth.BluetoothSocket: java.io.InputStream getInputStream()>",
    "<com.obd.lib.ObdCommand: java.lang.String getResult()>",
)

PARSE_INT_SIG = "<java.lang.Integer: int parseInt(java.lang.String,int)>"
STARTSWITH_SIG = "<java.lang.String: boolean startsWith(java.lang.String)>"
REPLACE_SIG = (
    "<java.lang.String: java.lang.String replace"
    "(java.lang.CharSequence,java.lang.CharSequence)>"
)
TRIM_SIG = "<java.lang.String: java.lang.String trim()>"
SPLIT_SIG = "<java.lang.String: java.lang.String[] split(java.lang.String)>"
SUBSTRING_SIG = "<java.lang.String: java.lang.String substring(int,int)>"
EQUALS_SIG = "<java.lang.String: boolean equals(java.lang.Object)>"
REFLECT_INVOKE_SIG = (
    "<java.lang.reflect.Method: java.lang.Object invoke"
    "(java.lang.Object,java.lang.Object[])>"
)
DISPLAY_SIG = "<android.widget.TextView: void setText(java.lang.CharSequence)>"
SEND_COMMAND_SIG = "<com.obd.lib.ObdCommand: void sendCommand(java.lang.String)>"
