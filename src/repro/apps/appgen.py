"""Synthetic telematics-app generator.

Emits MiniJimple apps shaped like the decompiled Android apps of §4.6:
response-processing methods that read a hex string from the OBD dongle,
check its prefix, extract integer fields with ``Integer.parseInt(s, 16)``
and combine them with arithmetic before display (Fig. 9's pattern).

Three app flavours:

* **formula apps** — N guarded formula blocks (the extractor should find
  exactly N formulas);
* **complex apps** — the response is read in one method and processed in
  another, defeating intraprocedural taint analysis (the paper's 13
  "cannot be extracted" apps);
* **DTC apps** — read/clear trouble codes only; responses are displayed
  without any math (most of the 160-app corpus).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .ir import (
    App,
    ArrayRef,
    AssignStmt,
    BinopExpr,
    CastExpr,
    CondExpr,
    DISPLAY_SIG,
    DoubleConst,
    IfStmt,
    IntConst,
    InvokeExpr,
    LabelStmt,
    Local,
    Method,
    PARSE_INT_SIG,
    REPLACE_SIG,
    ReturnStmt,
    SPLIT_SIG,
    STARTSWITH_SIG,
    Statement,
    StringConst,
    TRIM_SIG,
)

RESULT_API = "<com.obd.lib.ObdCommand: java.lang.String getResult()>"


@dataclass(frozen=True)
class FormulaSpec:
    """One response-processing formula to embed.

    ``kind`` ∈ {"affine1", "affine2", "prod"}:

    * affine1: ``a*v0 + b``
    * affine2: ``a0*v0 + a1*v1 + b``
    * prod:    ``v0 * v1 * c``
    """

    prefix: str  # response prefix guarding the block, e.g. "41 0C"
    kind: str
    coefficients: Tuple[float, ...]

    @property
    def n_variables(self) -> int:
        return 1 if self.kind == "affine1" else 2


class _MethodBuilder:
    """Tiny helper accumulating SSA statements."""

    def __init__(self, name: str) -> None:
        self.method = Method(name)
        self._counter = 0
        self._labels = 0

    def local(self, prefix: str = "$t") -> Local:
        self._counter += 1
        return Local(f"{prefix}{self._counter}")

    def label(self) -> str:
        self._labels += 1
        return f"label{self._labels}"

    def emit(self, statement: Statement) -> None:
        self.method.statements.append(statement)

    def assign(self, expr) -> Local:
        target = self.local()
        self.emit(AssignStmt(target, expr))
        return target


def _request_for_prefix(prefix: str) -> str:
    """The request message whose response carries ``prefix``.

    Positive-response SIDs are request SID + 0x40 in every protocol here:
    ``41 0C`` was asked by ``01 0C``, ``62 F4 00`` by ``22 F4 00``,
    ``61 07`` by ``21 07``.
    """
    parts = prefix.split(" ")
    sid = int(parts[0], 16)
    return " ".join([f"{sid - 0x40:02X}"] + parts[1:])


def _emit_formula_block(builder: _MethodBuilder, response: Local, spec: FormulaSpec) -> None:
    """Emit ``send(request); if (response.startsWith(prefix)) { ... }``."""
    from .ir import SEND_COMMAND_SIG

    builder.emit(
        AssignStmt(
            builder.local("$s"),
            InvokeExpr(
                Local("$cmd"), SEND_COMMAND_SIG,
                (StringConst(_request_for_prefix(spec.prefix)),),
            ),
        )
    )
    flag = builder.assign(
        InvokeExpr(response, STARTSWITH_SIG, (StringConst(spec.prefix),))
    )
    skip = builder.label()
    builder.emit(IfStmt(CondExpr("==", flag, IntConst(0)), skip))

    stripped = builder.assign(
        InvokeExpr(response, REPLACE_SIG, (StringConst(spec.prefix), StringConst("")))
    )
    trimmed = builder.assign(InvokeExpr(stripped, TRIM_SIG, ()))
    parts = builder.assign(InvokeExpr(trimmed, SPLIT_SIG, (StringConst(" "),)))

    raw_vars: List[Local] = []
    for index in range(spec.n_variables):
        element = builder.assign(ArrayRef(parts, index))
        parsed = builder.assign(
            InvokeExpr(None, PARSE_INT_SIG, (element, IntConst(16)))
        )
        raw_vars.append(builder.assign(CastExpr("double", parsed)))

    if spec.kind == "affine1":
        a, b = spec.coefficients
        scaled = builder.assign(BinopExpr("*", DoubleConst(a), raw_vars[0]))
        result = builder.assign(BinopExpr("+", scaled, DoubleConst(b)))
    elif spec.kind == "affine2":
        a0, a1, b = spec.coefficients
        term0 = builder.assign(BinopExpr("*", DoubleConst(a0), raw_vars[0]))
        term1 = builder.assign(BinopExpr("*", raw_vars[1], DoubleConst(a1)))
        partial = builder.assign(BinopExpr("+", term1, term0))
        result = builder.assign(BinopExpr("+", partial, DoubleConst(b)))
    elif spec.kind == "prod":
        (c,) = spec.coefficients
        product = builder.assign(BinopExpr("*", raw_vars[0], raw_vars[1]))
        result = builder.assign(BinopExpr("*", product, DoubleConst(c)))
    else:
        raise ValueError(f"unknown formula kind {spec.kind!r}")

    builder.emit(AssignStmt(builder.local("$v"), InvokeExpr(Local("$tv"), DISPLAY_SIG, (result,))))
    builder.emit(LabelStmt(skip))


def make_formula_app(
    name: str, specs: Sequence[FormulaSpec], blocks_per_method: int = 25
) -> App:
    """An app embedding exactly ``len(specs)`` extractable formulas."""
    app = App(name)
    for chunk_start in range(0, len(specs), blocks_per_method):
        chunk = specs[chunk_start : chunk_start + blocks_per_method]
        builder = _MethodBuilder(f"processResponse{chunk_start // blocks_per_method}")
        response = builder.assign(InvokeExpr(Local("$cmd"), RESULT_API, ()))
        for spec in chunk:
            _emit_formula_block(builder, response, spec)
        builder.emit(ReturnStmt())
        app.methods.append(builder.method)
    return app


def make_complex_app(name: str, specs: Sequence[FormulaSpec]) -> App:
    """Formulas split across methods: read in one, compute in another.

    Intraprocedural taint analysis cannot connect the two, so the
    extractor finds nothing — the paper's "request message is sent by
    subclass and the response message is parsed by the parent class"
    failure mode.
    """
    app = App(name)
    reader = _MethodBuilder("readResponse")
    response = reader.assign(InvokeExpr(Local("$cmd"), RESULT_API, ()))
    reader.emit(ReturnStmt(response))
    app.methods.append(reader.method)

    for index, spec in enumerate(specs):
        builder = _MethodBuilder(f"computeValue{index}")
        # The response arrives as an (untainted) parameter.
        parameter = Local("$param0")
        _emit_formula_block(builder, parameter, spec)
        builder.emit(ReturnStmt())
        app.methods.append(builder.method)
    return app


def make_reflection_app(name: str, specs: Sequence[FormulaSpec]) -> App:
    """The response arrives through ``Method.invoke`` (reflection).

    The reflective call's signature is not in the taint-source list — the
    real analyses have the same blind spot — so nothing is extracted.
    """
    from .ir import REFLECT_INVOKE_SIG

    app = App(name)
    builder = _MethodBuilder("processReflected")
    response = builder.assign(
        InvokeExpr(Local("$method"), REFLECT_INVOKE_SIG, (Local("$cmd"),))
    )
    for spec in specs:
        _emit_formula_block(builder, response, spec)
    builder.emit(ReturnStmt())
    app.methods.append(builder.method)
    return app


def make_substring_condition_app(name: str, specs: Sequence[FormulaSpec]) -> App:
    """Conditions check ``substring(...).equals(...)`` instead of startsWith.

    The paper's other stated failure: "the app only checks partial bytes of
    response messages to determine the used formula" — the formula body is
    still reachable through taint, but the *condition* (and with it the
    protocol attribution) cannot be recovered by the startsWith matcher.
    """
    from .ir import EQUALS_SIG, SUBSTRING_SIG

    app = App(name)
    builder = _MethodBuilder("processPartialCheck")
    response = builder.assign(InvokeExpr(Local("$cmd"), RESULT_API, ()))
    for spec in specs:
        head = builder.assign(
            InvokeExpr(response, SUBSTRING_SIG, (IntConst(0), IntConst(len(spec.prefix))))
        )
        flag = builder.assign(
            InvokeExpr(head, EQUALS_SIG, (StringConst(spec.prefix),))
        )
        skip = builder.label()
        builder.emit(IfStmt(CondExpr("==", flag, IntConst(0)), skip))
        stripped = builder.assign(
            InvokeExpr(response, REPLACE_SIG, (StringConst(spec.prefix), StringConst("")))
        )
        trimmed = builder.assign(InvokeExpr(stripped, TRIM_SIG, ()))
        parts = builder.assign(InvokeExpr(trimmed, SPLIT_SIG, (StringConst(" "),)))
        element = builder.assign(ArrayRef(parts, 0))
        parsed = builder.assign(InvokeExpr(None, PARSE_INT_SIG, (element, IntConst(16))))
        value = builder.assign(CastExpr("double", parsed))
        scaled = builder.assign(BinopExpr("*", DoubleConst(spec.coefficients[0]), value))
        builder.emit(
            AssignStmt(builder.local("$v"), InvokeExpr(Local("$tv"), DISPLAY_SIG, (scaled,)))
        )
        builder.emit(LabelStmt(skip))
    builder.emit(ReturnStmt())
    app.methods.append(builder.method)
    return app


def make_dtc_app(name: str, n_codes: int = 4) -> App:
    """A read/clear-trouble-codes app: response handling without math."""
    app = App(name)
    builder = _MethodBuilder("readTroubleCodes")
    response = builder.assign(InvokeExpr(Local("$cmd"), RESULT_API, ()))
    for index in range(n_codes):
        flag = builder.assign(
            InvokeExpr(response, STARTSWITH_SIG, (StringConst(f"43 {index:02X}"),))
        )
        skip = builder.label()
        builder.emit(IfStmt(CondExpr("==", flag, IntConst(0)), skip))
        text = builder.assign(InvokeExpr(response, TRIM_SIG, ()))
        builder.emit(
            AssignStmt(builder.local("$v"), InvokeExpr(Local("$tv"), DISPLAY_SIG, (text,)))
        )
        builder.emit(LabelStmt(skip))
    builder.emit(ReturnStmt())
    app.methods.append(builder.method)
    return app


# --------------------------------------------------------------- spec pools


def obd2_spec_pool(rng: random.Random, count: int) -> List[FormulaSpec]:
    """Formula specs with OBD-II mode-01 response prefixes (``41 PID``)."""
    specs: List[FormulaSpec] = []
    pid = 0x04
    for __ in range(count):
        prefix = f"41 {pid:02X}"
        specs.append(_random_spec(rng, prefix))
        pid = pid + 1 if pid < 0xA6 else 0x04
    return specs


def uds_spec_pool(rng: random.Random, count: int) -> List[FormulaSpec]:
    """Specs with UDS ReadDataByIdentifier prefixes (``62 DID``)."""
    specs: List[FormulaSpec] = []
    did = 0xF400
    for __ in range(count):
        prefix = f"62 {did >> 8:02X} {did & 0xFF:02X}"
        specs.append(_random_spec(rng, prefix))
        did += 1
    return specs


def kwp_spec_pool(rng: random.Random, count: int) -> List[FormulaSpec]:
    """Specs with KWP readDataByLocalIdentifier prefixes (``61 LID``)."""
    specs: List[FormulaSpec] = []
    local_id = 0x01
    for index in range(count):
        prefix = f"61 {local_id:02X}"
        specs.append(_random_spec(rng, prefix))
        if index % 3 == 2:
            local_id = (local_id % 0xFE) + 1
    return specs


def _random_spec(rng: random.Random, prefix: str) -> FormulaSpec:
    roll = rng.random()
    if roll < 0.5:
        return FormulaSpec(
            prefix,
            "affine1",
            (round(rng.choice([0.1, 0.25, 0.392, 0.5, 1.0, 2.0]), 4), float(rng.choice([-40, 0, 0, 32]))),
        )
    if roll < 0.8:
        return FormulaSpec(
            prefix,
            "affine2",
            (float(rng.choice([64, 256, 2.56])), round(rng.choice([0.25, 0.01, 1.0]), 4), 0.0),
        )
    return FormulaSpec(prefix, "prod", (round(rng.choice([0.2, 0.01, 0.002]), 4),))
