"""Formula extraction from telematics apps (Alg. 1 of the paper).

For each method: find statements reading response messages, forward-taint
from them, pick tainted statements containing mathematical operators, then

* follow **data dependencies** backwards to build the formula, stopping at
  the ``Integer.parseInt`` calls that extract raw bytes from the response
  (those become the formula's variables ``v0, v1, ...``);
* follow **control dependencies** to the guarding branch statements and
  recover the condition under which the formula applies (e.g. *response
  starts with "41 0C"*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .ir import (
    App,
    ArrayRef,
    AssignStmt,
    BinopExpr,
    CastExpr,
    DoubleConst,
    IfStmt,
    IntConst,
    InvokeExpr,
    Local,
    Method,
    PARSE_INT_SIG,
    STARTSWITH_SIG,
    StringConst,
    Statement,
    Value,
)
from .taint import control_dependencies, data_dependencies, taint_method

MATH_OPS = ("+", "-", "*", "/")


@dataclass(frozen=True)
class ExtractedAppFormula:
    """One formula recovered from an app."""

    app_name: str
    method_name: str
    expression: str  # e.g. "v0 * 0.25 + 64.0 * v1"
    condition: str  # e.g. 'response.startsWith("41 0C")'
    response_prefix: str  # the constant checked, "" when none found
    variables: Tuple[str, ...]

    @property
    def protocol(self) -> str:
        """Classify by the response prefix (OBD-II 0x41 vs UDS 0x62 vs KWP 0x61)."""
        prefix = self.response_prefix.replace(" ", "")
        if prefix.startswith("41"):
            return "OBD-II"
        if prefix.startswith("62"):
            return "UDS"
        if prefix.startswith("61"):
            return "KWP 2000"
        return "unknown"


class FormulaExtractor:
    """Implements Alg. 1 over a MiniJimple app."""

    def extract(self, app: App) -> List[ExtractedAppFormula]:
        formulas: List[ExtractedAppFormula] = []
        for method in app.methods:
            formulas.extend(self._extract_method(app.name, method))
        return formulas

    # ------------------------------------------------------------- per method

    def _extract_method(self, app_name: str, method: Method) -> List[ExtractedAppFormula]:
        tainted_locals, tainted_statements = taint_method(method)
        if not tainted_locals:
            return []
        results: List[ExtractedAppFormula] = []
        # Alg. 1 lines 7-8: tainted statements with math operators.  Only
        # *final* results are reported: a math statement that feeds another
        # tainted math statement is an intermediate term (Fig. 9: line 14
        # is the result; lines 11 and 13 are parts of it).
        math_indices = [
            index
            for index in tainted_statements
            if self._is_math(method.statements[index])
        ]
        final_indices = [
            index
            for index in math_indices
            if not self._feeds_math(method, index, math_indices)
        ]
        for index in final_indices:
            formula = self._formula_at(app_name, method, index)
            if formula is not None:
                results.append(formula)
        return results

    @staticmethod
    def _is_math(statement: Statement) -> bool:
        return isinstance(statement, AssignStmt) and isinstance(
            statement.expr, BinopExpr
        ) and statement.expr.op in MATH_OPS

    @staticmethod
    def _feeds_math(method: Method, index: int, math_indices: Sequence[int]) -> bool:
        target = method.statements[index].target
        for other in math_indices:
            if other == index:
                continue
            expr = method.statements[other].expr
            if isinstance(expr, BinopExpr) and target in (expr.left, expr.right):
                return True
        return False

    # ------------------------------------------------------ formula building

    def _formula_at(
        self, app_name: str, method: Method, index: int
    ) -> Optional[ExtractedAppFormula]:
        slice_indices = set(data_dependencies(method, index))
        variables: Dict[str, str] = {}  # local name -> v0/v1/...

        def render(value: Value) -> str:
            if isinstance(value, (IntConst, DoubleConst)):
                return str(value)
            if isinstance(value, StringConst):
                return str(value)
            if not isinstance(value, Local):
                return str(value)
            def_index = self._definition_of(method, value.name)
            if def_index is None or def_index not in slice_indices:
                return value.name
            expr = method.statements[def_index].expr
            if isinstance(expr, InvokeExpr) and expr.signature == PARSE_INT_SIG:
                if value.name not in variables:
                    variables[value.name] = f"v{len(variables)}"
                return variables[value.name]
            if isinstance(expr, BinopExpr):
                return f"({render(expr.left)} {expr.op} {render(expr.right)})"
            if isinstance(expr, CastExpr):
                return render(expr.value)
            if isinstance(expr, ArrayRef):
                return render(expr.base) if isinstance(expr.base, Local) else str(expr)
            if isinstance(expr, (IntConst, DoubleConst)):
                return str(expr)
            return value.name

        statement = method.statements[index]
        assert isinstance(statement, AssignStmt) and isinstance(statement.expr, BinopExpr)
        expression = (
            f"{render(statement.expr.left)} {statement.expr.op} "
            f"{render(statement.expr.right)}"
        )
        if not variables:
            return None  # math over constants only — not a response formula

        condition, prefix = self._condition_at(method, index)
        return ExtractedAppFormula(
            app_name=app_name,
            method_name=method.name,
            expression=_strip_outer_parens(expression),
            condition=condition,
            response_prefix=prefix,
            variables=tuple(variables.values()),
        )

    @staticmethod
    def _definition_of(method: Method, local_name: str) -> Optional[int]:
        for i, statement in enumerate(method.statements):
            if isinstance(statement, AssignStmt) and statement.target.name == local_name:
                return i
        return None

    # ----------------------------------------------------------- conditions

    def _condition_at(self, method: Method, index: int) -> Tuple[str, str]:
        """Recover the guard condition (Alg. 1 lines 12-14)."""
        guards = control_dependencies(method, index)
        for guard_index in guards:
            guard = method.statements[guard_index]
            assert isinstance(guard, IfStmt)
            for value in (guard.cond.left, guard.cond.right):
                if not isinstance(value, Local):
                    continue
                def_index = self._definition_of(method, value.name)
                if def_index is None:
                    continue
                expr = method.statements[def_index].expr
                if (
                    isinstance(expr, InvokeExpr)
                    and expr.signature == STARTSWITH_SIG
                    and expr.args
                    and isinstance(expr.args[0], StringConst)
                ):
                    prefix = expr.args[0].value
                    return f'response.startsWith("{prefix}")', prefix
        return "", ""


def _strip_outer_parens(text: str) -> str:
    if not (text.startswith("(") and text.endswith(")")):
        return text
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and i < len(text) - 1:
                return text
    return text[1:-1]
