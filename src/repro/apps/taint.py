"""Forward taint analysis over MiniJimple (the engine behind Alg. 1).

Taint seeds are locals assigned from response-reading framework APIs
(``InputStream.read``, ``ObdCommand.getResult``, ...).  Propagation is the
standard assignment-based forward flow over the SSA-style statement list:

* assigning a tainted expression taints the target;
* an invoke expression is tainted when its receiver or any argument is;
* binops, casts and array references propagate from their operands.

Because the corpus generator emits SSA locals, a single linear pass
suffices (no fix-point needed); the analysis is intraprocedural, which is
exactly why the paper's 13 "complex" apps (response read in one method,
processed in another) defeat it — our corpus reproduces that failure mode.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from .ir import (
    ArrayRef,
    AssignStmt,
    BinopExpr,
    CastExpr,
    Expr,
    IfStmt,
    InvokeExpr,
    Local,
    Method,
    RESPONSE_READ_APIS,
    Value,
)


def _values_of(expr: Expr) -> List[Value]:
    """Immediate operand values of an expression."""
    if isinstance(expr, InvokeExpr):
        values: List[Value] = list(expr.args)
        if expr.receiver is not None:
            values.append(expr.receiver)
        return values
    if isinstance(expr, BinopExpr):
        return [expr.left, expr.right]
    if isinstance(expr, CastExpr):
        return [expr.value]
    if isinstance(expr, ArrayRef):
        return [expr.base]
    return [expr]


def _is_source(expr: Expr) -> bool:
    return isinstance(expr, InvokeExpr) and expr.signature in RESPONSE_READ_APIS


def taint_method(method: Method) -> Tuple[Set[str], List[int]]:
    """Run forward taint over one method.

    Returns ``(tainted_local_names, tainted_statement_indices)`` where a
    statement is tainted when it defines or uses a tainted local (these are
    Alg. 1's *ProcStmts*).
    """
    tainted: Set[str] = set()
    tainted_statements: List[int] = []
    for index, statement in enumerate(method.statements):
        uses_taint = False
        if isinstance(statement, AssignStmt):
            if _is_source(statement.expr):
                tainted.add(statement.target.name)
                tainted_statements.append(index)
                continue
            operands = _values_of(statement.expr)
            uses_taint = any(
                isinstance(v, Local) and v.name in tainted for v in operands
            )
            if uses_taint:
                tainted.add(statement.target.name)
        elif isinstance(statement, IfStmt):
            cond = statement.cond
            uses_taint = any(
                isinstance(v, Local) and v.name in tainted
                for v in (cond.left, cond.right)
            )
        if uses_taint:
            tainted_statements.append(index)
    return tainted, tainted_statements


def data_dependencies(method: Method, index: int) -> List[int]:
    """Backward slice: statement indices the given statement depends on.

    Follows def-use chains transitively.  The slice stops *at* statements
    that extract integers from the response (``Integer.parseInt``), which
    become the formula's variables — exactly where the paper stops
    (Fig. 9's lines 7 and 9).
    """
    from .ir import PARSE_INT_SIG

    defs = {}
    for i, statement in enumerate(method.statements):
        if isinstance(statement, AssignStmt):
            defs[statement.target.name] = i

    slice_indices: List[int] = []
    worklist = [index]
    seen = {index}
    while worklist:
        current = worklist.pop()
        slice_indices.append(current)
        statement = method.statements[current]
        if not isinstance(statement, AssignStmt):
            continue
        if (
            isinstance(statement.expr, InvokeExpr)
            and statement.expr.signature == PARSE_INT_SIG
        ):
            continue  # variable boundary: stop the slice here
        for value in _values_of(statement.expr):
            if isinstance(value, Local):
                def_index = defs.get(value.name)
                if def_index is not None and def_index not in seen:
                    seen.add(def_index)
                    worklist.append(def_index)
    return sorted(slice_indices)


def control_dependencies(method: Method, index: int) -> List[int]:
    """Indices of ``IfStmt`` statements guarding the given statement.

    MiniJimple lowers ``if (c) { block }`` to ``if !c goto L; block; L:``,
    so a statement is control dependent on every earlier IfStmt whose
    skip label appears after it.
    """
    from .ir import LabelStmt

    labels = {
        statement.name: i
        for i, statement in enumerate(method.statements)
        if isinstance(statement, LabelStmt)
    }
    guards: List[int] = []
    for i, statement in enumerate(method.statements[:index]):
        if isinstance(statement, IfStmt):
            label_index = labels.get(statement.target)
            if label_index is not None and label_index > index:
                guards.append(i)
    return guards
