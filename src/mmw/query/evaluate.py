"""Naive reference evaluator with bag semantics.

This is the correctness oracle for everything downstream: planners,
wrappers and mediators are all tested against it. It therefore stays as
literal as possible: nested-loop joins, no index tricks, no reordering.

Predicates follow SQL-like WHERE semantics: comparisons over null are
unknown, Kleene connectives propagate unknown, and only definitely-true
rows survive a selection.
"""

from __future__ import annotations

from typing import Mapping, Optional

from mmw.errors import UnknownRelationError
from mmw.relational import Ordering, Table, Value, canonical_text, compare_values
from mmw.query.ast import (
    AttrRef,
    Comparison,
    CompareOp,
    ConcatCall,
    Expr,
    HashCall,
    Join,
    Literal,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    Predicate,
    Project,
    QualifiedName,
    Query,
    RedactCall,
    Scan,
    Select,
    Union,
)
from mmw.query.infer import (
    join_output_schema,
    project_output_schema,
    union_output_schema,
)

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

REDACTED = Value.text("REDACTED")


def fnv1a_hex(data: bytes) -> str:
    """64-bit FNV-1a digest as 16 lowercase hex digits."""
    digest = FNV_OFFSET
    for byte in data:
        digest ^= byte
        digest = (digest * FNV_PRIME) & _MASK64
    return format(digest, "016x")


def hash_value(value: Value, salt: str = "") -> Value:
    if value.is_null:
        return Value.null()
    payload = salt.encode("utf-8") + canonical_text(value).encode("utf-8")
    return Value.text(fnv1a_hex(payload))


def eval_expr(expr: Expr, row: tuple[Value, ...], index: Mapping[str, int], salt: str) -> Value:
    if isinstance(expr, AttrRef):
        return row[index[expr.name]]
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, HashCall):
        return hash_value(eval_expr(expr.arg, row, index, salt), salt)
    if isinstance(expr, RedactCall):
        return REDACTED
    if isinstance(expr, ConcatCall):
        left = eval_expr(expr.left, row, index, salt)
        right = eval_expr(expr.right, row, index, salt)
        if left.is_null or right.is_null:
            return Value.null()
        return Value.text(left.payload + right.payload)
    raise TypeError(f"unknown expression {type(expr).__name__}")


_TRUE_ORDERINGS = {
    CompareOp.EQ: (Ordering.EQUAL,),
    CompareOp.NE: (Ordering.LESS, Ordering.GREATER),
    CompareOp.LT: (Ordering.LESS,),
    CompareOp.LE: (Ordering.LESS, Ordering.EQUAL),
    CompareOp.GT: (Ordering.GREATER,),
    CompareOp.GE: (Ordering.GREATER, Ordering.EQUAL),
}


def eval_predicate(
    predicate: Predicate, row: tuple[Value, ...], index: Mapping[str, int], salt: str
) -> Optional[bool]:
    """Three-valued: True, False, or None for unknown."""
    if isinstance(predicate, Comparison):
        ordering = compare_values(
            eval_expr(predicate.left, row, index, salt),
            eval_expr(predicate.right, row, index, salt),
        )
        if ordering is Ordering.INCOMPARABLE:
            return None
        return ordering in _TRUE_ORDERINGS[predicate.op]
    if isinstance(predicate, LogicalAnd):
        left = eval_predicate(predicate.left, row, index, salt)
        right = eval_predicate(predicate.right, row, index, salt)
        if left is False or right is False:
            return False
        if left is None or right is None:
            return None
        return True
    if isinstance(predicate, LogicalOr):
        left = eval_predicate(predicate.left, row, index, salt)
        right = eval_predicate(predicate.right, row, index, salt)
        if left is True or right is True:
            return True
        if left is None or right is None:
            return None
        return False
    if isinstance(predicate, LogicalNot):
        inner = eval_predicate(predicate.child, row, index, salt)
        return None if inner is None else not inner
    raise TypeError(f"unknown predicate {type(predicate).__name__}")


def _index(table: Table) -> dict[str, int]:
    return {attr.name: position for position, attr in enumerate(table.schema.attributes)}


def evaluate(q: Query, db: Mapping[QualifiedName, Table], salt: str = "") -> Table:
    """Evaluate q over base tables; total once schema inference passes."""
    if isinstance(q, Scan):
        table = db.get(q.name)
        if table is None:
            raise UnknownRelationError(f"unknown relation {q.name}")
        return Table(table.schema.rename(q.name.relation), table.rows)
    if isinstance(q, Select):
        child = evaluate(q.child, db, salt)
        index = _index(child)
        rows = [
            row for row in child.rows if eval_predicate(q.predicate, row, index, salt) is True
        ]
        return Table(child.schema, rows)
    if isinstance(q, Project):
        child = evaluate(q.child, db, salt)
        if q.items is None:
            return child
        schema = project_output_schema(child.schema, q.items)
        index = _index(child)
        rows = [
            tuple(eval_expr(item.expr, row, index, salt) for item in q.items)
            for row in child.rows
        ]
        return Table(schema, rows)
    if isinstance(q, Join):
        left = evaluate(q.left, db, salt)
        right = evaluate(q.right, db, salt)
        schema, dropped = join_output_schema(left.schema, right.schema, q.pairs)
        left_index, right_index = _index(left), _index(right)
        keep = [pos for pos in range(len(right.schema.attributes)) if pos not in dropped]
        rows = []
        for left_row in left.rows:
            for right_row in right.rows:
                if all(
                    compare_values(left_row[left_index[l]], right_row[right_index[r]])
                    is Ordering.EQUAL
                    for l, r in q.pairs
                ):
                    rows.append(left_row + tuple(right_row[pos] for pos in keep))
        return Table(schema, rows)
    if isinstance(q, Union):
        left = evaluate(q.left, db, salt)
        right = evaluate(q.right, db, salt)
        return Table(union_output_schema(left.schema, right.schema), left.rows + right.rows)
    raise TypeError(f"unknown query node {type(q).__name__}")
