"""Canonical text rendering of algebra trees.

The canonical form keys the result cache and travels on the wire, so it must
be deterministic and reparse to the same tree. Trees are normalized first:
stacked selections merge into one AND-predicate, a missing top projection
becomes ``SELECT *``, and unions re-associate to the right. Trees that fall
outside the textual grammar (non-scan join operands, nested blocks)
cannot be rendered and raise ``RenderError``.
"""

from __future__ import annotations

from mmw.errors import MeshError
from mmw.relational import Kind, canonical_text
from mmw.query.ast import (
    AttrRef,
    Comparison,
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
    ProjectItem,
    Query,
    RedactCall,
    Scan,
    Select,
    Union,
    map_children,
)


class RenderError(MeshError):
    """The tree has no equivalent in the textual grammar."""

    code = "type"


def normalize(q: Query) -> Query:
    """Canonical shape: merged selects, right-associated unions, projected root."""
    node = _normalize(q)
    if not isinstance(node, (Project, Union)):
        node = Project(node, None)
    return node


def _normalize(q: Query) -> Query:
    if isinstance(q, Union):
        branches = [
            block if isinstance(block, Project) else Project(block, None)
            for block in _union_branches(q)
        ]
        node = branches[-1]
        for block in reversed(branches[:-1]):
            node = Union(block, node)
        return node
    node = map_children(q, _normalize)
    if isinstance(node, Select) and isinstance(node.child, Select):
        return Select(node.child.child, LogicalAnd(node.child.predicate, node.predicate))
    return node


def _union_branches(q: Query) -> list[Query]:
    if isinstance(q, Union):
        return _union_branches(q.left) + _union_branches(q.right)
    return [_normalize(q)]


def render_query(q: Query) -> str:
    return _render(normalize(q))


def _render(q: Query) -> str:
    if isinstance(q, Union):
        return _render_block(q.left) + " UNION " + _render(q.right)
    return _render_block(q)


def _render_block(q: Query) -> str:
    if isinstance(q, Project):
        items, child = q.items, q.child
    else:
        items, child = None, q
    predicate = None
    if isinstance(child, Select):
        predicate, child = child.predicate, child.child
    joins: list[tuple[str, tuple[tuple[str, str], ...]]] = []
    node = child
    while isinstance(node, Join):
        if not isinstance(node.right, Scan):
            raise RenderError("join operand is not a base relation; flatten the tree first")
        joins.append((str(node.right.name), node.pairs))
        node = node.left
    if not isinstance(node, Scan):
        raise RenderError(f"{type(node).__name__} node has no textual form")
    joins.reverse()

    if items is None:
        item_text = "*"
    else:
        item_text = ", ".join(_render_item(item) for item in items)
    parts = [f"SELECT {item_text} FROM {node.name}"]
    for relation, pairs in joins:
        on_text = " AND ".join(f"{left} = {right}" for left, right in pairs)
        parts.append(f"JOIN {relation} ON {on_text}")
    if predicate is not None:
        parts.append("WHERE " + render_predicate(predicate))
    return " ".join(parts)


def _render_item(item: ProjectItem) -> str:
    if isinstance(item.expr, AttrRef) and item.expr.name == item.name:
        return item.name
    return f"{render_expr(item.expr)} AS {item.name}"


def render_predicate(predicate: Predicate) -> str:
    if isinstance(predicate, Comparison):
        return f"{render_expr(predicate.left)} {predicate.op.value} {render_expr(predicate.right)}"
    if isinstance(predicate, LogicalAnd):
        return f"({render_predicate(predicate.left)}) AND ({render_predicate(predicate.right)})"
    if isinstance(predicate, LogicalOr):
        return f"({render_predicate(predicate.left)}) OR ({render_predicate(predicate.right)})"
    if isinstance(predicate, LogicalNot):
        return f"NOT ({render_predicate(predicate.child)})"
    raise TypeError(f"unknown predicate {type(predicate).__name__}")


def render_expr(expr: Expr) -> str:
    if isinstance(expr, AttrRef):
        return expr.name
    if isinstance(expr, Literal):
        return _render_literal(expr)
    if isinstance(expr, HashCall):
        return f"hash({render_expr(expr.arg)})"
    if isinstance(expr, RedactCall):
        return "redact()"
    if isinstance(expr, ConcatCall):
        return f"concat({render_expr(expr.left)}, {render_expr(expr.right)})"
    raise TypeError(f"unknown expression {type(expr).__name__}")


def _render_literal(literal: Literal) -> str:
    value = literal.value
    if value.kind is Kind.NULL:
        return "NULL"
    if value.kind is Kind.BOOLEAN:
        return "TRUE" if value.payload else "FALSE"
    if value.kind is Kind.INTEGER:
        return canonical_text(value)
    if value.kind is Kind.DECIMAL:
        text = canonical_text(value)
        # A '.' keeps the literal a decimal when reparsed.
        return text if "." in text else text + ".0"
    if value.kind is Kind.TEXT:
        return "'" + value.payload.replace("'", "''") + "'"
    return f"TIMESTAMP '{canonical_text(value)}'"
