"""Static schema inference over algebra trees.

Errors carry the tree path of the offending node ("$.left.child" style).
The per-operator output-schema helpers are shared with the evaluator so the
two can never disagree about result shapes.
"""

from __future__ import annotations

from typing import Mapping

from mmw.errors import TypeCheckError, UnknownRelationError
from mmw.relational import Attribute, Kind, RelationSchema
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
    QualifiedName,
    Query,
    RedactCall,
    Scan,
    Select,
    Union,
)

Environment = Mapping[QualifiedName, RelationSchema]


def type_expr(expr: Expr, schema: RelationSchema, name: str, path: str = "$") -> Attribute:
    """Type an expression against a row schema; result attribute named `name`."""
    if isinstance(expr, AttrRef):
        try:
            attr = schema.attribute(expr.name)
        except KeyError:
            raise TypeCheckError(f"{path}: unknown attribute {expr.name!r}") from None
        return attr.with_name(name)
    if isinstance(expr, Literal):
        kind = expr.value.kind
        return Attribute(name, kind, nullable=kind is Kind.NULL)
    if isinstance(expr, HashCall):
        arg = type_expr(expr.arg, schema, name, path)
        return Attribute(name, Kind.TEXT, nullable=arg.nullable or arg.data_type is Kind.NULL)
    if isinstance(expr, RedactCall):
        return Attribute(name, Kind.TEXT, nullable=False)
    if isinstance(expr, ConcatCall):
        left = type_expr(expr.left, schema, name, path)
        right = type_expr(expr.right, schema, name, path)
        for side in (left, right):
            if side.data_type not in (Kind.TEXT, Kind.NULL):
                raise TypeCheckError(f"{path}: concat expects text, got {side.data_type}")
        nullable = (
            left.nullable
            or right.nullable
            or left.data_type is Kind.NULL
            or right.data_type is Kind.NULL
        )
        return Attribute(name, Kind.TEXT, nullable=nullable)
    raise TypeError(f"unknown expression {type(expr).__name__}")


def check_predicate(predicate: Predicate, schema: RelationSchema, path: str = "$") -> None:
    if isinstance(predicate, Comparison):
        left = type_expr(predicate.left, schema, "l", path)
        right = type_expr(predicate.right, schema, "r", path)
        if Kind.NULL in (left.data_type, right.data_type):
            return  # never satisfied, but well-formed
        if left.data_type is not right.data_type:
            raise TypeCheckError(
                f"{path}: cannot compare {left.data_type} with {right.data_type}"
            )
        return
    if isinstance(predicate, (LogicalAnd, LogicalOr)):
        check_predicate(predicate.left, schema, path)
        check_predicate(predicate.right, schema, path)
        return
    if isinstance(predicate, LogicalNot):
        check_predicate(predicate.child, schema, path)
        return
    raise TypeError(f"unknown predicate {type(predicate).__name__}")


def project_output_schema(
    child: RelationSchema, items: tuple[ProjectItem, ...], path: str = "$"
) -> RelationSchema:
    seen: set[str] = set()
    attrs: list[Attribute] = []
    for item in items:
        if item.name in seen:
            raise TypeCheckError(f"{path}: duplicate output name {item.name!r}")
        seen.add(item.name)
        attr = type_expr(item.expr, child, item.name, path)
        if attr.data_type is Kind.NULL:
            raise TypeCheckError(f"{path}: cannot project a bare null literal as {item.name!r}")
        attrs.append(attr)
    key = None
    if child.key is not None:
        projected = {
            item.name for item in items if isinstance(item.expr, AttrRef) and item.expr.name == item.name
        }
        if all(k in projected for k in child.key):
            key = child.key
    return RelationSchema(child.name, attrs, key)


def join_output_schema(
    left: RelationSchema,
    right: RelationSchema,
    pairs: tuple[tuple[str, str], ...],
    path: str = "$",
) -> tuple[RelationSchema, tuple[int, ...]]:
    """Output schema plus the right-side positions dropped (the join keys)."""
    if not pairs:
        raise TypeCheckError(f"{path}: join requires at least one attribute pair")
    for left_name, right_name in pairs:
        try:
            left_attr = left.attribute(left_name)
        except KeyError:
            raise TypeCheckError(f"{path}: unknown join attribute {left_name!r} on left side") from None
        try:
            right_attr = right.attribute(right_name)
        except KeyError:
            raise TypeCheckError(f"{path}: unknown join attribute {right_name!r} on right side") from None
        if left_attr.data_type is not right_attr.data_type:
            raise TypeCheckError(
                f"{path}: join pair {left_name} = {right_name} compares "
                f"{left_attr.data_type} with {right_attr.data_type}"
            )
    dropped_names = {right_name for _, right_name in pairs}
    dropped = tuple(
        position for position, attr in enumerate(right.attributes) if attr.name in dropped_names
    )
    attrs = list(left.attributes) + [
        attr for attr in right.attributes if attr.name not in dropped_names
    ]
    names = [attr.name for attr in attrs]
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        raise TypeCheckError(
            f"{path}: join output has duplicate attributes {duplicates}; "
            "disambiguate with a view that renames them with AS"
        )
    return RelationSchema(left.name, attrs, None), dropped


def union_output_schema(
    left: RelationSchema, right: RelationSchema, path: str = "$"
) -> RelationSchema:
    if len(left.attributes) != len(right.attributes):
        raise TypeCheckError(
            f"{path}: union arity mismatch: {len(left.attributes)} vs {len(right.attributes)}"
        )
    attrs: list[Attribute] = []
    for left_attr, right_attr in zip(left.attributes, right.attributes):
        if left_attr.name != right_attr.name:
            raise TypeCheckError(
                f"{path}: union attribute names differ: {left_attr.name!r} vs {right_attr.name!r}"
            )
        if left_attr.data_type is not right_attr.data_type:
            raise TypeCheckError(
                f"{path}: union attribute {left_attr.name!r} types differ: "
                f"{left_attr.data_type} vs {right_attr.data_type}"
            )
        attrs.append(
            Attribute(
                left_attr.name,
                left_attr.data_type,
                nullable=left_attr.nullable or right_attr.nullable,
                tags=left_attr.tags | right_attr.tags,
            )
        )
    return RelationSchema(left.name, attrs, None)


def infer_schema(q: Query, env: Environment, path: str = "$") -> RelationSchema:
    if isinstance(q, Scan):
        schema = env.get(q.name)
        if schema is None:
            raise UnknownRelationError(f"{path}: unknown relation {q.name}")
        return schema.rename(q.name.relation)
    if isinstance(q, Select):
        child = infer_schema(q.child, env, path + ".child")
        check_predicate(q.predicate, child, path)
        return child
    if isinstance(q, Project):
        child = infer_schema(q.child, env, path + ".child")
        if q.items is None:
            return child
        return project_output_schema(child, q.items, path)
    if isinstance(q, Join):
        left = infer_schema(q.left, env, path + ".left")
        right = infer_schema(q.right, env, path + ".right")
        schema, _ = join_output_schema(left, right, q.pairs, path)
        return schema
    if isinstance(q, Union):
        left = infer_schema(q.left, env, path + ".left")
        right = infer_schema(q.right, env, path + ".right")
        return union_output_schema(left, right, path)
    raise TypeError(f"unknown query node {type(q).__name__}")
