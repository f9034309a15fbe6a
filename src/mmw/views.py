"""View declarations and the rewrites they induce.

A mediator's views map downstream relations to a global namespace; queries
posed against the global namespace are rewritten back down by unfolding.
Declarations arrive as ``CREATE VIEW name AS <query>`` text; files hold one
';'-terminated statement per view with '--' line comments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from mmw.errors import ConfigError, TypeCheckError, UnknownRelationError, ViewCycleError
from mmw.relational import ProductSchema, RelationSchema, validate_product_schema
from mmw.query.ast import QualifiedName, Query, Scan, map_children, scan_names
from mmw.query.infer import Environment, infer_schema
from mmw.query.parse import parse_view_statements


@dataclass(frozen=True)
class ViewDeclaration:
    """A named global relation defined by a query over downstream names."""

    namespace: str
    name: str
    body: Query

    @property
    def qualified(self) -> QualifiedName:
        return QualifiedName(self.namespace, self.name)


# Views by qualified name, as `check_views` accepts them.
ViewMap = Mapping[QualifiedName, ViewDeclaration]


def parse_view_decl(text: str, namespace: str) -> ViewDeclaration:
    statements = parse_view_statements(text)
    if len(statements) != 1:
        raise ConfigError(f"expected exactly one view declaration, got {len(statements)}")
    name, body = statements[0]
    return ViewDeclaration(namespace, name, body)


@lru_cache(maxsize=64)
def parse_view_source(text: str, namespace: str) -> tuple[ViewDeclaration, ...]:
    """The views a view text declares into `namespace`. Kept per distinct
    text and namespace, as a mediator reads its same view texts on every
    start; an error is not kept."""
    return tuple([ViewDeclaration(namespace, name, body) for name, body in parse_view_statements(text)])


def _view_map(views: Iterable[ViewDeclaration]) -> dict[QualifiedName, ViewDeclaration]:
    mapping: dict[QualifiedName, ViewDeclaration] = {}
    for view in views:
        if view.qualified in mapping:
            raise ConfigError(f"duplicate view name {view.qualified}")
        mapping[view.qualified] = view
    return mapping


def check_views(
    views: Sequence[ViewDeclaration], downstream: Environment
) -> dict[QualifiedName, RelationSchema]:
    """Acyclicity plus type checks; returns the schema of every view.

    Views may reference downstream relations and sibling views declared in
    any order; the dependency graph just has to be acyclic.
    """
    mapping = _view_map(views)
    order = _topological_order(mapping)
    env: dict[QualifiedName, RelationSchema] = dict(downstream)
    schemas: dict[QualifiedName, RelationSchema] = {}
    for qualified in order:
        view = mapping[qualified]
        try:
            schema = infer_schema(view.body, env)
        except (TypeCheckError, UnknownRelationError) as exc:
            raise type(exc)(f"view {qualified}: {exc.message}", origin=exc.origin) from None
        schema = schema.rename(view.name)
        env[qualified] = schema
        schemas[qualified] = schema
    return schemas


def _topological_order(
    mapping: dict[QualifiedName, ViewDeclaration]
) -> list[QualifiedName]:
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {qualified: WHITE for qualified in mapping}
    order: list[QualifiedName] = []

    def visit(qualified: QualifiedName, trail: list[QualifiedName]) -> None:
        colour[qualified] = GREY
        trail.append(qualified)
        for dependency in scan_names(mapping[qualified].body):
            if dependency not in mapping:
                continue  # downstream relation, not a view
            if colour[dependency] is GREY:
                cycle = trail[trail.index(dependency):] + [dependency]
                raise ViewCycleError([str(name) for name in cycle])
            if colour[dependency] is WHITE:
                visit(dependency, trail)
        trail.pop()
        colour[qualified] = BLACK
        order.append(qualified)

    for qualified in sorted(mapping, key=str):
        if colour[qualified] is WHITE:
            visit(qualified, [])
    return order


def unfold(q: Query, views: Iterable[ViewDeclaration] | ViewMap) -> Query:
    """Replace every scan of a view by the view's body until only base
    relations remain. Idempotent; preserves the inferred schema. `views`
    may be the declarations, or a map of them by qualified name that
    `check_views` has accepted, which is used as it is."""
    mapping = views if isinstance(views, Mapping) else _view_map(views)
    return _expand(q, mapping, ())


# Module-level rather than a closure: a recursive closure is a reference
# cycle, which would keep every request's view map alive until the cyclic
# collector runs.
def _expand(
    node: Query,
    mapping: ViewMap,
    active: tuple[QualifiedName, ...],
) -> Query:
    if isinstance(node, Scan):
        view = mapping.get(node.name)
        if view is None:
            return node
        if node.name in active:
            cycle = list(active[active.index(node.name):]) + [node.name]
            raise ViewCycleError([str(name) for name in cycle])
        return _expand(view.body, mapping, active + (node.name,))
    return map_children(node, lambda child: _expand(child, mapping, active))


def derive_global_schema(
    views: Sequence[ViewDeclaration],
    downstream: Environment,
    product: str,
    version: int,
    metadata: Mapping[str, str] | None = None,
) -> ProductSchema:
    """One relation per view, typed through the unfolded body; raises
    ConfigError naming the first violation of the product schema invariants."""
    schemas = check_views(views, downstream)
    relations = [schemas[view.qualified] for view in views]
    schema = ProductSchema(product, version, relations, dict(metadata or {}))
    violations = validate_product_schema(schema)
    if violations:
        raise ConfigError(f"product {product!r}: {violations[0]}")
    return schema
