"""Immutable algebra trees: queries, scalar expressions, predicates.

Trees are plain frozen dataclasses compared structurally; rewrites build new
trees. `Project` with ``items=None`` is the star projection (identity).

`children` and `map_children` are the one place that knows the shape of a
tree: which fields of a node hold its sub-trees and how to rebuild it. A
rewrite handles its own special cases and leaves the rest to `map_children`,
so a new node class changes those two functions and none of the rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional

from mmw.relational import Value


@dataclass(frozen=True)
class QualifiedName:
    namespace: str
    relation: str

    def __str__(self) -> str:
        return f"{self.namespace}.{self.relation}"


class Expr:
    """Base class for scalar expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class AttrRef(Expr):
    name: str


@dataclass(frozen=True)
class Literal(Expr):
    value: Value


@dataclass(frozen=True)
class HashCall(Expr):
    arg: Expr


@dataclass(frozen=True)
class RedactCall(Expr):
    pass


@dataclass(frozen=True)
class ConcatCall(Expr):
    left: Expr
    right: Expr


class Predicate:
    __slots__ = ()


class CompareOp(Enum):
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


@dataclass(frozen=True)
class Comparison(Predicate):
    left: Expr
    op: CompareOp
    right: Expr


@dataclass(frozen=True)
class LogicalAnd(Predicate):
    left: Predicate
    right: Predicate


@dataclass(frozen=True)
class LogicalOr(Predicate):
    left: Predicate
    right: Predicate


@dataclass(frozen=True)
class LogicalNot(Predicate):
    child: Predicate


class Query:
    __slots__ = ()


@dataclass(frozen=True)
class Scan(Query):
    name: QualifiedName


@dataclass(frozen=True)
class Select(Query):
    child: Query
    predicate: Predicate


@dataclass(frozen=True)
class ProjectItem:
    expr: Expr
    name: str


@dataclass(frozen=True)
class Project(Query):
    """items=None projects every child attribute unchanged (``SELECT *``)."""

    child: Query
    items: Optional[tuple[ProjectItem, ...]]

    def __init__(self, child: Query, items: Optional[Iterable[ProjectItem]] = None):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "items", tuple(items) if items is not None else None)


@dataclass(frozen=True)
class Join(Query):
    """Inner equi-join; right join-key attributes are dropped from the output."""

    left: Query
    right: Query
    pairs: tuple[tuple[str, str], ...]

    def __init__(self, left: Query, right: Query, pairs):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "pairs", tuple(tuple(pair) for pair in pairs))


@dataclass(frozen=True)
class Union(Query):
    """Bag union: concatenation, no deduplication."""

    left: Query
    right: Query


def children(node) -> tuple:
    """The direct sub-trees of node in its own tree: child queries of a query
    node, operands of a predicate or an expression. A select's predicate and a
    projection's items belong to other trees and are not children."""
    if isinstance(node, (Select, Project, LogicalNot)):
        return (node.child,)
    if isinstance(node, (Join, Union, Comparison, LogicalAnd, LogicalOr, ConcatCall)):
        return (node.left, node.right)
    if isinstance(node, HashCall):
        return (node.arg,)
    if isinstance(node, (Scan, AttrRef, Literal, RedactCall)):
        return ()
    raise TypeError(f"unknown node {type(node).__name__}")


def map_children(node, fn):
    """node rebuilt with fn applied to each of its children, left to right."""
    if isinstance(node, (Scan, AttrRef, Literal, RedactCall)):
        return node
    if isinstance(node, (Union, LogicalAnd, LogicalOr, ConcatCall)):
        return type(node)(fn(node.left), fn(node.right))
    if isinstance(node, Select):
        return Select(fn(node.child), node.predicate)
    if isinstance(node, Project):
        return Project(fn(node.child), node.items)
    if isinstance(node, Join):
        return Join(fn(node.left), fn(node.right), node.pairs)
    if isinstance(node, Comparison):
        return Comparison(fn(node.left), node.op, fn(node.right))
    if isinstance(node, LogicalNot):
        return LogicalNot(fn(node.child))
    if isinstance(node, HashCall):
        return HashCall(fn(node.arg))
    raise TypeError(f"unknown node {type(node).__name__}")


def walk(node) -> Iterator:
    """Every node of node's tree in pre-order, children left to right."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(children(current)))


def scan_names(q: Query) -> list[QualifiedName]:
    """Every relation scanned by q, in tree order (duplicates preserved)."""
    return [node.name for node in walk(q) if isinstance(node, Scan)]


def namespaces(q: Query) -> set[str]:
    return {name.namespace for name in scan_names(q)}


def rewrite_namespaces(q: Query, mapping: dict[str, str]) -> Query:
    """Replace scan namespaces (e.g. consumer alias -> producer namespace)."""
    if isinstance(q, Scan):
        target = mapping.get(q.name.namespace)
        return q if target is None else Scan(QualifiedName(target, q.name.relation))
    return map_children(q, lambda child: rewrite_namespaces(child, mapping))


def predicate_attrs(predicate: Predicate) -> set[str]:
    return {node.name for node in walk(predicate) if isinstance(node, AttrRef)}


def any_node(node, test: Callable[[object], bool]) -> bool:
    """True if test holds for a node of node's tree or of the selection
    predicates and projection items in it."""
    for current in walk(node):
        if test(current):
            return True
        if isinstance(current, Select) and any_node(current.predicate, test):
            return True
        if isinstance(current, Project) and any(
            any_node(item.expr, test) for item in current.items or ()
        ):
            return True
    return False


def contains_hash_call(node) -> bool:
    """True if any expression in the subtree applies the salted hash."""
    return any_node(node, lambda current: isinstance(current, HashCall))
