"""The tree traversal: `children`/`map_children` know every node class."""

from __future__ import annotations

import dataclasses
import inspect
import random

import pytest

from mmw.query import ast
from mmw.query.ast import (
    AttrRef,
    CompareOp,
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
    children,
    map_children,
    rewrite_namespaces,
    scan_names,
    walk,
)
from mmw.relational import Value

from support import make_environment, random_query

SCAN_A = Scan(QualifiedName("w", "a"))
SCAN_B = Scan(QualifiedName("w", "b"))
ATTR = AttrRef("x")
LIT = Literal(Value.integer(1))
COMPARISON = Comparison(ATTR, CompareOp.LT, LIT)

# One instance of every node class, keyed by class.
SAMPLES = {
    AttrRef: ATTR,
    Literal: LIT,
    HashCall: HashCall(ATTR),
    RedactCall: RedactCall(),
    ConcatCall: ConcatCall(ATTR, LIT),
    Comparison: COMPARISON,
    LogicalAnd: LogicalAnd(COMPARISON, LogicalNot(COMPARISON)),
    LogicalOr: LogicalOr(LogicalNot(COMPARISON), COMPARISON),
    LogicalNot: LogicalNot(COMPARISON),
    Scan: SCAN_A,
    Select: Select(SCAN_A, COMPARISON),
    Project: Project(SCAN_A, [ProjectItem(HashCall(ATTR), "h")]),
    Join: Join(SCAN_A, SCAN_B, [("x", "y")]),
    Union: Union(SCAN_A, SCAN_B),
}


def _node_classes():
    bases = (Query, Predicate, Expr)
    return {
        cls
        for _, cls in inspect.getmembers(ast, inspect.isclass)
        if issubclass(cls, bases) and cls not in bases
    }


def _tree_fields(node):
    """Names of the fields of node that hold sub-trees of its own tree."""
    family = (Query,) if isinstance(node, Query) else (Predicate, Expr)
    return [
        field.name
        for field in dataclasses.fields(node)
        if isinstance(getattr(node, field.name), family)
    ]


@dataclasses.dataclass(frozen=True)
class Marked:
    inner: object


def test_samples_cover_every_node_class():
    # A node class added to ast.py needs a sample here, and then the tests
    # below check that children/map_children know it.
    assert set(SAMPLES) == _node_classes()


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_children_are_the_tree_fields(cls):
    node = SAMPLES[cls]
    fields = _tree_fields(node)
    assert children(node) == tuple(getattr(node, name) for name in fields)
    assert map_children(node, lambda child: child) == node

    marked = map_children(node, Marked)
    assert type(marked) is type(node)
    for field in dataclasses.fields(node):
        original = getattr(node, field.name)
        expected = Marked(original) if field.name in fields else original
        assert getattr(marked, field.name) == expected


def test_unknown_class_raises_type_error():
    with pytest.raises(TypeError):
        children(ProjectItem(ATTR, "x"))
    with pytest.raises(TypeError):
        map_children(ProjectItem(ATTR, "x"), lambda child: child)


def test_walk_is_pre_order():
    tree = Union(Select(SCAN_A, COMPARISON), Join(SCAN_A, SCAN_B, [("x", "y")]))
    assert list(walk(tree)) == [
        tree,
        tree.left,
        SCAN_A,
        tree.right,
        SCAN_A,
        SCAN_B,
    ]


def _scans_left_to_right(q):
    if isinstance(q, Scan):
        return [q.name]
    if isinstance(q, (Select, Project)):
        return _scans_left_to_right(q.child)
    return _scans_left_to_right(q.left) + _scans_left_to_right(q.right)


def test_generated_queries_keep_order_and_survive_identity_rewrites():
    rng = random.Random(4404)
    env = make_environment(rng, namespaces=("w1", "w2"), relations_per_namespace=2)
    for case in range(500):
        q = random_query(rng, env)
        assert scan_names(q) == _scans_left_to_right(q), f"case {case}"
        assert rewrite_namespaces(q, {}) == q, f"case {case}"
        moved = rewrite_namespaces(q, {"w1": "z"})
        assert {name.namespace for name in scan_names(moved)} <= {"z", "w2"}
        assert rewrite_namespaces(moved, {"z": "w1"}) == q, f"case {case}"
