"""Cross-component execution planning.

A plan fetches maximal single-namespace fragments of the unfolded query from
their owning components and evaluates the cross-namespace residual locally.
Fetch queries are re-expressed in the textual grammar (selects merged,
projections composed, unions distributed over joins) so they can travel over
the wire; fragments that cannot be expressed, or that apply the salted hash
(which must run under the planning component's own salt), fall back to
finer-grained fetches.

Selections are sunk below joins first (predicate pushdown) so single-side
filters end up inside the owning component's fetch. Pushdown is best-effort
and correctness-checked, never cost-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from mmw.errors import ConfigError, TypeCheckError
from mmw.relational import Table
from mmw.query.ast import (
    AttrRef,
    Expr,
    Join,
    LogicalAnd,
    Predicate,
    Project,
    ProjectItem,
    QualifiedName,
    Query,
    Rename,
    Scan,
    Select,
    Union,
    contains_hash_call,
    map_children,
    namespaces,
    predicate_attrs,
)
from mmw.query.infer import Environment, infer_schema
# Bound as `evaluate`: meshbench/tracing.py patches the module's `evaluate`.
from mmw.query.execute import execute as evaluate
from mmw.views import ViewDeclaration, unfold


@dataclass(frozen=True)
class Placement:
    """Downstream namespace (component alias) -> opaque component binding."""

    bindings: tuple[tuple[str, object], ...]

    def __init__(self, bindings: Mapping[str, object]):
        object.__setattr__(self, "bindings", tuple(sorted(bindings.items())))

    @property
    def namespaces(self) -> frozenset[str]:
        return frozenset(ns for ns, _ in self.bindings)

    def binding(self, namespace: str):
        for ns, bound in self.bindings:
            if ns == namespace:
                return bound
        raise ConfigError(f"namespace {namespace!r} has no binding")


@dataclass(frozen=True)
class FetchStep:
    namespace: str
    query: Query  # grammar-shaped, references only `namespace`
    intermediate: QualifiedName


@dataclass(frozen=True)
class ExecutionPlan:
    fetches: tuple[FetchStep, ...]
    residual: Query


# --- substitution and conjuncts -----------------------------------------------


def substitute(node, mapping: Mapping[str, Expr]):
    """An expression or predicate with each attribute named in mapping
    replaced by its expression."""
    if isinstance(node, AttrRef):
        return mapping.get(node.name, node)
    return map_children(node, lambda child: substitute(child, mapping))


def _conjuncts(predicate: Predicate) -> list[Predicate]:
    if isinstance(predicate, LogicalAnd):
        return _conjuncts(predicate.left) + _conjuncts(predicate.right)
    return [predicate]


def _and_all(conjuncts: Sequence[Predicate]) -> Predicate:
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = LogicalAnd(combined, conjunct)
    return combined


# --- predicate pushdown --------------------------------------------------------


def push_down_selects(q: Query, env: Environment) -> Query:
    """Sink selections toward scans; single-side conjuncts cross joins."""
    if isinstance(q, Select):
        return _apply_conjuncts(push_down_selects(q.child, env), _conjuncts(q.predicate), env)
    return map_children(q, lambda child: push_down_selects(child, env))


def _apply_conjuncts(node: Query, conjuncts: list[Predicate], env: Environment) -> Query:
    if not conjuncts:
        return node
    if isinstance(node, Scan):
        return Select(node, _and_all(conjuncts))
    if isinstance(node, Select):
        return _apply_conjuncts(node.child, _conjuncts(node.predicate) + conjuncts, env)
    if isinstance(node, Join):
        left_names = set(infer_schema(node.left, env).attribute_names)
        right_names = set(infer_schema(node.right, env).attribute_names) - {
            right for _, right in node.pairs
        }
        to_left: list[Predicate] = []
        to_right: list[Predicate] = []
        staying: list[Predicate] = []
        for conjunct in conjuncts:
            attrs = predicate_attrs(conjunct)
            if attrs <= left_names:
                to_left.append(conjunct)
            elif attrs <= right_names:
                to_right.append(conjunct)
            else:
                staying.append(conjunct)
        joined = Join(
            _apply_conjuncts(node.left, to_left, env),
            _apply_conjuncts(node.right, to_right, env),
            node.pairs,
        )
        return Select(joined, _and_all(staying)) if staying else joined
    if isinstance(node, Project) and node.items is not None:
        mapping = {item.name: item.expr for item in node.items}
        conjuncts = [substitute(conjunct, mapping) for conjunct in conjuncts]
    elif isinstance(node, Rename):
        inverse = {new: AttrRef(old) for old, new in node.mapping}
        conjuncts = [substitute(conjunct, inverse) for conjunct in conjuncts]
    # Star projections and unions pass the conjuncts on unchanged.
    return map_children(node, lambda child: _apply_conjuncts(child, conjuncts, env))


# --- flattening into the textual grammar ----------------------------------------


class Unflattenable(Exception):
    """The fragment has no equivalent single SELECT block list."""


@dataclass
class _Block:
    """One grammar block under construction.

    `items` express the block's outputs over *surviving* source attributes
    (never over attributes a join step has dropped); `joins` hold the
    left-deep JOIN chain after the base scan.
    """

    base: Scan
    joins: list[tuple[Scan, list[tuple[str, str]]]]
    predicate: Predicate | None
    items: list[ProjectItem]

    def item_map(self) -> dict[str, Expr]:
        return {item.name: item.expr for item in self.items}


def _flatten(node: Query, env: Environment) -> list[_Block]:
    if isinstance(node, Scan):
        schema = infer_schema(node, env)
        items = [ProjectItem(AttrRef(name), name) for name in schema.attribute_names]
        return [_Block(node, [], None, items)]
    if isinstance(node, Project):
        blocks = _flatten(node.child, env)
        if node.items is None:
            return blocks
        for block in blocks:
            mapping = block.item_map()
            block.items = [
                ProjectItem(substitute(item.expr, mapping), item.name) for item in node.items
            ]
        return blocks
    if isinstance(node, Select):
        blocks = _flatten(node.child, env)
        for block in blocks:
            mapped = substitute(node.predicate, block.item_map())
            block.predicate = (
                mapped if block.predicate is None else LogicalAnd(block.predicate, mapped)
            )
        return blocks
    if isinstance(node, Rename):
        blocks = _flatten(node.child, env)
        mapping = node.mapping_dict
        for block in blocks:
            block.items = [
                ProjectItem(item.expr, mapping.get(item.name, item.name)) for item in block.items
            ]
        return blocks
    if isinstance(node, Union):
        return _flatten(node.left, env) + _flatten(node.right, env)
    if isinstance(node, Join):
        combined: list[_Block] = []
        for left_block in _flatten(node.left, env):
            for right_block in _flatten(node.right, env):
                combined.append(_combine_join(left_block, right_block, node.pairs, env))
        return combined
    raise TypeError(f"unknown query node {type(node).__name__}")


def _combine_join(
    left: _Block,
    right: _Block,
    pairs: Iterable[tuple[str, str]],
    env: Environment,
) -> _Block:
    """Merge two blocks joined on output-name pairs into one block.

    Join pairs must bottom out in plain source attributes on both sides;
    computed join keys (hash etc.) cannot appear in an ON clause. Right
    source attributes dropped by a join step are substituted by their left
    counterparts everywhere downstream; the values agree on surviving rows.
    """
    left_map, right_map = left.item_map(), right.item_map()
    right_steps = [right.base] + [scan for scan, _ in right.joins]
    substitution: dict[str, Expr] = {}
    dropped_outputs: set[str] = set()
    step_pairs: list[list[tuple[str, str]]] = [[] for _ in right_steps]
    for pair_left, pair_right in pairs:
        left_expr = left_map.get(pair_left)
        right_expr = right_map.get(pair_right)
        if not isinstance(left_expr, AttrRef) or not isinstance(right_expr, AttrRef):
            raise Unflattenable("join key is a computed expression")
        dropped_outputs.add(pair_right)
        substitution[right_expr.name] = left_expr
        for step_index, scan in enumerate(right_steps):
            if right_expr.name in _scan_attr_names(scan, env):
                step_pairs[step_index].append((left_expr.name, right_expr.name))
                break
        else:
            raise Unflattenable(f"join key {right_expr.name!r} not found in right fragment")
    if not step_pairs[0]:
        # The right fragment's base scan would join without an ON pair, and
        # the grammar cannot express a cross join.
        raise Unflattenable("right fragment base scan has no join pair")

    joins = list(left.joins)
    joins.append((right.base, step_pairs[0]))
    for step_index in range(1, len(right_steps)):
        scan = right_steps[step_index]
        original = right.joins[step_index - 1][1]
        rewritten = [(_subst_attr(l, substitution), r) for l, r in original]
        joins.append((scan, rewritten + step_pairs[step_index]))

    items = list(left.items)
    for item in right.items:
        if item.name in dropped_outputs:
            continue
        items.append(ProjectItem(substitute(item.expr, substitution), item.name))
    predicate = left.predicate
    if right.predicate is not None:
        mapped = substitute(right.predicate, substitution)
        predicate = mapped if predicate is None else LogicalAnd(predicate, mapped)
    return _Block(left.base, joins, predicate, items)


def _subst_attr(name: str, substitution: Mapping[str, Expr]) -> str:
    replaced = substitution.get(name)
    if replaced is None:
        return name
    if not isinstance(replaced, AttrRef):
        raise Unflattenable("join key substituted by a computed expression")
    return replaced.name


def _scan_attr_names(scan: Scan, env: Environment) -> set[str]:
    schema = env.get(scan.name)
    if schema is None:
        raise Unflattenable(f"unknown relation {scan.name}")
    return set(schema.attribute_names)


def _block_query(block: _Block) -> Query:
    node: Query = block.base
    for scan, pairs in block.joins:
        if not pairs:
            raise Unflattenable("join step without ON pairs")
        node = Join(node, scan, pairs)
    if block.predicate is not None:
        node = Select(node, block.predicate)
    return Project(node, block.items)


def flatten_query(q: Query, env: Environment) -> Query:
    """Rewrite q into the grammar-expressible shape, or raise Unflattenable."""
    blocks = _flatten(q, env)
    flat: Query = _block_query(blocks[-1])
    for block in reversed(blocks[:-1]):
        flat = Union(_block_query(block), flat)
    try:
        original = infer_schema(q, env)
        rewritten = infer_schema(flat, env)
    except TypeCheckError as exc:
        # e.g. colliding source attribute names once projections are hoisted
        raise Unflattenable(str(exc)) from None
    if original.attribute_names != rewritten.attribute_names or [
        a.data_type for a in original.attributes
    ] != [a.data_type for a in rewritten.attributes]:
        raise Unflattenable("flattened fragment changes the output schema")
    return flat


# --- fetch/residual splitting ----------------------------------------------------


def _intermediate_namespace(env: Environment, placement: Placement) -> str:
    taken = {qname.namespace for qname in env} | placement.namespaces
    candidate = "fetched"
    serial = 0
    while candidate in taken:
        candidate = f"fetched{serial}"
        serial += 1
    return candidate


def plan(
    q: Query,
    views: Sequence[ViewDeclaration],
    placement: Placement,
    env: Environment,
    push_predicates: bool = True,
) -> ExecutionPlan:
    """Plan q (posed over views and/or base relations) for distributed execution.

    `push_predicates=False` skips predicate pushdown; the differential tests
    compare both forms.
    """
    unfolded = unfold(q, views)
    for namespace in sorted(namespaces(unfolded)):
        if namespace not in placement.namespaces:
            raise ConfigError(f"namespace {namespace!r} has no binding")
    sunk = push_down_selects(unfolded, env) if push_predicates else unfolded
    inter_ns = _intermediate_namespace(env, placement)
    steps: list[FetchStep] = []

    def split(node: Query) -> Query:
        node_namespaces = namespaces(node)
        if len(node_namespaces) == 1 and not contains_hash_call(node):
            try:
                flat = flatten_query(node, env)
            except Unflattenable:
                flat = None
            if flat is not None:
                intermediate = QualifiedName(inter_ns, f"f{len(steps)}")
                steps.append(FetchStep(next(iter(node_namespaces)), flat, intermediate))
                return Scan(intermediate)
        if isinstance(node, Scan):
            # Single-relation scans always flatten; reaching here means the
            # namespace itself was unplannable, which the check above rejects.
            raise ConfigError(f"cannot push scan of {node.name}")
        return map_children(node, split)

    residual = split(sunk)

    # Planner self-check: the residual must type out to the same shape as the
    # unfolded query.
    residual_env = {
        step.intermediate: infer_schema(step.query, env).rename(step.intermediate.relation)
        for step in steps
    }
    expected = infer_schema(unfolded, env)
    got = infer_schema(residual, residual_env)
    if expected.attribute_names != got.attribute_names or [
        a.data_type for a in expected.attributes
    ] != [a.data_type for a in got.attributes]:
        raise ConfigError("planner produced a plan with a different schema")
    return ExecutionPlan(tuple(steps), residual)


def execute_plan(
    exec_plan: ExecutionPlan,
    fetch: Callable[[FetchStep], Table],
    salt: str = "",
) -> Table:
    """Run fetch steps in order, then the residual locally."""
    db: dict[QualifiedName, Table] = {}
    for step in exec_plan.fetches:
        table = fetch(step)
        db[step.intermediate] = Table(
            table.schema.rename(step.intermediate.relation), table.rows
        )
    return evaluate(exec_plan.residual, db, salt)
