"""Cross-component execution planning.

A plan makes one fetch per relation, carrying the selections and projections
that sit directly over it to the owning component; joins, unions and `hash()`
(which must run under the planning component's own salt) run in the
residual, which is evaluated locally. Fetch queries are re-expressed
in the textual grammar (selects merged, projections composed) so they can
travel over the wire.

Selections are sunk below joins first (predicate pushdown) so single-side
filters end up inside the owning component's fetch. Pushdown is best-effort
and correctness-checked, never cost-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Callable, Mapping, Sequence

from mmw.errors import ConfigError, TypeCheckError, UnknownRelationError
from mmw.relational import RelationSchema, Table
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
    # Star projections and unions pass the conjuncts on unchanged.
    return map_children(node, lambda child: _apply_conjuncts(child, conjuncts, env))


# --- flattening into the textual grammar ----------------------------------------


class Unflattenable(Exception):
    """The fragment is not one relation under selections and projections, so
    it has no equivalent single SELECT block."""


def _flatten(node: Query, env: Environment) -> tuple[Scan, Predicate | None, list[ProjectItem]]:
    """The scan, the merged predicate over its attributes, and the output
    items expressed over its attributes."""
    if isinstance(node, Scan):
        schema = env.get(node.name)
        if schema is None:
            raise UnknownRelationError(f"$: unknown relation {node.name}")
        return node, None, [ProjectItem(AttrRef(name), name) for name in schema.attribute_names]
    if isinstance(node, (Join, Union)):
        raise Unflattenable(f"a fetch scans one relation, not a {type(node).__name__}")
    scan, predicate, items = _flatten(node.child, env)
    mapping = {item.name: item.expr for item in items}
    if isinstance(node, Select):
        mapped = substitute(node.predicate, mapping)
        predicate = mapped if predicate is None else LogicalAnd(predicate, mapped)
    elif isinstance(node, Project) and node.items is not None:
        items = [ProjectItem(substitute(item.expr, mapping), item.name) for item in node.items]
    return scan, predicate, items


def _same_shape(a: RelationSchema, b: RelationSchema) -> bool:
    """Same attribute names with the same kinds, in the same order."""
    return [(attr.name, attr.data_type) for attr in a.attributes] == [
        (attr.name, attr.data_type) for attr in b.attributes
    ]


def flatten_query(q: Query, env: Environment) -> tuple[Query, RelationSchema]:
    """Rewrite a chain of selections and projections over one scan into one
    grammar block `SELECT items FROM ns.rel WHERE pred` and return it with its
    schema, or raise Unflattenable."""
    scan, predicate, items = _flatten(q, env)
    flat = Project(scan if predicate is None else Select(scan, predicate), items)
    try:
        original = infer_schema(q, env)
        schema = infer_schema(flat, env)
    except TypeCheckError as exc:
        # e.g. colliding source attribute names once projections are hoisted
        raise Unflattenable(str(exc)) from None
    if not _same_shape(original, schema):
        raise Unflattenable("flattened fragment changes the output schema")
    return flat, schema


# --- fetch/residual splitting ----------------------------------------------------


def _intermediate_namespace(env: Environment, bound: AbstractSet[str]) -> str:
    taken = {qname.namespace for qname in env} | bound
    candidate = "fetched"
    serial = 0
    while candidate in taken:
        candidate = f"fetched{serial}"
        serial += 1
    return candidate


# Module-level rather than a closure, for the reason views._expand is.
def _split(
    node: Query,
    env: Environment,
    inter_ns: str,
    steps: list[FetchStep],
    residual_env: dict[QualifiedName, RelationSchema],
) -> Query:
    """node with each maximal fragment that one component can answer made a
    fetch: appended to `steps`, typed in `residual_env`, and scanned under
    its intermediate name in the returned residual."""
    node_namespaces = namespaces(node)
    if len(node_namespaces) == 1 and not contains_hash_call(node):
        try:
            flat, schema = flatten_query(node, env)
        except Unflattenable:
            pass
        else:
            intermediate = QualifiedName(inter_ns, f"f{len(steps)}")
            steps.append(FetchStep(next(iter(node_namespaces)), flat, intermediate))
            residual_env[intermediate] = schema
            return Scan(intermediate)
    if isinstance(node, Scan):
        # A scan flattens unless its schema is malformed, as with a
        # repeated attribute name.
        raise ConfigError(f"cannot push scan of {node.name}")
    return map_children(node, lambda child: _split(child, env, inter_ns, steps, residual_env))


def plan(
    q: Query,
    views: Sequence[ViewDeclaration],
    bound: AbstractSet[str],
    env: Environment,
    push_predicates: bool = True,
) -> ExecutionPlan:
    """Plan q (posed over views and/or base relations) for distributed execution
    over the downstream aliases in `bound`.

    `push_predicates=False` skips predicate pushdown; the differential tests
    compare both forms.
    """
    unfolded = unfold(q, views)
    for namespace in sorted(namespaces(unfolded)):
        if namespace not in bound:
            raise ConfigError(f"namespace {namespace!r} has no binding")
    sunk = push_down_selects(unfolded, env) if push_predicates else unfolded
    steps: list[FetchStep] = []
    residual_env: dict[QualifiedName, RelationSchema] = {}
    residual = _split(sunk, env, _intermediate_namespace(env, bound), steps, residual_env)

    # Planner self-check: the residual must type out to the same shape as the
    # unfolded query.
    if not _same_shape(infer_schema(unfolded, env), infer_schema(residual, residual_env)):
        raise ConfigError("planner produced a plan with a different schema")
    return ExecutionPlan(tuple(steps), residual)


def execute_plan(
    exec_plan: ExecutionPlan,
    fetch: Callable[[FetchStep], Table],
    salt: str = "",
) -> Table:
    """Run fetch steps in order, then the residual locally; the residual's
    scans name each fetched table after its intermediate relation."""
    db: dict[QualifiedName, Table] = {}
    for step in exec_plan.fetches:
        db[step.intermediate] = fetch(step)
    return evaluate(exec_plan.residual, db, salt)
