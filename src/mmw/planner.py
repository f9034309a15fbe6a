"""Cross-component execution planning.

A plan makes one fetch per relation, carrying the selections and projections
that sit directly over it to the owning component; joins, unions and `hash()`
(which must run under the planning component's own salt) run in the
residual, which is evaluated locally. Fetch queries are re-expressed
in the textual grammar (selects merged, projections composed) so they can
travel over the wire.

A join or union whose inputs are all fetches becomes a join step: it is
evaluated over the fetched tables into its own intermediate relation, which
the residual then scans. Its table depends only on those fetches, never on
the selections above it, so a caller may keep it for as long as it keeps
them (`execute_plan`'s `join`). A projection that only repeats the one
below it (a query's select list over a view of the same columns) is
dropped.

Selections are sunk below joins first (predicate pushdown) so single-side
filters end up inside the owning component's fetch. Pushdown is best-effort
and correctness-checked, never cost-based.

Planning reads the kind of a literal, never its value, so a caller may plan
a query once per shape: `lift_literals` replaces each literal by a
placeholder of the same kind, and `bind_literals` puts the values back into
the plan of the lifted query. A fetch with no placeholder in its query is
the same for every binding, so `bind_literals` hands it back as it is and a
caller may keep what it derives from one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Callable, Mapping, Sequence

from mmw.errors import ConfigError, TypeCheckError, UnknownRelationError
from mmw.relational import RelationSchema, Table, Value
from mmw.query.ast import (
    AttrRef,
    Expr,
    Join,
    Literal,
    LogicalAnd,
    Predicate,
    Project,
    ProjectItem,
    QualifiedName,
    Query,
    Scan,
    Select,
    Union,
    any_node,
    children,
    contains_hash_call,
    map_children,
    namespaces,
    predicate_attrs,
    scan_names,
)
from mmw.query.infer import Environment, infer_schema
# Bound as `evaluate`: meshbench/tracing.py patches the module's `evaluate`.
from mmw.query.execute import execute as evaluate
from mmw.views import ViewDeclaration, ViewMap, unfold


@dataclass(frozen=True)
class FetchStep:
    namespace: str
    query: Query  # grammar-shaped, references only `namespace`
    intermediate: QualifiedName

    @cached_property
    def holds_placeholder(self) -> bool:
        """True if a literal of the query, predicates and projection items
        included, is a placeholder; worked out once per step, as a kept plan
        is bound many times."""
        return any_node(
            self.query,
            lambda node: isinstance(node, Literal) and isinstance(node.value.payload, Placeholder),
        )


@dataclass(frozen=True)
class JoinStep:
    query: Query  # a Join or Union of two fetch scans
    intermediate: QualifiedName


@dataclass(frozen=True)
class ExecutionPlan:
    fetches: tuple[FetchStep, ...]
    joins: tuple[JoinStep, ...]
    residual: Query


# --- literal placeholders ------------------------------------------------------


@dataclass(frozen=True)
class Placeholder:
    """The payload of a lifted literal: the position of its value."""

    index: int


def _map_literals(node, fn):
    """node with fn applied to every literal of its tree, including those of
    selection predicates and projection items."""
    if isinstance(node, Literal):
        return fn(node)
    if isinstance(node, Select):
        return Select(_map_literals(node.child, fn), _map_literals(node.predicate, fn))
    if isinstance(node, Project) and node.items is not None:
        items = [ProjectItem(_map_literals(item.expr, fn), item.name) for item in node.items]
        return Project(_map_literals(node.child, fn), items)
    return map_children(node, lambda child: _map_literals(child, fn))


def lift_literals(q: Query) -> tuple[Query, tuple[Value, ...]]:
    """q with each literal replaced by a placeholder of the same kind, and
    the literal values in placeholder order."""
    values: list[Value] = []

    def lift(literal: Literal) -> Literal:
        values.append(literal.value)
        return Literal(Value(literal.value.kind, Placeholder(len(values) - 1)))

    return _map_literals(q, lift), tuple(values)


def bind_literals(exec_plan: ExecutionPlan, values: tuple[Value, ...]) -> ExecutionPlan:
    """The plan of a lifted query with its placeholders bound to `values`;
    literals that came from view bodies are left as they are, and so is
    each fetch step whose query holds no placeholder."""
    if not values:
        return exec_plan

    def bind(literal: Literal) -> Literal:
        payload = literal.value.payload
        return Literal(values[payload.index]) if isinstance(payload, Placeholder) else literal

    return ExecutionPlan(
        tuple(
            FetchStep(step.namespace, _map_literals(step.query, bind), step.intermediate)
            if step.holds_placeholder
            else step
            for step in exec_plan.fetches
        ),
        exec_plan.joins,
        _map_literals(exec_plan.residual, bind),
    )


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
    joins: list[JoinStep],
    residual_env: dict[QualifiedName, RelationSchema],
) -> Query:
    """node with each maximal fragment that one component can answer made a
    fetch, appended to `steps` and typed in `residual_env`, and each join or
    union of two fetches made a join step, appended to `joins`; the returned
    residual scans each under its intermediate name."""
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
    split = map_children(
        node, lambda child: _split(child, env, inter_ns, steps, joins, residual_env)
    )
    fetched = {step.intermediate for step in steps}
    if isinstance(split, (Join, Union)) and all(
        isinstance(child, Scan) and child.name in fetched for child in children(split)
    ):
        intermediate = QualifiedName(inter_ns, f"j{len(joins)}")
        joins.append(JoinStep(split, intermediate))
        return Scan(intermediate)
    return split


def _drop_repeated_projects(q: Query) -> Query:
    """q without each projection whose items only name, in order, the
    outputs of the projection directly below it."""
    q = map_children(q, _drop_repeated_projects)
    if (
        isinstance(q, Project)
        and isinstance(q.child, Project)
        and q.items is not None
        and q.child.items is not None
        and q.items == tuple(ProjectItem(AttrRef(item.name), item.name) for item in q.child.items)
    ):
        return q.child
    return q


def plan(
    q: Query,
    views: Sequence[ViewDeclaration] | ViewMap,
    bound: AbstractSet[str],
    env: Environment,
    push_predicates: bool = True,
) -> ExecutionPlan:
    """Plan q (posed over views and/or base relations) for distributed execution
    over the downstream aliases in `bound`. `views` are taken as
    `views.unfold` takes them: a mediator passes its configuration's map.

    `push_predicates=False` skips predicate pushdown; the differential tests
    compare both forms.
    """
    unfolded = unfold(q, views)
    for namespace in sorted(namespaces(unfolded)):
        if namespace not in bound:
            raise ConfigError(f"namespace {namespace!r} has no binding")
    sunk = push_down_selects(unfolded, env) if push_predicates else unfolded
    steps: list[FetchStep] = []
    joins: list[JoinStep] = []
    residual_env: dict[QualifiedName, RelationSchema] = {}
    residual = _split(
        _drop_repeated_projects(sunk),
        env,
        _intermediate_namespace(env, bound),
        steps,
        joins,
        residual_env,
    )

    # Planner self-check: the residual must type out to the same shape as the
    # unfolded query. The unfolded query is typed first, so an ill-typed one
    # fails with the path of its own offending node.
    expected = infer_schema(unfolded, env)
    for step in joins:
        residual_env[step.intermediate] = infer_schema(step.query, residual_env)
    if not _same_shape(expected, infer_schema(residual, residual_env)):
        raise ConfigError("planner produced a plan with a different schema")
    return ExecutionPlan(tuple(steps), tuple(joins), residual)


def execute_plan(
    exec_plan: ExecutionPlan,
    fetch: Callable[[FetchStep], Table],
    salt: str = "",
    join: Callable[[JoinStep, Callable[[], Table]], Table] = lambda step, compute: compute(),
) -> Table:
    """Run fetch steps in order, then join steps, then the residual locally;
    the residual's scans name each table after its intermediate relation.
    `join(step, compute)` gives a join step's table, where `compute()`
    evaluates it over the fetched tables."""
    db: dict[QualifiedName, Table] = {}
    for step in exec_plan.fetches:
        db[step.intermediate] = fetch(step)
    for step in exec_plan.joins:
        # Each fetch is scanned once, here or in the residual.
        inputs = {name: db.pop(name) for name in scan_names(step.query)}
        db[step.intermediate] = join(step, lambda: evaluate(step.query, inputs))
    return evaluate(exec_plan.residual, db, salt)
