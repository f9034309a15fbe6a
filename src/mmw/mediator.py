"""The mediator component: transform and integrate downstream components.

A mediator binds downstream components under local aliases, declares views
over them, serves the derived product schema under its product name, and
executes queries by unfolding, planning and fetching.

The mediator's epoch token is its own nonce and configuration generation
followed by the token of each downstream in sorted alias order. Tokens never
repeat across instances, so a change to any downstream, a reconfiguration
or a downstream restarted in place gives a token never seen before.

One `mmw.kept.Kept` store of at most `cache_capacity` slots (0 turns it
off) keeps four kinds of slot, each as (token, value) under a key tagged
with its kind. A result, fetch or join slot counts its table's cells
(rows times attributes, plus a row's worth per column a selection has
indexed) toward `CACHE_CELLS`, least recently used first out, and a table
of more than an eighth of it is served but not kept; a plan slot counts
none.
A request's tokens come from one scoped `epoch()` probe: its own token,
then, for each alias the plan fetches from, that downstream's token scoped
to the relations its fetches read (the plan's reads), so a request probes
no other downstream and no other relation:
- a result: key ("result", canonical query text), token the scoped
  mediator token, value the answer and the reads it was probed over, so
  a result hit probes those reads and plans nothing;
- a plan: key ("plan", the query with its literals lifted into typed
  placeholders), token the configuration generation, value the plan of the
  lifted query, into which each request binds its own literals, with the
  translated query of each fetch that holds no placeholder, which keeps its
  canonical text once rendered, so a request re-translates and re-renders
  only the fetches its own literals reach, the plan's reads and the result
  schema;
- a fetch: key ("fetch", alias, canonical text of the translated fetch
  query), token that downstream's scoped token, value the fetched table;
- a join: key ("join", the plan's join step, the fetch keys of its inputs),
  token the tuple of those fetches' downstream tokens, value the joined
  table.
A slot is served only while its kept token equals the one just read; a
miss replaces the slot in place. A wrapper's scoped token names its
relations, so equal tokens cover the same relations unchanged, and one
configuration generation plans a text one way, so a result's kept reads
are the reads of its plan. The token is read before the fetch it keys,
so a change between the two costs one extra miss, never a stale answer.
A change to a relation a result does not read leaves it a hit. Errors are
never kept. So a result miss re-plans nothing while
the configuration stands, and re-joins nothing while its inputs' sources
stand: it binds its literals and runs the residual selection, which
answers `attr = literal` terms from an index kept on the join's table
(`mmw.query.execute`).

A lifted query types as its bound query does, so neither a result hit nor
a plan-slot hit type-checks: `infer_schema` runs on the real query only on
a plan-slot miss, before the miss is counted, so an ill-typed query fails
with its own error, counts no miss and keeps no slot, or on every request
when caching is off. The lifted query comes kept on the tree when an
endpoint bound it from a kept shape (`mmw.runtime.protocol.QueryMemo`), and
a plan key's hash is worked out once per lifted tree.

Downstream bindings are fetched once at configure time; schema changes
require an explicit reconfiguration, which bumps the mediator's epoch.
A configuration (views, environments, product schema, version, metadata and
generation) is one frozen object installed by a single assignment, and each
request reads it once, so a request never mixes two configurations. A
reconfiguration leaves the cache alone: result and plan slots hold the
generation in their token, and fetch and join slots do not depend on the
views.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import Counter
from itertools import repeat
from typing import Mapping, Optional, Sequence, Union as TypingUnion

from mmw.component import ComponentBase, LineageNode, canonical_query_text
from mmw.errors import ConfigError, MeshError, UnavailableError, UnknownRelationError
from mmw.kept import Kept
from mmw.planner import (
    ExecutionPlan,
    FetchStep,
    bind_literals,
    execute_plan,
    lift_literals,
    plan,
)
from mmw.query.ast import QualifiedName, Query, rewrite_namespaces, scan_names
from mmw.query.execute import indexed_columns
from mmw.query.infer import infer_schema
from mmw.relational import ProductSchema, RelationSchema, Table, is_identifier
from mmw.views import ViewDeclaration, ViewMap, derive_global_schema, parse_view_source, unfold

ViewInput = TypingUnion[str, ViewDeclaration]
# Each alias a plan fetches from, in sorted order, with the sorted names of
# the relations its fetches scan.
Reads = tuple[tuple[str, tuple[str, ...]], ...]

# Table cells a mediator's result, fetch and join slots hold in all, beside
# the `cache_capacity` bound on their number; a table of more than an eighth
# of it is served but not kept. A decoded table takes about 180 bytes per
# cell and 260 with its response line kept (tracemalloc, 150- and 200-row
# files). An index a selection keeps on a table (`mmw.query.execute`) takes
# 90-225 bytes per cell of the column it indexes when payloads are distinct
# (integers least, timestamps most) and 13 for a column of four values
# (tracemalloc, the 150-row join of the federate_cold workload), so each
# indexed column counts one more cell per row. Full slots hold about 17 MB.
# A round of a benchmark workload keeps at most 2 300 cells, none over 900.
CACHE_CELLS = 1 << 16


def _cells(table: Table) -> int:
    """The size a slot holding `table` counts toward `CACHE_CELLS`: its rows
    times its attributes and its indexed columns."""
    return len(table.rows) * (len(table.schema.attributes) + indexed_columns(table))


class _PlanKey(tuple):
    """A plan slot's key, ("plan", the lifted query). A tree does not keep
    its hash, and a deep one takes microseconds to hash, so the key's hash
    is worked out once per lifted tree and kept on it, outside its fields;
    an endpoint's kept shape shares one lifted tree among all its texts."""

    __slots__ = ()

    def __new__(cls, lifted: Query):
        return super().__new__(cls, ("plan", lifted))

    def __hash__(self) -> int:
        kept = vars(self[1])
        if "_plan_hash" not in kept:
            kept["_plan_hash"] = tuple.__hash__(self)
        return kept["_plan_hash"]


def _reads(exec_plan: ExecutionPlan) -> Reads:
    """The relations each alias's fetches in the plan scan."""
    scanned: dict[str, set[str]] = {}
    for step in exec_plan.fetches:
        scanned.setdefault(step.namespace, set()).update(
            name.relation for name in scan_names(step.query)
        )
    return tuple((alias, tuple(sorted(scanned[alias]))) for alias in sorted(scanned))


@dataclasses.dataclass(frozen=True)
class _Configuration:
    views: tuple[ViewDeclaration, ...]
    # Each view by qualified name, built once: every plan unfolds through it.
    view_map: ViewMap
    base_env: Mapping[QualifiedName, RelationSchema]
    product_schema: ProductSchema
    product_env: Mapping[QualifiedName, RelationSchema]
    version: int
    metadata: Mapping[str, str]
    generation: int


class Mediator(ComponentBase):
    kind = "mediator"

    def __init__(
        self,
        component_id: str,
        product: str,
        downstream: Mapping[str, object],
        views: Sequence[ViewInput] = (),
        version: int = 1,
        metadata: Optional[Mapping[str, str]] = None,
        cache_capacity: int = 64,
        salt: str = "",
        deny_raw_identifying: bool = False,
    ):
        super().__init__(component_id)
        if not is_identifier(component_id) or not is_identifier(product):
            raise ConfigError("component id and product must be valid identifiers")
        if product in downstream:
            raise ConfigError(
                f"downstream alias {product!r} collides with the product namespace"
            )
        for alias in downstream:
            if not is_identifier(alias):
                raise ConfigError(f"downstream alias {alias!r} is not a valid identifier")
        self.product = product
        self.namespace = product  # views are exposed under the product name
        if type(cache_capacity) is not int or cache_capacity < 0:
            raise ConfigError(
                f"cache_capacity must be a non-negative integer, not {cache_capacity!r}"
            )
        if not isinstance(salt, str):
            raise ConfigError(f"salt must be text, not {salt!r}")
        self.downstream = dict(downstream)
        self._aliases = tuple(sorted(self.downstream))
        self.salt = salt
        self.deny_raw_identifying = deny_raw_identifying
        self.cache_capacity = cache_capacity
        # (kind, ...) -> (token, value); see the module docstring
        self._cache = Kept(cache_capacity, CACHE_CELLS, CACHE_CELLS // 8)
        self._slot_hits = {"plan": 0, "join": 0}
        self._configure_lock = threading.Lock()
        self._config: Optional[_Configuration] = None
        self._configure(views, version, dict(metadata or {}))

    # -- configuration ---------------------------------------------------------

    def _configure(
        self, views: Sequence[ViewInput], version: int, metadata: dict[str, str]
    ) -> None:
        """Derive the product from views, version and metadata and install it
        all together; on any error nothing changes. The caller holds
        `_configure_lock` or is the constructor."""
        declared: list[ViewDeclaration] = []
        for item in views:
            if isinstance(item, str):
                declared.extend(parse_view_source(item, self.product))
            else:
                if item.namespace != self.product:
                    item = dataclasses.replace(item, namespace=self.product)
                declared.append(item)
        env: dict[QualifiedName, RelationSchema] = {}
        for alias, binding in sorted(self.downstream.items()):
            try:
                downstream_product = binding.get_schema()
            except UnavailableError as exc:
                raise UnavailableError(
                    f"downstream {alias!r} unavailable during configuration: {exc.message}",
                    origin=getattr(binding, "component_id", alias),
                ) from None
            for relation in downstream_product.relations:
                env[QualifiedName(alias, relation.name)] = relation
        product = derive_global_schema(declared, env, self.product, version, metadata)
        if self.deny_raw_identifying:
            for relation in product.relations:
                for attr in relation.attributes:
                    if attr.identifying:
                        raise ConfigError(
                            f"view {relation.name!r} exposes identifying attribute "
                            f"{attr.name!r} raw; wrap it in hash() or redact()"
                        )
        self._config = _Configuration(
            views=tuple(declared),
            view_map={view.qualified: view for view in declared},
            base_env=env,
            product_schema=product,
            product_env={
                QualifiedName(self.product, relation.name): relation
                for relation in product.relations
            },
            version=version,
            metadata=metadata,
            generation=1 if self._config is None else self._config.generation + 1,
        )

    def reconfigure(
        self,
        views: Optional[Sequence[ViewInput]] = None,
        version: Optional[int] = None,
        metadata: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Replace views/version/metadata; bumps the epoch even when nothing
        downstream changed. A failed reconfiguration changes nothing."""
        with self._configure_lock:
            config = self._config
            self._configure(
                config.views if views is None else views,
                config.version if version is None else version,
                config.metadata if metadata is None else dict(metadata),
            )

    @property
    def version(self) -> int:
        return self._config.version

    @property
    def metadata(self) -> Mapping[str, str]:
        return self._config.metadata

    # -- serving ------------------------------------------------------------------

    def get_schema(self) -> ProductSchema:
        self._check_alive()
        return self._config.product_schema

    def epoch(
        self,
        relations: Optional[Sequence[str]] = None,
        config: Optional[_Configuration] = None,
        reads: Optional[Reads] = None,
    ) -> tuple:
        """(own token at the generation of `config`, by default the installed
        configuration, then downstream tokens in sorted alias order). An
        upstream's `relations` scope is answered with this full token, which
        moves whenever any part of it moves, so it is always safe. `reads`,
        as a plan slot records them, probes only its aliases, each scoped
        to the relations its fetches read."""
        self._check_alive()
        tokens = [self._token((config or self._config).generation)]
        for alias, scope in zip(self._aliases, repeat(None)) if reads is None else reads:
            binding = self.downstream[alias]
            try:
                tokens.append(binding.epoch(scope))
            except UnavailableError as exc:
                raise UnavailableError(
                    f"downstream {alias!r} unavailable: {exc.message}",
                    origin=exc.origin or getattr(binding, "component_id", alias),
                ) from None
        return tuple(tokens)

    def execute(self, q: Query, principal: str = "") -> Table:
        return self._serve_request(q, principal, lambda: self._answer(q))

    def _answer(self, q: Query) -> tuple[Table, int, bool]:
        config = self._config
        caching = self.cache_capacity > 0
        # A query with no textual form has no result key, so it always misses.
        query_text = canonical_query_text(q) if caching else None
        key = None if query_text is None else ("result", query_text)
        # A kept result is probed over the reads kept beside it, so a hit
        # plans nothing and type-checks nothing.
        token = reads = None
        slot = self._cache.get(key) if key is not None else None
        if slot is not None:
            kept_token, (kept, reads) = slot
            token = self.epoch(config=config, reads=reads)
            if kept_token == token:
                self._count_cache(True)
                return kept, len(kept.rows), True
        # A lifted query types as its bound query does, so the plan slot of
        # q's shape keeps the result schema. Only a shape this configuration
        # has not planned is type-checked, and an ill-typed query fails
        # there, before it counts a miss.
        lifted, values = lift_literals(q) if caching else (None, ())
        plan_key = _PlanKey(lifted) if caching else None
        prepared = self._kept(plan_key, config.generation)
        if prepared is None:
            result_schema = infer_schema(q, config.product_env)
        self._count_cache(False)
        if prepared is None:
            prepared = self._prepare(q, lifted, plan_key, config, result_schema)
        exec_plan, fixed_fetches, plan_reads, result_schema = prepared
        exec_plan = bind_literals(exec_plan, values)
        if caching and plan_reads != reads:
            reads = plan_reads
            token = self.epoch(config=config, reads=reads)

        downstream_tokens = {alias: t for (alias, _), t in zip(reads, token[1:])} if caching else {}
        fetch_keys: dict[QualifiedName, Optional[tuple]] = {}
        # (key, token, table, its cells) of each fetch and join slot used
        kept_tables: list[tuple[tuple, object, Table, int]] = []

        def fetch(step):
            alias = step.namespace
            translated = fixed_fetches.get(step.intermediate) or self._translate(step)
            fetch_text = canonical_query_text(translated) if caching else None
            slot = None if fetch_text is None else ("fetch", alias, fetch_text)
            fetch_keys[step.intermediate] = slot
            downstream_token = downstream_tokens.get(alias)
            table = self._kept(slot, downstream_token)
            if table is None:
                table = self.downstream[alias].execute(translated, self.component_id)
                self._keep(slot, downstream_token, table, _cells(table))
            if slot is not None:
                kept_tables.append((slot, downstream_token, table, _cells(table)))
            return table

        def join(step, compute):
            inputs = tuple(fetch_keys[name] for name in step.inputs)
            if None in inputs:
                return compute()
            slot = ("join", step.query, inputs)
            join_token = tuple(downstream_tokens[fetch_key[1]] for fetch_key in inputs)
            table = self._kept(slot, join_token)
            if table is None:
                table = compute()
                self._keep(slot, join_token, table, _cells(table))
            kept_tables.append((slot, join_token, table, _cells(table)))
            return table

        # Client-facing schema comes from inference against the product
        # environment, not from plan internals.
        result = execute_plan(exec_plan, fetch, self.salt, join, result_schema)
        # The residual may have indexed a kept table: its slot is put again
        # at its new size. The pair was kept together, so putting it back
        # over a newer one costs at most a miss, never a stale answer.
        for slot, slot_token, table, cells in kept_tables:
            if _cells(table) != cells:
                self._keep(slot, slot_token, table, _cells(table))
        self._keep(key, token, (result, reads), _cells(result))
        return result, len(result.rows), False

    def _translate(self, step: FetchStep) -> Query:
        """The query of a fetch step in its downstream's own namespace."""
        alias = step.namespace
        remote_namespace = getattr(self.downstream[alias], "namespace", alias)
        return rewrite_namespaces(step.query, {alias: remote_namespace})

    def _prepare(
        self,
        q: Query,
        lifted: Optional[Query],
        key: Optional[tuple],
        config: _Configuration,
        result_schema: RelationSchema,
    ) -> tuple[ExecutionPlan, Mapping[QualifiedName, Query], Reads, RelationSchema]:
        """What the plan slot under key keeps for q's shape, planned into it:
        the plan of the `lifted` query, into which each request binds its
        literals, the `_translate` of each fetch that holds no placeholder,
        by intermediate name, the plan's `_reads` and the result schema.
        With no key (caching off), q planned afresh."""
        views, bound, env = config.view_map, self.downstream.keys(), config.base_env
        if key is None:
            return plan(q, views, bound, env), {}, (), result_schema
        try:
            prepared = plan(lifted, views, bound, env)
        except MeshError:
            # Planning reads no literal value, so this fails again; the
            # real query gives the error its own text.
            exec_plan = plan(q, views, bound, env)
            return exec_plan, {}, _reads(exec_plan), result_schema
        kept = prepared, {
            step.intermediate: self._translate(step)
            for step in prepared.fetches
            if not step.holds_placeholder
        }, _reads(prepared), result_schema
        self._keep(key, config.generation, kept)
        return kept

    def _kept(self, key, token):
        """The value kept under key while its token equals `token`, else None."""
        slot = None if key is None else self._cache.get(key)
        if slot is None or slot[0] != token:
            return None
        if key[0] in self._slot_hits:
            with self._lock:
                self._slot_hits[key[0]] += 1
        return slot[1]

    def _keep(self, key, token, value, cells: int = 0) -> None:
        """Replace key's slot as the most recent, sized by the cells of the
        table it holds (a plan holds none), evicting beyond the bounds."""
        if key is not None:
            self._cache.put(key, (token, value), cells)

    # -- lineage --------------------------------------------------------------------

    def lineage(self, relation: str) -> LineageNode:
        self._check_alive()
        config = self._config
        view = config.view_map.get(QualifiedName(self.product, relation))
        if view is None:
            raise UnknownRelationError(
                f"unknown relation {relation!r} (declared views: "
                f"{sorted(name.relation for name in config.view_map)})",
                origin=self.component_id,
            )
        unfolded = unfold(view.body, config.view_map)
        children: list[LineageNode] = []
        seen: set[QualifiedName] = set()
        for name in scan_names(unfolded):
            if name in seen:
                continue
            seen.add(name)
            binding = self.downstream.get(name.namespace)
            if binding is None:
                raise ConfigError(f"namespace {name.namespace!r} has no binding")
            child = binding.lineage(name.relation)
            children.append(dataclasses.replace(child, via_view=view.name))
        return LineageNode(
            self.component_id, "mediator", relation, children=tuple(children)
        )

    # -- cache introspection (monitoring only) ---------------------------------------

    def cache_info(self) -> dict[str, int]:
        """Slots held by kind (`entries` counts results), all counting toward
        capacity, and the hits on plan and join slots so far."""
        held = Counter(key[0] for key in self._cache.keys())
        return {
            "entries": held["result"],
            "fetch_slots": held["fetch"],
            "plan_slots": held["plan"],
            "join_slots": held["join"],
            "capacity": self.cache_capacity,
            "plan_hits": self._slot_hits["plan"],
            "join_hits": self._slot_hits["join"],
        }
