"""The wrapper component: one data source behind the universal interface.

A wrapper answers schema and query requests for exactly one source and is a
standalone quantum: it configures and serves with no other component
present. Each execute loads every relation the query scans once, as one
consistent snapshot, type-checks the query against the schemas of that
snapshot and evaluates it over the same rows with selections pushed below
joins. A relation scanned once under a selection, the shape of every
mediator fetch, is loaded with that selection's predicate, so a file adapter
may skip decoding the rows it rules out; the query still applies the
selection itself. The adapter's load decides whether a relation exists; the
query path never lists the whole source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from mmw.adapters import SourceAdapter
from mmw.component import ComponentBase, LineageNode
from mmw.errors import ConfigError, UnknownRelationError
from mmw.relational import ProductSchema, Table, is_identifier
from mmw.query.ast import Predicate, QualifiedName, Query, Scan, Select, children, namespaces
# Bound as `evaluate`: meshbench/tracing.py patches the module's `evaluate`.
from mmw.query.execute import execute as evaluate
from mmw.query.infer import infer_schema
from mmw.planner import push_down_selects


@dataclass(frozen=True)
class WrapperConfig:
    component_id: str
    namespace: str
    adapter: SourceAdapter
    salt: str = ""

    def __post_init__(self):
        for name in (self.component_id, self.namespace):
            if not is_identifier(name):
                raise ConfigError(f"{name!r} is not a valid identifier")
        if not isinstance(self.salt, str):
            raise ConfigError(f"salt must be text, not {self.salt!r}")


def _scan_selections(q: Query) -> dict[QualifiedName, Optional[Predicate]]:
    """Each relation q scans, in tree order, with the predicate of the
    selection directly over its scan when q scans it exactly once."""
    found: dict[QualifiedName, Optional[Predicate]] = {}
    stack: list[tuple[Query, Optional[Predicate]]] = [(q, None)]
    while stack:
        node, predicate = stack.pop()
        if isinstance(node, Scan):
            found[node.name] = None if node.name in found else predicate
            continue
        over = node.predicate if isinstance(node, Select) else None
        stack.extend((child, over) for child in reversed(children(node)))
    return found


class Wrapper(ComponentBase):
    kind = "wrapper"

    def __init__(self, config: WrapperConfig):
        super().__init__(config.component_id)
        self.config = config
        self.namespace = config.namespace
        self._epoch = 1
        # The first unscoped probe takes the baseline: a probe here would
        # hold the racy bytes of every file a new source has just written.
        self._last_fingerprint = None
        # Scoped tokens: a counter of their own, never reset, and for each
        # relation found at its last scoped probe (fingerprint, token).
        self._relation_epoch = 0
        self._relation_tokens: dict[str, tuple[object, str]] = {}

    @property
    def adapter(self) -> SourceAdapter:
        return self.config.adapter

    # -- schema ------------------------------------------------------------

    def get_schema(self) -> ProductSchema:
        self._check_alive()
        return ProductSchema(
            self.namespace,
            1,
            self.adapter.relations(),
            {"description": f"source {self.adapter.kind} via {self.component_id}"},
        )

    # -- data --------------------------------------------------------------

    def execute(self, q: Query, principal: str = "") -> Table:
        def work():
            foreign = namespaces(q) - {self.namespace}
            if foreign:
                raise UnknownRelationError(
                    f"foreign namespace {sorted(foreign)} (wrapper serves {self.namespace!r})",
                    origin=self.component_id,
                )
            db = {
                name: self.adapter.load(name.relation, where=where)
                for name, where in _scan_selections(q).items()
            }
            env = {name: table.schema for name, table in db.items()}
            infer_schema(q, env)
            result = evaluate(push_down_selects(q, env), db, self.config.salt)
            return result, len(result.rows), False

        return self._serve_request(q, principal, work)

    # -- change signal --------------------------------------------------------

    def epoch(self, relations: Optional[Sequence[str]] = None):
        """This wrapper's token; its counter moves once per observed change
        of the adapter's fingerprint. Given `relations`, a tuple of one token
        per name, in order, which moves once per observed change of that
        relation's fingerprint and is fresh on every probe of a relation
        the source lacks; scoped tokens leave the unscoped counter alone."""
        self._check_alive()
        current = self.adapter.fingerprint(relations)
        with self._lock:
            if relations is None:
                if self._last_fingerprint is not None and current != self._last_fingerprint:
                    self._epoch += 1
                self._last_fingerprint = current
                return self._token(self._epoch)
            tokens = []
            for relation, entry in zip(relations, current):
                kept = self._relation_tokens.get(relation)
                if kept is None or kept[0] != entry:
                    self._relation_epoch += 1
                    kept = entry, self._token(f"{relation}:{self._relation_epoch}")
                    if entry is None:
                        self._relation_tokens.pop(relation, None)
                    else:
                        self._relation_tokens[relation] = kept
                tokens.append(kept[1])
            return tuple(tokens)

    # -- lineage ------------------------------------------------------------------

    def lineage(self, relation: str) -> LineageNode:
        self._check_alive()
        try:
            self.adapter.load(relation)
        except UnknownRelationError as exc:
            exc.origin = self.component_id
            raise
        return LineageNode(
            self.component_id,
            "wrapper",
            relation,
            source=f"{self.adapter.kind}:{self.adapter.location()}",
        )
