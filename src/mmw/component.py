"""Shared component machinery: the request path, counters, access logging,
lineage nodes, and the answer a wrapper or mediator gives to the requests
only a mask serves.

Every data request that passes the liveness check (and, at a mask, the mode
check) produces exactly one access-log entry, whether it is served, denied
or failed; a stopped component raises first and logs nothing. Entry
timestamps are monotone per component.

A data request (`execute`, `serve`) takes the query tree alone. The request
path logs, keys caches by and sends on the tree's canonical text,
`canonical_query_text(q)`, which renders a tree once and keeps the text on
it. Trees are frozen and shared: a parsed tree an endpoint's query memo
keeps (see `mmw.runtime.protocol`) or a fetch a mediator's plan slot keeps
is rendered once, however many requests and components it passes through.

`epoch()` answers an opaque token that moves whenever what the component
serves may have changed. `epoch(relations)` may be scoped to named
relations: a wrapper answers a tuple of one token per name, in the order
asked, each moving whenever that relation may have changed, and a mediator
or mask answers its full token, which is always safe. A token is hashable
and has a JSON form: a text leaf `<nonce>:<counter>` (a wrapper's scoped
leaf is `<nonce>:<relation>:<counter>`, from a counter of its own), or a
tuple of tokens. The nonce is random per instance, so tokens never repeat
across instances, not even for a component restarted on the same port.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable, Optional

from mmw.errors import AccessDeniedError, ProtocolError, UnavailableError
from mmw.query.ast import Query
from mmw.query.render import RenderError, render_query

# (allowed, matched_rule_description); None rule means the default applied.
AccessDecision = tuple[bool, Optional[str]]
AccessChecker = Callable[[str], AccessDecision]

# Entries kept in memory per component; older ones are dropped, while the
# counters and the on-disk log still cover every request.
ACCESS_LOG_CAPACITY = 4096


@dataclass(frozen=True)
class AccessLogEntry:
    timestamp: str  # canonical UTC rendering
    component: str
    principal: str
    query: str
    row_count: int
    cache_hit: bool
    outcome: str  # "ok" | "denied" | "error"

    def to_obj(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "component": self.component,
            "principal": self.principal,
            "query": self.query,
            "row_count": self.row_count,
            "cache_hit": self.cache_hit,
            "outcome": self.outcome,
        }


@dataclass(frozen=True)
class LineageNode:
    """A served relation and the sources it derives from."""

    component: str
    kind: str  # wrapper | mediator | mask
    relation: str
    via_view: Optional[str] = None
    source: Optional[str] = None
    children: tuple["LineageNode", ...] = ()

    def to_obj(self) -> dict:
        obj: dict = {"component": self.component, "kind": self.kind, "relation": self.relation}
        if self.via_view is not None:
            obj["via_view"] = self.via_view
        if self.source is not None:
            obj["source"] = self.source
        if self.children:
            obj["children"] = [child.to_obj() for child in self.children]
        return obj

    @staticmethod
    def from_obj(obj: dict) -> "LineageNode":
        return LineageNode(
            obj["component"],
            obj["kind"],
            obj["relation"],
            obj.get("via_view"),
            obj.get("source"),
            tuple(LineageNode.from_obj(child) for child in obj.get("children", ())),
        )

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


_UNSET = object()


def canonical_query_text(q: Query) -> Optional[str]:
    """Canonical text of q, or None when q has no textual form: rendered
    once and kept on the frozen tree, outside its fields, so `==`, `hash`
    and `repr` are unchanged. Threads racing on one tree store the same text."""
    text = getattr(q, "_canonical_text", _UNSET)
    if text is _UNSET:
        try:
            text = render_query(q)
        except (RenderError, TypeError):
            text = None
        object.__setattr__(q, "_canonical_text", text)  # past the frozen __setattr__
    return text


def _stamp_text(second: int) -> str:
    """The canonical UTC rendering of a whole second since the epoch."""
    return datetime.fromtimestamp(second, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


_EPOCH_STAMP = _stamp_text(0)


COUNTER_NAMES = ("queries_served", "rows_returned", "cache_hits", "cache_misses", "errors")


class ComponentBase:
    """State shared by wrappers, mediators and masks."""

    kind = "component"

    def __init__(self, component_id: str):
        self.component_id = component_id
        self._nonce = os.urandom(8).hex()  # see the module docstring
        self._lock = threading.Lock()
        self._counters = {name: 0 for name in COUNTER_NAMES}
        self._access_log: deque[AccessLogEntry] = deque(maxlen=ACCESS_LOG_CAPACITY)
        self._log_path = None
        # The last second stamped and its text; a stamp is formatted only
        # when the second moves.
        self._stamp = (0, _EPOCH_STAMP)
        self._access_checker: Optional[AccessChecker] = None
        self._stopped = False

    # -- wiring (runtime hooks) ------------------------------------------

    def set_access_checker(self, checker: Optional[AccessChecker]) -> None:
        self._access_checker = checker

    def set_log_path(self, path) -> None:
        self._log_path = path

    def start(self) -> None:
        """Begin background work once wired; only a mask has any."""

    def stop(self) -> None:
        self._stopped = True

    def _token(self, counter: object) -> str:
        """This instance's epoch token at `counter`, a number or, for a
        wrapper's scoped token, `<relation>:<number>`: `<nonce>:<counter>`."""
        return f"{self._nonce}:{counter}"

    # -- request plumbing ---------------------------------------------------

    def _check_alive(self) -> None:
        if self._stopped:
            raise UnavailableError(
                f"component {self.component_id} is stopped", origin=self.component_id
            )

    def _authorize(self, principal: str) -> None:
        if self._access_checker is None:
            return
        allowed, rule = self._access_checker(principal)
        if not allowed:
            detail = f" (rule: {rule})" if rule else " (default deny)"
            raise AccessDeniedError(
                f"principal {principal!r} may not read from {self.component_id}{detail}",
                origin=self.component_id,
            )

    def _record(
        self, principal: str, query_text: str, rows: int, cache_hit: bool, outcome: str
    ) -> None:
        with self._lock:
            last, stamp = self._stamp
            second = max(int(time.time()), last)
            if second != last:
                stamp = _stamp_text(second)
                self._stamp = (second, stamp)
            entry = AccessLogEntry(
                stamp, self.component_id, principal, query_text, rows, cache_hit, outcome
            )
            self._access_log.append(entry)
            if outcome == "ok":
                self._counters["queries_served"] += 1
                self._counters["rows_returned"] += rows
            else:
                self._counters["errors"] += 1
            if self._log_path is not None:
                with open(self._log_path, "a", encoding="utf-8") as sink:
                    sink.write(json.dumps(entry.to_obj(), ensure_ascii=False) + "\n")

    def _count_cache(self, hit: bool) -> None:
        with self._lock:
            self._counters["cache_hits" if hit else "cache_misses"] += 1

    def _serve_request(self, q: Query, principal: str, work):
        """Check liveness, authorize, run `work()` and log once.

        `work` returns (result, row_count, cache_hit). A failure is logged as
        denied or error and, when it arose here, stamped with this origin.
        """
        self._check_alive()
        logged = canonical_query_text(q) or "<unrenderable query>"
        try:
            self._authorize(principal)
            result, rows, cache_hit = work()
        except Exception as exc:
            outcome = "denied" if isinstance(exc, AccessDeniedError) else "error"
            self._record(principal, logged, 0, False, outcome)
            if getattr(exc, "origin", "") is None:
                exc.origin = self.component_id
            raise
        self._record(principal, logged, rows, cache_hit, "ok")
        return result

    # -- mask-only requests -------------------------------------------------------

    def serve(self, q: Query, format: str, principal: str = ""):
        """Render q in a text format; only a mask does."""
        raise ProtocolError(
            f"format {format!r} requires a mask endpoint", origin=self.component_id
        )

    def materialize(self) -> dict:
        """Persist the upstream product; only a materializing mask does."""
        raise ProtocolError("materialize requires a mask endpoint", origin=self.component_id)

    # -- public monitoring surface ----------------------------------------------

    def stats(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counters)

    @property
    def access_log(self) -> tuple[AccessLogEntry, ...]:
        with self._lock:
            return tuple(self._access_log)
