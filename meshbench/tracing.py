"""Span recording around the public functions of each mmw layer.

Tracing lives in the benchmark, not in the program: `Tracer.install()`
replaces each traced function where its callers look it up (a module-level
name such as `mmw.mediator.plan`, or a class attribute such as
`Wrapper.execute`) with a wrapper that records a span, and `uninstall()`
puts the originals back. A span is (name, start, end, parent, operation
index, extra counts). The parent is the enclosing span on the same thread;
server threads have no parent link to the client, so the index of the
operation in progress (set by the benchmark loop, which has one client)
ties their spans to the read that caused them.
"""

from __future__ import annotations

import itertools
import json
import threading
from time import perf_counter_ns


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "extra", "child_ns")

    def __init__(self, span_id, name, start, parent, op):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.extra = None
        self.child_ns = 0  # time covered by direct children on the same thread

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


def _text_bytes(text) -> int:
    # Generated inputs are ASCII, so characters and bytes coincide.
    return len(text) if isinstance(text, str) else 0


def _rows_in(args, kwargs) -> int:
    db = args[1] if len(args) > 1 else kwargs.get("db", {})
    return sum(len(table.rows) for table in db.values())


def _response_bytes(response) -> int:
    return len(json.dumps(response, ensure_ascii=False, separators=(",", ":"))) + 1


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None  # index of the benchmark operation in progress
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, bool, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, extra=None):
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span = Span(next(tracer._ids), name, perf_counter_ns(), parent, tracer.op)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
                if parent is not None:
                    parent.child_ns += span.end - span.start
                tracer.spans.append(span)
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, name, extra=None):
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        self._patches.append((owner, attr, had_own, original))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), extra))

    def install(self) -> None:
        import mmw.adapters
        import mmw.mask
        import mmw.mediator
        import mmw.planner
        import mmw.runtime.mesh
        import mmw.runtime.protocol
        import mmw.views
        import mmw.wrapper
        from mmw.adapters import DelimitedDirAdapter, DocLinesAdapter, MemoryAdapter
        from mmw.runtime.protocol import ProtocolClient, TcpBinding

        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch(mmw.runtime.mesh.Mesh, "up", "mesh.up")
        for module in (mmw.runtime.protocol, mmw.runtime.mesh):
            self._patch(module, "parse_query", "parse")
        for module in (mmw.wrapper, mmw.mediator, mmw.planner, mmw.views):
            self._patch(module, "infer_schema", "infer")
        self._patch(
            mmw.mediator, "plan", "plan", lambda a, k, r: {"fetches": len(r.fetches)}
        )
        for module in (mmw.wrapper, mmw.planner):
            self._patch(
                module,
                "evaluate",
                "evaluate",
                lambda a, k, r: {"rows_in": _rows_in(a, k), "rows_out": len(r.rows)},
            )
        for cls in (MemoryAdapter, DelimitedDirAdapter, DocLinesAdapter):
            for method in ("relations", "load", "fingerprint"):
                self._patch(cls, method, f"adapter.{cls.kind}.{method}")
        self._patch(
            mmw.adapters, "iter_csv_rows", "formats.parse", lambda a, k, r: {"bytes": _text_bytes(a[1])}
        )
        self._patch(
            mmw.adapters, "parse_jsonl", "formats.parse", lambda a, k, r: {"bytes": _text_bytes(a[0])}
        )
        self._patch(mmw.wrapper.Wrapper, "execute", "wrapper.execute")
        self._patch(mmw.wrapper.Wrapper, "epoch", "wrapper.epoch")
        self._patch(mmw.mediator.Mediator, "execute", "mediator.execute")
        self._patch(mmw.mediator.Mediator, "epoch", "mediator.epoch")
        self._patch(
            mmw.mask.Mask, "serve", "mask.serve", lambda a, k, r: {"bytes": len(r.data)}
        )
        self._patch(TcpBinding, "execute", "binding.execute")
        self._patch(TcpBinding, "epoch", "binding.epoch")
        self._patch(ProtocolClient, "request", "client.request")
        self._patch(
            mmw.runtime.protocol,
            "handle_request",
            "server.handle",
            lambda a, k, r: {"bytes": _response_bytes(r)},
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


# Which layer (module) each span belongs to, for self-time shares.
LAYER_OF = {
    "mesh.up": "runtime.mesh",
    "parse": "query.parse",
    "infer": "query.infer",
    "plan": "views+planner",
    "evaluate": "query.evaluate",
    "formats.parse": "formats",
    "wrapper.execute": "wrapper",
    "wrapper.epoch": "wrapper",
    "mediator.execute": "mediator",
    "mediator.epoch": "mediator",
    "mask.serve": "mask",
    "binding.execute": "runtime.protocol",
    "binding.epoch": "runtime.protocol",
    "client.request": "runtime.protocol",
    "server.handle": "runtime.protocol",
}


def layer_of(name: str) -> str:
    if name.startswith("adapter."):
        return "adapters"
    return LAYER_OF[name]
