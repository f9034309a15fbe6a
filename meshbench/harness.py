"""Round loop, timing and the metrics derived from it.

A run makes whole rounds until `seconds` have passed; every round replays
the same operations from a fresh set-up, so `failed / attempted` is the
same in every run. Only
`setup()` and `perform()` are timed; checks and bookkeeping happen between
the timed windows. With tracing on, measured rounds alternate untraced and
traced: the untraced ones give the tracing overhead, the traced ones the
per-layer metrics.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter, perf_counter_ns, process_time_ns

from mmw import MeshError

from tracing import Tracer, layer_of
from workloads import WORKLOADS, CheckFailed

ADAPTER_KINDS = ("memory", "delimited_dir", "doc_lines")

END_TO_END = (
    ("setup_s", "s"),
    ("read_p90_ms", "ms"),
    ("rss_mb", "MB"),
)

# Measured like the others but too unsteady from run to run on a host whose
# CPU speed steps by up to 2x for tens of seconds at a time: written to the
# result file's `detail.reference`, not printed (see README).
REFERENCE = (
    ("throughput_qps", "1/s"),
    ("read_p50_ms", "ms"),
    ("cpu_ms_per_read", "ms"),
)

PER_LAYER = (
    ("mesh.up_s", "s"),
    ("parse.calls_per_read", "count"),
    ("parse.us_per_call", "us"),
    ("infer.calls_per_read", "count"),
    ("infer.us_per_call", "us"),
    ("planner.plan_ms_per_call", "ms"),
    ("planner.fetches_per_plan", "count"),
    ("evaluate.ms_per_read", "ms"),
    ("evaluate.rows_in_per_row_out", "ratio"),
    ("evaluate.rows_in_per_read", "count"),
    ("evaluate.rows_out_per_read", "count"),
    ("adapter.relations_ms_per_read", "ms"),
    ("adapter.load_ms_per_read", "ms"),
    ("adapter.fingerprint_ms_per_read", "ms"),
    *((f"adapter.{kind}.{method}_calls_per_read", "count")
      for kind in ADAPTER_KINDS for method in ("relations", "load", "fingerprint")),
    ("adapter.delimited_dir.bytes_parsed_per_read", "B"),
    ("adapter.doc_lines.bytes_parsed_per_read", "B"),
    ("wrapper.execute_ms_per_call", "ms"),
    ("wrapper.epoch_calls_per_read", "count"),
    ("mediator.cache_hit_ratio", "ratio"),
    ("mediator.cache_hits_per_round", "count"),
    ("mediator.cache_misses_per_round", "count"),
    ("mediator.execute_ms_p50", "ms"),
    ("mediator.miss_ms_p50", "ms"),
    ("mediator.epoch_ms_per_read", "ms"),
    ("mediator.epoch_probes_per_read", "count"),
    ("mask.rendered_bytes_per_read", "B"),
    ("protocol.round_trips_per_read", "count"),
    ("protocol.response_bytes_per_read", "B"),
    ("component.access_log_entries", "count"),
    ("trace.overhead_ms_per_read", "ms"),
)

# Times that are zero on every run of a workload that never takes that path
# (no mask, no TCP, no cache hit, one adapter kind absent). They go to the
# trace report, not into the printed per-layer metrics.
REPORT_ONLY = (
    ("mediator.hit_ms_p50", "ms"),
    ("mask.serve_self_ms_per_read", "ms"),
    ("protocol.client_rtt_ms_p50", "ms"),
    ("protocol.server_ms_per_request", "ms"),
    *((f"adapter.{kind}.{method}_ms_per_read", "ms")
      for kind in ADAPTER_KINDS for method in ("relations", "load", "fingerprint")),
)


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99), interpolating between order statistics."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class RoundTimes:
    """The timed windows of one round, filled in between them."""

    def __init__(self):
        self.setup_s = 0.0
        self.read_ns: list[int] = []
        self.op_ns = 0
        self.cpu_ns = 0

    def p50_ms(self) -> float:
        return percentile([ns / 1e6 for ns in self.read_ns], 50)


def end_to_end(rounds: list[RoundTimes]) -> dict[str, float]:
    """Set-up is the median over rounds; the other timings pool every
    read of every round."""
    latencies_ms = [ns / 1e6 for r in rounds for ns in r.read_ns]
    return {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "throughput_qps": len(latencies_ms) / (sum(r.op_ns for r in rounds) / 1e9),
        "read_p50_ms": percentile(latencies_ms, 50),
        "read_p90_ms": percentile(latencies_ms, 90),
        "cpu_ms_per_read": sum(r.cpu_ns for r in rounds) / 1e6 / len(latencies_ms),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


class LayerStats:
    """Per-layer sums over the read operations of traced rounds."""

    def __init__(self):
        self.reads = 0
        self.rounds = 0
        self.read_ns = 0
        self.count = Counter()
        self.total_ns = Counter()
        self.extra = Counter()
        self.own_ns = Counter()  # by span name
        self.mediator_hit_ns: list[int] = []
        self.mediator_miss_ns: list[int] = []
        self.rtt_ns: list[int] = []
        self.mesh_up_ns: list[int] = []
        self.cache = Counter()
        self.access_log_entries: list[int] = []

    def add_round(self, spans, read_ops: set, read_ns: int, mediator_stats, log_entries):
        self.rounds += 1
        self.reads += len(read_ops)
        self.read_ns += read_ns
        self.cache["hits"] += mediator_stats["cache_hits"]
        self.cache["misses"] += mediator_stats["cache_misses"]
        self.access_log_entries.append(log_entries)
        planned = {s.parent.id for s in spans if s.name == "plan" and s.parent is not None}
        by_op = defaultdict(list)
        for span in spans:
            if span.name == "mesh.up":
                self.mesh_up_ns.append(span.duration_ns)
                continue
            if span.op not in read_ops:
                continue
            by_op[span.op].append(span)
            name = span.name
            self.count[name] += 1
            self.total_ns[name] += span.duration_ns
            if span.extra:
                for key, value in span.extra.items():
                    self.extra[(name, key)] += value
            if name == "formats.parse" and span.parent is not None:
                kind = span.parent.name.split(".")[1]
                self.extra[(f"adapter.{kind}", "bytes")] += span.extra["bytes"]
            if span.parent is not None and span.parent.name == "mediator.epoch":
                self.count["mediator.epoch.probe"] += 1
            if name == "mediator.execute":
                target = self.mediator_miss_ns if span.id in planned else self.mediator_hit_ns
                target.append(span.duration_ns)
            elif name == "client.request":
                self.rtt_ns.append(span.duration_ns)
        for spans_of_op in by_op.values():
            # One client and strictly nested requests: the k-th request to
            # start is served by the k-th handler to start, so a request's
            # own time is its round trip minus the handler's time.
            requests = sorted((s for s in spans_of_op if s.name == "client.request"), key=lambda s: s.start)
            handlers = sorted((s for s in spans_of_op if s.name == "server.handle"), key=lambda s: s.start)
            served = dict(zip((s.id for s in requests), handlers))
            for span in spans_of_op:
                own = span.self_ns
                if span.id in served:
                    own -= served[span.id].duration_ns
                self.own_ns[span.name] += own

    def metrics(self, overhead_ms: float) -> dict[str, float]:
        reads = self.reads
        count, total, extra = self.count, self.total_ns, self.extra

        def per_read_ms(*names):
            return sum(total[n] for n in names) / 1e6 / reads

        def mean_ms(name):
            return total[name] / 1e6 / count[name] if count[name] else 0.0

        def p50_ms(values):
            return percentile([v / 1e6 for v in values], 50) if values else 0.0

        def adapter_names(method):
            return [f"adapter.{kind}.{method}" for kind in ADAPTER_KINDS]

        rows_in = extra[("evaluate", "rows_in")]
        rows_out = extra[("evaluate", "rows_out")]
        hits, misses = self.cache["hits"], self.cache["misses"]
        out = {
            "mesh.up_s": statistics.median(self.mesh_up_ns) / 1e9,
            "parse.calls_per_read": count["parse"] / reads,
            "parse.us_per_call": mean_ms("parse") * 1000,
            "infer.calls_per_read": count["infer"] / reads,
            "infer.us_per_call": mean_ms("infer") * 1000,
            "planner.plan_ms_per_call": mean_ms("plan"),
            "planner.fetches_per_plan": extra[("plan", "fetches")] / count["plan"] if count["plan"] else 0.0,
            "evaluate.ms_per_read": per_read_ms("evaluate"),
            "evaluate.rows_in_per_row_out": rows_in / rows_out if rows_out else 0.0,
            "evaluate.rows_in_per_read": rows_in / reads,
            "evaluate.rows_out_per_read": rows_out / reads,
            "adapter.relations_ms_per_read": per_read_ms(*adapter_names("relations")),
            "adapter.load_ms_per_read": per_read_ms(*adapter_names("load")),
            "adapter.fingerprint_ms_per_read": per_read_ms(*adapter_names("fingerprint")),
            "adapter.delimited_dir.bytes_parsed_per_read": extra[("adapter.delimited_dir", "bytes")] / reads,
            "adapter.doc_lines.bytes_parsed_per_read": extra[("adapter.doc_lines", "bytes")] / reads,
            "wrapper.execute_ms_per_call": mean_ms("wrapper.execute"),
            "wrapper.epoch_calls_per_read": count["wrapper.epoch"] / reads,
            "mediator.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "mediator.cache_hits_per_round": hits / self.rounds,
            "mediator.cache_misses_per_round": misses / self.rounds,
            "mediator.execute_ms_p50": p50_ms(self.mediator_hit_ns + self.mediator_miss_ns),
            "mediator.miss_ms_p50": p50_ms(self.mediator_miss_ns),
            "mediator.epoch_ms_per_read": per_read_ms("mediator.epoch"),
            "mediator.epoch_probes_per_read": count["mediator.epoch.probe"] / reads,
            "mask.rendered_bytes_per_read": extra[("mask.serve", "bytes")] / reads,
            "protocol.round_trips_per_read": count["client.request"] / reads,
            "protocol.response_bytes_per_read": extra[("server.handle", "bytes")] / reads,
            "component.access_log_entries": statistics.median(self.access_log_entries),
            "trace.overhead_ms_per_read": overhead_ms,
            "mediator.hit_ms_p50": p50_ms(self.mediator_hit_ns),
            "mask.serve_self_ms_per_read": self.own_ns["mask.serve"] / 1e6 / reads,
            "protocol.client_rtt_ms_p50": p50_ms(self.rtt_ns),
            "protocol.server_ms_per_request": mean_ms("server.handle"),
        }
        for kind in ADAPTER_KINDS:
            for method in ("relations", "load", "fingerprint"):
                name = f"adapter.{kind}.{method}"
                out[f"{name}_calls_per_read"] = count[name] / reads
                out[f"{name}_ms_per_read"] = per_read_ms(name)
        return out

    def shares(self) -> dict[str, float]:
        """Each layer's own time as a share of traced read latency; the
        rest is the benchmark's client loop and the time between spans."""
        by_layer = Counter()
        for name, ns in self.own_ns.items():
            by_layer[layer_of(name)] += ns
        shares = {layer: ns / self.read_ns for layer, ns in sorted(by_layer.items())}
        shares["unattributed"] = 1.0 - sum(shares.values())
        return shares


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: str,
        workdir, rounds: int | None = None) -> dict:
    """Run one workload; returns the result object plus a detail section."""
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[workload_name](seed, scale, workdir)
        return _measure(workload, seconds, trace, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload, seconds, trace, rounds) -> dict:
    tracer = Tracer() if trace else None
    untraced: list[RoundTimes] = []
    traced: list[RoundTimes] = []
    layers = LayerStats()
    outcomes = Counter()
    problems: list[str] = []
    read_ops = {i for i, (kind, _) in enumerate(workload.ops) if kind == "read"}

    def one_round(tracing) -> RoundTimes:
        times = RoundTimes()
        workload.prepare()
        if tracing:
            tracer.install()
        try:
            start = perf_counter()
            workload.setup()
            times.setup_s = perf_counter() - start
            for index, op in enumerate(workload.ops):
                if tracing:
                    tracer.op = index
                cpu0 = process_time_ns()
                t0 = perf_counter_ns()
                try:
                    result = workload.perform(op)
                except MeshError as exc:
                    result, error = None, exc
                else:
                    error = None
                t1 = perf_counter_ns()
                cpu1 = process_time_ns()
                if tracing:
                    tracer.op = None
                times.op_ns += t1 - t0
                times.cpu_ns += cpu1 - cpu0
                if op[0] == "read":
                    times.read_ns.append(t1 - t0)
                if error is not None:
                    outcomes["error"] += 1
                    problems.append(f"op {index}: {type(error).__name__}: {error}")
                    continue
                try:
                    outcomes[workload.check(op, result)] += 1
                except CheckFailed as exc:
                    outcomes["wrong"] += 1
                    problems.append(f"op {index}: {exc}")
            if tracing:
                layers.add_round(
                    tracer.take(), read_ops, sum(times.read_ns), workload.mediator().stats(),
                    sum(len(c.access_log) for c in workload.components()),
                )
            return times
        finally:
            workload.teardown()
            if tracing:
                tracer.uninstall()
                tracer.take()

    # Whole rounds only, so failed / attempted is the same in every run.
    # Traced runs alternate untraced and traced rounds and end on a traced one.
    started = perf_counter()
    done = 0
    while True:
        if rounds is not None:
            if done >= rounds:
                break
        elif perf_counter() - started >= seconds and done >= (2 if trace else 1) and not (trace and done % 2):
            break
        tracing = trace and done % 2 == 1
        (traced if tracing else untraced).append(one_round(tracing))
        done += 1

    attempted = sum(outcomes.values())
    failed = attempted - outcomes["ok"]
    correct = outcomes["wrong"] == 0 and outcomes["error"] == 0
    if trace:
        overhead = end_to_end(traced)["read_p50_ms"] - end_to_end(untraced)["read_p50_ms"]
        layer_metrics = layers.metrics(overhead)
        metrics = {name: {"value": layer_metrics[name], "unit": unit} for name, unit in PER_LAYER}
        detail = {
            "report_only": {name: {"value": layer_metrics[name], "unit": unit}
                            for name, unit in REPORT_ONLY},
            "layer_time_shares": layers.shares(),
            "traced_reads": layers.reads,
        }
    else:
        values = end_to_end(untraced)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        detail = {
            "reference": {name: {"value": values[name], "unit": unit} for name, unit in REFERENCE},
            "round_read_p50_ms": [r.p50_ms() for r in untraced],
        }
    detail.update({
        "rounds": done,
        "ops_per_round": len(workload.ops),
        "reads_per_round": len(read_ops),
        "outcomes": dict(outcomes),
        "problems": problems[:20],
    })
    for line in problems[:5]:
        print(f"problem: {line}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail}
