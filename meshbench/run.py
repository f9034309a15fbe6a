"""Benchmark of the mmw data mesh: one workload per run.

    python3 meshbench/run.py --workload serve_tcp --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from `src/`. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics untraced, the per-layer
metrics with `--trace 1`). The full result, with the outcome counts, the
trace-only figures and the layer time shares, is also written to
`meshbench/results/<workload>-seed<seed>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mmw" / "__init__.py").is_file():
        print(f"no mmw package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    # The client and the in-process servers hand the interpreter lock to
    # each other on every hop. Spread over two CPUs each handoff waits for
    # the other CPU, which doubled serve_tcp's read latency and made every
    # timing follow the host's scheduling; one CPU keeps the handoffs local.
    # Threads started later inherit this.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         "full", workdir)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
