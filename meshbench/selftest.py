"""Quick self-test of the benchmark at a tiny input size.

    python3 meshbench/selftest.py

Runs every workload to its end with every check on, untraced and traced,
and asserts that the checks pass, that federate_cold and scan_files fail no
operation, and that every serve_tcp failure is a read the mediator served
stale. Exits 0 when all hold.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    failures = []
    for name in WORKLOADS:
        for trace in (False, True):
            workdir = HERE / "work" / f"selftest-{name}-{os.getpid()}"
            result = harness.run(name, 7, 0.0, trace, "tiny", workdir, rounds=2)
            outcomes = result["detail"]["outcomes"]
            label = f"{name} trace={int(trace)}"
            checks = [
                ("checks pass", result["correct"]),
                ("every operation counted", result["attempted"] == 2 * result["detail"]["ops_per_round"]),
                ("every failure is a stale read", result["failed"] == outcomes.get("stale", 0)),
            ]
            if name != "serve_tcp":
                checks.append(("no failures", result["failed"] == 0))
            wanted = harness.PER_LAYER if trace else harness.END_TO_END
            checks.append(("every metric reported", list(result["metrics"]) == [n for n, _ in wanted]))
            for what, ok in checks:
                print(f"{label}: {what}: {'ok' if ok else 'FAIL'}")
                if not ok:
                    failures.append(f"{label}: {what}")
            print(f"{label}: outcomes {outcomes}")
    if failures:
        print(f"{len(failures)} self-test check(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
