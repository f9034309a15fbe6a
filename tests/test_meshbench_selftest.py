"""The benchmark's self-test runs in tier-1.

`meshbench/tracing.py` wraps `mmw` functions where their callers look them
up by name (`mmw.adapters.iter_csv_rows`, the adapter classes' `load`, and
others), and `meshbench/selftest.py` runs every workload at a tiny size,
untraced and traced. Running it here makes a rename that breaks the
benchmark fail the test suite.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_meshbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "meshbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
