"""The benchmark's harness runs against the current package.

``perfbench/selftest.py`` wraps the package functions its tracer times and
runs one toy round of every workload; it exits non-zero when a traced name
is gone or a workload's check fails.  Running it here makes such a break
fail the unit tests instead of only the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    # the self-test imports the package from this checkout's src/ itself
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest passed" in proc.stdout
