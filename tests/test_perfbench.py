import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # the benchmark's workloads, tracer and reference rows call into src by
    # name; its self-test fails when a change here breaks one of them
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
