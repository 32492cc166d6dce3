"""Re-measure the ROADMAP "Open items" baseline table with the benchmark's timers.

    python3 perfbench/baseline.py > perfbench/BASELINE.md

Each CLI command runs once, in a fresh process, with CSV output counted
and discarded.  Wall time runs from spawning the process to its exit
(set-up included, as a user sees it); peak RSS is the process's own
ru_maxrss.  The table is a note, not a gate: nothing compares against it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import run

COMMANDS = (
    ["reproduce-paper", "--quick"],
    ["reproduce-paper"],
    ["classnum", "--qmax", "30000"],
    ["scan", "subgroup", "--qmin", "3000", "--qmax", "13000"],
    ["scan", "qnr", "--qmin", "5", "--qmax", "200000"],
)
RUNNER = "import sys; sys.path.insert(0, 'src'); from nonresidue.cli import main; sys.exit(main(sys.argv[1:]))"


def measure(args: list[str]) -> tuple[float, float, int, int]:
    """(wall s, peak RSS MB, CSV rows, exit status) of one CLI run."""
    cmd = [sys.executable, "-c", RUNNER, *args, "--format", "csv"]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    rows = -1  # the header line
    with proc.stdout:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            rows += chunk.count(b"\n")
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, rows, proc.returncode


def main() -> int:
    print("# Baseline of the ROADMAP workloads\n")
    print("Measured once with `python3 perfbench/baseline.py`; not a gate.\n")
    print(f"Environment: `{json.dumps(run.environment())}`\n")
    print("| command | wall s | peak RSS MB | CSV rows | exit |")
    print("|---|---|---|---|---|")
    for args in COMMANDS:
        wall, rss, rows, code = measure(args)
        print(f"| `nonresidue {' '.join(args)}` | {wall:.2f} | {rss:.0f} | {rows} | {code} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
