"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Runs the first items of each workload at the default seed and shows that
the output check accepts the stored reference and a last-ulp change, and
that one corrupted row raises fail_ratio above 0.  It also shows that the
traced run's coverage check passes and catches a call that bypasses the
wrappers, and that BENCHMARK.json lists exactly the tracer's metrics.
Exits 1 on the first check that does not hold.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys

import worker

SLICE = {"scan": 300, "classnum": 60, "residuals": 40, "kernel-opt": 3}
# Every 80th scan item reaches all three of its windows.
TRACE_STEP = {"scan": 80, "classnum": 1, "residuals": 1, "kernel-opt": 1}


def _edit_cell(text: str, column: str, edit) -> str:
    """Apply `edit` to one cell of the first data row of CSV text."""
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index(column)
    rows[1][col] = edit(rows[1][col])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def fail_ratio(workload: str, edit_column: str | None = None, edit=None, at: int = 1) -> float:
    """fail_ratio of the workload's first items, with the rows of item
    number `at` edited before they are checked."""
    import hostspeed
    import workloads

    check, _ = worker.make_checker(workload, workloads.DEFAULT_SEED)
    count = 0

    def edited_check(label, text):
        nonlocal count
        count += 1
        if edit is not None and count == at:
            text = _edit_cell(text, edit_column, edit)
        return check(label, text)

    items = itertools.islice(workloads.make_items(workload, workloads.DEFAULT_SEED), SLICE[workload])
    result = worker.run_pass(items, edited_check, hostspeed.Probe(workload))
    return len(result["failures"]) / result["attempted"]


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def next_ulp(cell: str) -> str:
    return repr(math.nextafter(float(cell), math.inf))


def main() -> int:
    worker.import_program()
    import hostspeed
    import spans
    import workloads

    for name in workloads.NAMES:
        expect(fail_ratio(name) == 0.0, f"{name}: reference rows match")
    for name in workloads.NAMES:
        for column in ("measured", "margin"):
            if column not in workloads.EXACT_COLUMNS[name]:
                expect(fail_ratio(name, column, next_ulp, at=2) == 0.0, f"{name}: one-ulp change in {column} is accepted")
    for name in workloads.NAMES:
        rtol = workloads.REL_TOL[name]
        ratio = fail_ratio(name, "margin", lambda c, r=rtol: repr(float(c) * (1 + 1000 * r) + 1e-6), at=2)
        expect(ratio > 0.0, f"{name}: one corrupted margin gives fail_ratio {ratio:.4f} > 0")
    ratio = fail_ratio("scan", "measured", lambda c: repr(float(c) + 2.0), at=5)
    expect(ratio > 0.0, f"scan: a wrong least prime gives fail_ratio {ratio:.4f} > 0")
    ratio = fail_ratio("residuals", "target", lambda c: c.replace("x=50", "x=60"))
    expect(ratio > 0.0, f"residuals: a wrong target gives fail_ratio {ratio:.4f} > 0")
    ratio = fail_ratio("classnum", "verdict", lambda c: "fail", at=3)
    expect(ratio > 0.0, f"classnum: a failed verdict gives fail_ratio {ratio:.4f} > 0")

    tracer = spans.Tracer()
    tracer.install()
    try:
        for name in workloads.NAMES:
            step = TRACE_STEP[name]
            items = itertools.islice(workloads.make_items(name, 1), 0, SLICE[name] * step, step)
            worker.run_pass(items, lambda label, text: None, hostspeed.Probe(name))
    finally:
        tracer.uninstall()
    expect(all(not tracer.coverage_problems(name) for name in workloads.NAMES), "traced calls equal cache_info deltas; every home workload calls its functions")
    tracer.originals[("arith", "factorize")](2**61 - 1)
    problems = tracer.coverage_problems("scan")
    expect(any(p.startswith("arith.factorize") for p in problems), "a call that bypasses the wrapper is reported")

    with open(worker.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        listed = [(m["name"], m["unit"], m["better"]) for m in json.load(fh)["per_layer"]]
    expect(listed == spans.metric_specs(), "BENCHMARK.json per_layer lists the tracer's metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
