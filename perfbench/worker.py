"""One pass of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload scan --seed 0 --mode items|setup|trace

`setup` stops at the first item.  `items` runs every item with tracing
off.  `trace` runs the same items with every public function of the
program wrapped in a span (see spans.py).  The program is imported from
the `src` directory next to this one and from nowhere else.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program() -> None:
    """Import nonresidue from this checkout's src, or exit with an error."""
    if not (SRC / "nonresidue" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'nonresidue'}")
    sys.path.insert(0, str(SRC))
    import nonresidue

    if Path(nonresidue.__file__).resolve().parent != SRC / "nonresidue":
        sys.exit(f"error: imported nonresidue from {nonresidue.__file__}, not from {SRC}")


def run_pass(items, check, probe) -> dict:
    """Run every item, emit its rows through the CLI writer and check them.

    `check(label, rows_text)` returns a problem string or None.  Wall time
    runs from the first item to the last checked row.  `probe`, a
    hostspeed.Probe, runs before the first item, then before the next item
    once every PROBE_EVERY_S, and once after the last; the probes cut the
    pass into stretches, and each stretch's time, and each item's latency
    in it, is scaled by its factor.  Probe time is in no figure.
    """
    import hostspeed
    from nonresidue import cli

    clock = time.perf_counter
    latencies = []  # (stretch, ms)
    probes = []  # probe seconds; stretch k runs from probe k to probe k + 1
    stretches = []  # seconds
    failures = []
    attempted = 0
    stretch_start = next_probe = -math.inf
    it = iter(items)
    while True:
        now = clock()
        if now >= next_probe:
            if probes:
                stretches.append(now - stretch_start)
            probes.append(probe())
            stretch_start = clock()
            next_probe = stretch_start + hostspeed.PROBE_EVERY_S
        try:
            label, call = next(it)
        except StopIteration:
            break
        attempted += 1
        start = clock()
        try:
            rows = call()
        except Exception as exc:  # an item that raises is a failed item
            latencies.append((len(stretches), (clock() - start) * 1e3))
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        latencies.append((len(stretches), (clock() - start) * 1e3))
        buf = io.StringIO()
        cli.emit_reports(rows, "csv", buf)
        problem = check(label, buf.getvalue())
        if problem:
            failures.append(problem)
    stretches.append(clock() - stretch_start)
    probes.append(probe())
    scale = probe.scale(probes)
    return {
        "wall_s": sum(s * scale[k] for k, s in enumerate(stretches)),
        "raw_wall_s": sum(stretches),
        "latencies": [ms * scale[k] for k, ms in latencies],
        "raw_latencies": [ms for _, ms in latencies],
        "attempted": attempted,
        "failures": failures,
    }


def make_checker(workload: str, seed: int):
    """Checker for one pass, and a function listing reference items never seen."""
    import refcheck
    import workloads

    if seed != workloads.DEFAULT_SEED:

        def check(label, text):
            return refcheck.expected_verdict_problem(refcheck.parse_rows(text))

        return check, lambda: []

    ref = refcheck.load_reference(workload)
    exact = workloads.EXACT_COLUMNS[workload]
    rtol = workloads.REL_TOL[workload]
    position = 0

    def check(label, text):
        nonlocal position
        position += 1
        if position > len(ref):
            return f"{label}: beyond the {len(ref)} items of the reference"
        rows = refcheck.parse_rows(text)
        return refcheck.expected_verdict_problem(rows) or refcheck.reference_problem(
            label, rows, ref[position - 1], exact, rtol
        )

    def unseen():
        return [f"reference item {i + 1} not produced" for i in range(position, len(ref))]

    return check, unseen


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("items", "setup", "trace"), required=True)
    args = ap.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.NAMES:
        sys.exit(f"error: unknown workload {args.workload!r}")
    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    items = workloads.make_items(args.workload, args.seed)
    out = {"ready_monotonic": time.monotonic()}
    if args.mode != "setup":
        # Imported once set-up is timed: the pinned copy loads what the program does.
        import hostspeed

        check, unseen = make_checker(args.workload, args.seed)
        out.update(run_pass(items, check, hostspeed.Probe(args.workload)))
        missing = unseen()
        out["attempted"] += len(missing)
        out["failures"] += missing
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["coverage_problems"] = tracer.coverage_problems(args.workload)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
