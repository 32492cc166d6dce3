"""Benchmark of the nonresidue verifier.

    python3 perfbench/run.py --workload scan --seed 0 --seconds 20 --trace 0

With --trace 0 it runs the workload in fresh processes, one pass per
process, as many passes as fit in --seconds (at least MIN_PASSES), plus
set-up-only processes until MIN_SETUPS set-ups are measured.  Every time
but set-up is scaled to the host-speed probe's reference speed (see
hostspeed.py).
Wall time, peak RSS and set-up time are medians over passes and set-ups;
the median item latency is over the items of all passes pooled, and the
tail latency takes each item's fastest of the first MIN_PASSES passes
(see fastest_latencies).  With --trace 1 it runs one untraced and one
traced pass and reports the per-layer metrics.
Human-readable lines go first; the last line of stdout is the JSON result.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# workloads.NAMES; this process does not import the program, so it keeps its own copy.
WORKLOADS = ("scan", "classnum", "residuals", "kernel-opt")

MIN_PASSES = 2
MIN_SETUPS = 5
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
PASS_TIMEOUT_S = 150
# A run exits within 180 s: it starts no pass that could end past this.
RUN_LIMIT_S = 150

END_TO_END = (
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one worker process to completion; returns its JSON result
    with `setup_s`, the time from spawning it to its first item."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--mode", mode]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass of {workload} exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready_monotonic"] - start
    result["elapsed_s"] = time.monotonic() - start
    return result


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n items beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def fastest_latencies(passes: list[dict]) -> list[float]:
    """Each item's latency as the fastest of its passes, in ms.

    A stall from outside the program (another tenant, an interrupt) hits
    one item in one pass, often too briefly for the probes to see it; an
    item that is slow in the program is slow in every pass.  Taking each
    item's fastest pass keeps such stalls out of the tail.  Pass a fixed
    number of passes: the fastest of three reads lower than the fastest of
    two with no change in the program.
    """
    return [min(col) for col in zip(*(p["latencies"] for p in passes))]


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": "unknown",
        "commit": "unknown (not a git checkout)",
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if git.returncode == 0:
            env["commit"] = git.stdout.strip()
    return env


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced passes and set-ups -> (end-to-end metrics, details)."""
    passes = []
    t0 = time.monotonic()
    while True:
        if passes:
            # Start no pass that would likely end past --seconds (once
            # MIN_PASSES are done) or past RUN_LIMIT_S.
            end = time.monotonic() - t0 + max(p["elapsed_s"] for p in passes)
            if end > RUN_LIMIT_S or (len(passes) >= MIN_PASSES and end > seconds):
                break
        passes.append(spawn(workload, seed, "items"))
    setups = list(passes)
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, "setup"))
    counts = {len(p["latencies"]) for p in passes}
    if len(counts) != 1:
        raise BenchError(f"passes ran different item counts: {sorted(counts)}")
    fastest = fastest_latencies(passes[:MIN_PASSES])
    pct = tail_percentile(len(fastest))
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "item_p50_ms": float(np.median([ms for p in passes for ms in p["latencies"]])),
        "item_tail_ms": float(np.percentile(fastest, pct)),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in setups),
    }
    raw = {
        "wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "item_p50_ms": float(np.median([ms for p in passes for ms in p["raw_latencies"]])),
    }
    details = {
        "passes": len(passes),
        "setups": len(setups),
        "items_per_pass": len(passes[0]["latencies"]),
        "tail_percentile": pct,
        "attempted": sum(p["attempted"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
        "wall_s_per_pass": [round(p["wall_s"], 4) for p in passes],
        "raw": raw,
    }
    return metrics, details


def measure_traced(workload: str, seed: int) -> tuple[dict, dict]:
    """One untraced and one traced pass -> (per-layer metrics, details)."""
    base = spawn(workload, seed, "items")
    traced = spawn(workload, seed, "trace")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["wall_s"] / base["wall_s"]
    details = {
        "passes": 1,
        "items_per_pass": len(traced["latencies"]),
        "attempted": traced["attempted"],
        "failures": traced["failures"],
        "coverage_problems": traced["coverage_problems"],
    }
    return metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nonresidue" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, details = measure_traced(args.workload, args.seed)
        else:
            metrics, details = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    units = dict(END_TO_END)
    if args.trace:
        import spans

        units = {name: unit for name, unit, _ in spans.metric_specs()}
    failures = details.pop("failures")
    attempted = details["attempted"]
    coverage = details.get("coverage_problems", [])
    print(f"environment {json.dumps(environment())}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          + json.dumps({k: v for k, v in details.items() if k != "raw"}))
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    print(f"  {'fail_ratio':<48} {len(failures) / attempted:>14.6g} ratio ({len(failures)} of {attempted} items)")
    if not args.trace:
        print(f"  item_tail_ms is p{details['tail_percentile']:g} of {details['items_per_pass']} items per pass")
        print("  wall and item times are scaled to the probe's reference speed (hostspeed.py); unscaled: "
              + ", ".join(f"{name} {value:.6g}" for name, value in details.pop("raw").items()))
    for line in failures[:20] + coverage:
        print(f"  FAILED {line}", file=sys.stderr)
    result = {
        "correct": not failures and not coverage,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
