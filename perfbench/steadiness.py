"""Run the benchmark on several seeds and print each metric's median and
quartiles, and its spread (quartile distance over median) against the
bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --workload scan --runs 10

Seeds are 1 to --runs.  Exits 1 when a spread reaches a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seconds", str(spec["run_seconds"])]
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in range(1, args.runs + 1):
        proc = subprocess.run(
            cmd + ["--seed", str(seed), "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True, timeout=180
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 2
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output\n{proc.stderr}", file=sys.stderr)
            return 2
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)

    steady = True
    print(f"\n{args.workload}, {args.runs} runs: | metric | unit | median | Q1 | Q3 | spread | bound |")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread >= bound / 3:
            flag = "  <-- not below a third of its bound"
            steady = False
        print(f"| {name} | {units[name]} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} | {bound if bound is not None else '-'} |{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
