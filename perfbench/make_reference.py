"""Regenerate the stored reference of the default seed.

    python3 perfbench/make_reference.py [workload ...]

Run it only when a change is meant to alter the verified values, and say
so where the change is described: the reference is what the benchmark's
output check compares against.
"""

from __future__ import annotations

import sys

import worker


def main(argv: list[str]) -> int:
    worker.import_program()
    import refcheck
    import hostspeed
    import workloads

    for name in argv or workloads.NAMES:
        exact = workloads.EXACT_COLUMNS[name]
        prints = []

        def record(label, text):
            rows = refcheck.parse_rows(text)
            digest, total, _ = refcheck.fingerprint(rows, exact)
            prints.append((digest, total))
            return refcheck.expected_verdict_problem(rows)

        items = workloads.make_items(name, workloads.DEFAULT_SEED)
        result = worker.run_pass(items, record, hostspeed.Probe(name))
        if result["failures"]:
            print(f"{name}: not written, {len(result['failures'])} failed items: {result['failures'][:5]}")
            return 1
        path = refcheck.write_reference(name, prints)
        print(f"{name}: {len(prints)} items -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
