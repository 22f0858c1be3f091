#!/usr/bin/env python3
"""Tabulate the diameter-extremal family.

For each n the construction promises: switch degree exactly n, a path
factor graph, and diameter meeting ceil((n+1)/2) with equality.  The
table recomputes everything from scratch so it doubles as a quick
eyeball check of the whole chain.

Usage: python scripts/extremal_table.py [--max-n N]
(in a checkout without an install: PYTHONPATH=src python scripts/extremal_table.py ...)
"""

import argparse

from splitfactor import build_by_formula, build_extremal, verify_extremal


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=20)
    args = parser.parse_args()

    header = f"{'n':>3} {'|K|':>4} {'|I|':>4} {'deg':>4} {'len':>4} {'diam':>5} {'bound':>6}  pattern"
    print(header)
    print("-" * len(header))
    bad = 0
    for n in range(1, args.max_n + 1):
        inst = build_extremal(n)
        phi = build_by_formula(inst.graph)
        diam = phi.diameter()
        bound = (phi.size() + 2) // 2
        pattern = " ".join(
            str(phi.multiplicity(u, v))
            for u, v in zip(inst.graph.independent, inst.graph.independent[1:])
        )
        failures = [r for r in verify_extremal(inst) if not r.passed]
        bad += len(failures)
        mark = "" if not failures else "  <- " + ", ".join(r.name for r in failures)
        print(
            f"{n:>3} {inst.graph.k_size:>4} {len(inst.graph.independent):>4} "
            f"{phi.size():>4} {inst.path_length:>4} {diam!s:>5} "
            f"{bound:>6}  [{pattern}]{mark}"
        )
    if bad:
        print(f"\n{bad} failing checks")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
