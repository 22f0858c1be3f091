#!/usr/bin/env python3
"""Run the two release-gating corpus sweeps with timings.

Every structural check runs on every instance of the exhaustive corpus
at |K| = |I| = 4 and on a seeded random corpus at |K| = |I| = 8.  Exit
code 2 when any instance fails any check.

Usage: python scripts/full_sweep.py [--count N] [--seed S] [--workers W]
(in a checkout without an install: PYTHONPATH=src python scripts/full_sweep.py ...)
"""

import argparse
import time

from splitfactor import CorpusSpec, corpus_size, sweep


def run(spec: CorpusSpec, workers: int) -> int:
    label = f"{spec.mode} k={spec.k_max} i={spec.i_max}"
    if spec.mode == "random":
        label += f" seed={spec.seed}"
    print(f"{label}: {corpus_size(spec)} instances ...", flush=True)
    start = time.perf_counter()
    summary = sweep(spec, workers=workers)
    elapsed = time.perf_counter() - start
    rate = summary.instances / elapsed if elapsed > 0 else float("inf")
    print(
        f"  {summary.instances} verified, {summary.failures} failures, "
        f"{elapsed:.1f} s ({rate:.0f}/s)"
    )
    for instance_id, failures in summary.failed[:20]:
        for check in failures:
            print(f"  {instance_id}: {check.line()}")
    return summary.failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=10_000, help="random instances")
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    failures = run(CorpusSpec("exhaustive", 4, 4), args.workers)
    failures += run(
        CorpusSpec("random", 8, 8, count=args.count, seed=args.seed), args.workers
    )
    print("clean" if failures == 0 else f"{failures} failing instances")
    return 0 if failures == 0 else 2


if __name__ == "__main__":
    raise SystemExit(main())
