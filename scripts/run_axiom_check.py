#!/usr/bin/env python3
"""Run the 27-axiom fragment check on a grid of small models and, optionally,
the full corrupted-model sweep in this one process: the first corrupted model
runs every check, and each later one reruns only the checks that read the
symbol it reinterprets (see `diagcat.axioms._run_checks`). Each line gives the
model's elapsed seconds; with `--mutations` the last line gives the whole
sweep's, the cold one-process figure.

Usage:
    python scripts/run_axiom_check.py
    python scripts/run_axiom_check.py --mutations

Exits 1 when a model fails an axiom or a corrupted model does not fail
exactly its target axiom.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from diagcat import axioms as ax
from diagcat.abelian import parse_group
from diagcat.field import ExactField


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mutations", action="store_true",
                        help="also run every targeted corruption")
    parser.add_argument("--max-dim", type=int, default=3)
    parser.add_argument("--max-len", type=int, default=2)
    args = parser.parse_args()

    grid = [
        (ExactField(3), parse_group("Z/2")),
        (ExactField(5), parse_group("Z/4")),
        (ExactField(7), parse_group("Z/2 + Z/2")),
    ]
    bound = ax.bounds(args.max_dim, args.max_len)
    ok = True
    for field, group in grid:
        t0 = time.perf_counter()
        report = ax.check_axioms(field, group, bound)
        status = "ok" if report.all_pass else "FAILED"
        ok = ok and report.all_pass
        print(
            f"{str(field):4s} {str(group):12s} N={bound.max_dimension} "
            f"M={bound.max_tensor_length}: {report.passed}/27 "
            f"({len(report.skipped)} skipped) [{time.perf_counter() - t0:.1f}s] {status}"
        )
        for r in report.failed:
            print(f"    axiom {r.index}: {r.detail}")

    if args.mutations:
        field, group = ExactField(5), parse_group("Z/4")
        small = ax.bounds(2, 2)
        print("\ncorrupted models (each should fail exactly its target):")
        sweep_start = time.perf_counter()
        for name, mut in ax.MUTATIONS.items():
            t0 = time.perf_counter()
            model = ax.mutated_model(field, group, small, name)
            report = ax.check_axioms(field, group, small, model)
            elapsed = time.perf_counter() - t0
            failed = sorted(r.index for r in report.failed)
            verdict = "ok" if failed == [mut.axiom] else "UNEXPECTED"
            ok = ok and failed == [mut.axiom]
            print(f"  {name:32s} -> failed {failed} (target {mut.axiom}) "
                  f"[{elapsed:.2f}s] {verdict}")
        print(f"sweep: {len(ax.MUTATIONS)} corrupted models "
              f"[{time.perf_counter() - sweep_start:.2f}s]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
