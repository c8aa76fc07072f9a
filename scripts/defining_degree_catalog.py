#!/usr/bin/env python3
"""Compute defining degrees for the study catalog and print the truncation
chain of each group with its membership certificates.

Usage:
    python scripts/defining_degree_catalog.py [--field Q] [--dmax 4] [--cap 6]

Exits 1 when a membership witness of a found degree does not re-verify.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from diagcat import laurent as la
from diagcat import stab
from diagcat.field import parse_field


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--field", default="Q")
    parser.add_argument("--dmax", type=int, default=4)
    parser.add_argument("--cap", type=int, default=6)
    args = parser.parse_args()
    field = parse_field(args.field)

    ok = True
    for name, pres in la.catalog(field).items():
        t0 = time.time()
        res = stab.defining_degree(pres, args.dmax, args.cap)
        if res.status == "found":
            witnesses_ok = res.witness_ok()
            ok = ok and witnesses_ok
            cert = "certified" if res.minimality_certified else "at cap"
            print(
                f"{name:22s} defining degree {res.degree} ({cert}, "
                f"witnesses {'ok' if witnesses_ok else 'BAD'}) "
                f"[{time.time()-t0:.2f}s]"
            )
            for d in range(res.degree + 1):
                trunc = la.presentation_truncation(pres, d, args.cap)
                gens = ", ".join(
                    la.format_element(g) for g in trunc.generators
                ) or "(none: the full general linear group)"
                print(f"    degree <= {d}: {gens}")
            for r in res.refutations:
                tag = "point certificate" if r.definitive else "cap-relative"
                print(
                    f"    degree {r.d} insufficient for "
                    f"{la.format_element(r.generator)} ({tag})"
                )
        else:
            print(f"{name:22s} {res.status} (dmax={args.dmax}, cap={args.cap})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
