#!/usr/bin/env python3
"""Print one sha256 over the answers of the `exact-queries` and
`degree-general` benchmark jobs for seeds 1-3, and check that running
every job again gives the same answers.

Usage:
    python scripts/answer_digest.py

Every job is run once, in job-list order. The digest covers the repr of
each job's answer and of every `laurent.all_members` result the jobs make,
so cofactors and refutation points are included: two versions of the
library that print the same digest gave byte-identical answers.
`tests/data/answer_digest.txt` holds the digest that the library must keep.

Then every job is run a second time on the same inputs, whose ideals now
hold the reductions, lattices and point scans that the first pass built.
The script exits 1 if any answer's repr differs from the first pass; the
digest printed is the first pass's.
"""

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from diagcat import laurent as la  # noqa: E402
import jobs  # noqa: E402

SEEDS = (1, 2, 3)
WORKLOADS = ("exact-queries", "degree-general")


def _answers(runs) -> list[str]:
    """The repr of every answer and `all_members` result of one pass over
    `runs`, one line each, in the order they were made."""
    lines = []
    all_members = la.all_members

    def recording(*args):
        out = all_members(*args)
        lines.append(f"{out!r}\n")
        return out

    la.all_members = recording
    try:
        for seed, job in runs:
            lines.append(f"{seed} {job.id} {job.run()!r}\n")
    finally:
        la.all_members = all_members
    return lines


def answer_digest() -> str:
    """The sha256 of the first pass's answers; ValueError when the second,
    warm pass answers differently."""
    runs = [
        (seed, job)
        for seed in SEEDS
        for workload in WORKLOADS
        for job in jobs.WORKLOADS[workload](random.Random(seed))
    ]
    cold = _answers(runs)
    warm = _answers(runs)
    if warm != cold:
        raise ValueError("the warm pass answers differently from the first")
    return hashlib.sha256("".join(cold).encode()).hexdigest()


if __name__ == "__main__":
    try:
        print(answer_digest())
    except ValueError as err:
        sys.exit(str(err))
