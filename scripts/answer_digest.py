#!/usr/bin/env python3
"""Print one sha256 over the answers of the `exact-queries` and
`degree-general` benchmark jobs for seeds 1-3.

Usage:
    python scripts/answer_digest.py

Every job is run once, in job-list order. The digest covers the repr of
each job's answer and of every `laurent.all_members` result the jobs make,
so cofactors and refutation points are included: two versions of the
library that print the same digest gave byte-identical answers.
`tests/data/answer_digest.txt` holds the digest that the library must keep.
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


def answer_digest() -> str:
    digest = hashlib.sha256()
    all_members = la.all_members

    def recording(*args):
        out = all_members(*args)
        digest.update(f"{out!r}\n".encode())
        return out

    la.all_members = recording
    try:
        for seed in SEEDS:
            for workload in WORKLOADS:
                for job in jobs.WORKLOADS[workload](random.Random(seed)):
                    digest.update(f"{seed} {job.id} {job.run()!r}\n".encode())
    finally:
        la.all_members = all_members
    return digest.hexdigest()


if __name__ == "__main__":
    print(answer_digest())
