"""A fixed reference computation that measures how fast this machine runs
Python right now, and the scaling of job times by it.

The benchmark's machine is shared, and its speed drifts: over five minutes,
20-second windows of fixed diagcat jobs ran from 25% faster to 45% slower
than their median, all jobs together, while process CPU time kept matching
wall time (the slowdown is in shared cores and caches, not descheduling).
Medians inside a run cannot remove a slow period that covers the whole run.
So the run times this computation between jobs and scales its job times
by `factor()` of all the run's reference samples. A slower program still
reads slower by the same factor; a slower machine reads about the same.

Programs slow down less than this small reference when the machine is
busy. Over 31 thirty-second runs of the three workloads, taken while the
reference's run median ranged over 19-39 ms, raw pass time grew as the
reference time to the power 0.72 (pooled slope of the logs; 0.57 for
axiom-sweep, 0.76 for degree-general, 0.80 for exact-queries). A later set
of 30 runs gave 0.68 (0.64, 0.67, 0.72). Full scaling would make a busy
period read too fast, so the factor is `(NOMINAL_S / reference) **
EXPONENT`. On that later set, scaling by the run's median reference cut
the quartile spread of pass time over ten seeds from 17-26% (raw) to
4-8%.

The mix follows diagcat's hot paths without calling diagcat: row reduction
over Fractions and modulo a prime on lists of lists, products of sparse
polynomials stored as dicts of exponent tuples, lookups and hashing of
small frozen dataclasses, and a plain bytecode loop.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

# median reference time on a quiet 2-core x86-64 container, CPython 3.11
NOMINAL_S = 0.02
EXPONENT = 0.7

_rng = random.Random(7)
_Q_ROWS = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(9)] for _ in range(8)]
_P_ROWS = [[_rng.randrange(101) for _ in range(36)] for _ in range(30)]
_POLY_A = {tuple(_rng.randrange(3) for _ in range(8)): _rng.randrange(1, 101) for _ in range(40)}
_POLY_B = {tuple(_rng.randrange(3) for _ in range(8)): _rng.randrange(1, 101) for _ in range(25)}


@dataclass(frozen=True)
class _Node:
    key: tuple
    value: int


_NODES = [_Node((i, i * 7 % 13), i) for i in range(8000)]
_PICKS = [_rng.randrange(len(_NODES)) for _ in range(2500)]


def _rref(rows, sub, mul, inv):
    a = [list(r) for r in rows]
    r = 0
    for c in range(len(a[0])):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        s = inv(a[r][c])
        a[r] = [mul(s, x) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [sub(x, mul(f, y)) for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return a


def _poly_mul(p, q, mod):
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = (out.get(e, 0) + c1 * c2) % mod
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _churn():
    counts: dict = {}
    for i in _PICKS:
        node = _NODES[i]
        key = _Node(node.key, node.value + 1)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _loop():
    x = 0
    for i in range(90000):
        x += i & 7
    return x


def work():
    """About equal time in each of the five parts."""
    for _ in range(2):
        _rref(_Q_ROWS, lambda x, y: x - y, lambda x, y: x * y, lambda x: 1 / x)
    _rref(_P_ROWS, lambda x, y: (x - y) % 101, lambda x, y: x * y % 101, lambda x: pow(x, 99, 101))
    for _ in range(3):
        _poly_mul(_POLY_A, _POLY_B, 101)
    _churn()
    _loop()


def sample() -> float:
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Scale for a timing taken among these reference samples (seconds)."""
    return (NOMINAL_S / statistics.median(samples)) ** EXPONENT
