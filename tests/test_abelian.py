import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagcat import abelian as ab
from diagcat import field as fm
from diagcat.field import QQ

SRC = Path(__file__).resolve().parents[1] / "src"


def test_add_examples():
    Z = ab.parse_group("Z")
    assert (Z.element([1]) + Z.element([2])).coords == (3,)
    Z4 = ab.parse_group("Z/4")
    assert (Z4.element([3]) + Z4.element([3])).coords == (2,)
    G = ab.parse_group("Z + Z/2")
    assert (G.element([1, 1]) + G.element([2, 1])).coords == (3, 0)


def test_add_owner_mismatch():
    Z = ab.parse_group("Z")
    Z4 = ab.parse_group("Z/4")
    with pytest.raises(ValueError):
        Z.element([1]) + Z4.element([1])


def test_negate_examples():
    Z = ab.parse_group("Z")
    assert (-Z.element([3])).coords == (-3,)
    Z4 = ab.parse_group("Z/4")
    assert (-Z4.element([1])).coords == (3,)
    assert (-Z.element([0])).coords == (0,)


def test_group_operations_match_element():
    """Sums, negatives, differences and multiples reduce their torsion
    coordinates as `element` does from the raw coordinates."""
    G = ab.parse_group("Z^2 + Z/6")
    rng = random.Random(3)
    for _ in range(200):
        a = [rng.randint(-9, 9) for _ in range(3)]
        b = [rng.randint(-9, 9) for _ in range(3)]
        k = rng.randint(-7, 7)
        x, y = G.element(a), G.element(b)
        assert x + y == G.element([s + t for s, t in zip(x.coords, y.coords)])
        assert -x == G.element([-s for s in a])
        assert x - y == G.element([s - t for s, t in zip(a, b)])
        assert x.scale(k) == G.element([k * s for s in a])
        for z in (x + y, -x, x - y, x.scale(k)):
            assert 0 <= z.coords[2] < 6 and all(type(c) is int for c in z.coords)


def test_parse_format_round_trip():
    for text in ["Z", "Z^2 + Z/4", "Z/2 + Z/6", "0"]:
        g = ab.parse_group(text)
        assert ab.parse_group(ab.format_group(g)) == g
    assert ab.parse_group("Z^2 + Z/4").rank == 2
    assert ab.parse_group("Z/6 + Z/2").torsion == (2, 6)


def test_parse_element():
    G = ab.parse_group("Z^2 + Z/4")
    assert ab.parse_element(G, "(3,0,1)").coords == (3, 0, 1)
    assert ab.parse_element(G, "(3, 0, 5)").coords == (3, 0, 1)


def test_bad_groups_rejected():
    with pytest.raises(ValueError):
        ab.FgAbelianGroup(0, (3, 2))  # not divisibility-ordered
    with pytest.raises(ValueError):
        ab.FgAbelianGroup(-1)


@pytest.mark.parametrize("text", ["Z/0", "Z^2 + Z/0", "Z/4 + Z/00"])
def test_zero_cyclic_summand_refused(text):
    # Z/0 is Z, not the trivial group; Z/1 stays trivial
    with pytest.raises(ValueError, match="Z/0"):
        ab.parse_group(text)
    assert ab.parse_group("Z/1") == ab.parse_group("0")
    assert ab.parse_group("Z^2 + Z/1") == ab.parse_group("Z^2")


def test_elements_are_lexicographic():
    G = ab.parse_group("Z/2 + Z/6")
    coords = [e.coords for e in G.elements()]
    assert coords == sorted(coords) and len(set(coords)) == 12
    assert ab.parse_group("0").elements() == [ab.parse_group("0").zero()]


# ---------------------------------------------------------------------------
# Invariant factors


def _invariant_factors_oracle(ds):
    """Elementary divisors: split each d into prime powers, then rebuild the
    k-th largest invariant factor from each prime's k-th largest exponent."""
    exponents: dict[int, list[int]] = {}
    for d in ds:
        p = 2
        while d > 1:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                exponents.setdefault(p, []).append(e)
            p += 1
    n = max((len(es) for es in exponents.values()), default=0)
    factors = [1] * n
    for p, es in exponents.items():
        for k, e in enumerate(sorted(es, reverse=True)):
            factors[k] *= p**e
    return sorted(factors)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 30), max_size=5))
def test_normalize_torsion_matches_elementary_divisors(ds):
    assert ab.normalize_torsion(ds) == _invariant_factors_oracle(ds)


def test_normalize_torsion_examples():
    assert ab.normalize_torsion([]) == []
    assert ab.normalize_torsion([1, 1]) == []
    assert ab.normalize_torsion([4, 6]) == [2, 12]
    assert ab.parse_group("Z/4 + Z/6") == ab.parse_group("Z/2 + Z/12")
    assert ab.parse_group("Z/2 + Z/3") == ab.parse_group("Z/6")


# ---------------------------------------------------------------------------
# The Hermite core


@st.composite
def int_matrices(draw, max_side=6, bound=1000):
    """Up to max_side x max_side, with many zero entries and zero rows."""
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    entry = st.one_of(st.just(0), st.integers(-bound, bound))
    row = st.one_of(
        st.builds(lambda: [0] * cols),
        st.lists(entry, min_size=cols, max_size=cols),
    )
    return draw(st.lists(row, min_size=rows, max_size=rows))


@settings(max_examples=100, deadline=None)
@given(int_matrices())
def test_hermite_transform(rows):
    h, u = ab._hermite(rows)
    assert fm.mat_mul(QQ, u, rows) == h
    assert abs(fm.det(QQ, u)) == 1
    rank = sum(1 for row in h if any(row))
    assert not any(any(row) for row in h[rank:])  # zero rows last
    assert _is_hermite(h[:rank])
    assert ab.row_hermite_basis(rows) == h[:rank]


# ---------------------------------------------------------------------------
# Smith normal form


def _snf_invariants(m):
    u, d, v = ab.smith_normal_form(m)
    rows, cols = len(m), len(m[0])
    assert fm.mat_mul(QQ, fm.mat_mul(QQ, u, m), v) == d
    assert abs(fm.det(QQ, u)) == 1
    assert abs(fm.det(QQ, v)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert all(x >= 0 for x in diag)
    return diag


def test_snf_examples():
    # multiplication oracle checks U*M*V = D inside _snf_invariants
    assert _snf_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert _snf_invariants([[1, 0], [0, 1]]) == [1, 1]
    # gcd oracle for the 1x2 case
    assert _snf_invariants([[2, 4]]) == [2]


@settings(max_examples=100, deadline=None)
@given(int_matrices())
def test_snf_random(m):
    _snf_invariants(m)


# ---------------------------------------------------------------------------
# Relation lattices


def _lattice_member(basis, u):
    """Membership in the row lattice of an echelon basis (greedy reduction)."""
    u = list(u)
    for row in basis:
        piv = next((c for c, x in enumerate(row) if x != 0), None)
        if piv is None:
            continue
        if u[piv] % row[piv] == 0:
            q = u[piv] // row[piv]
            u = [a - q * b for a, b in zip(u, row)]
    return all(x == 0 for x in u)


def _relation_bruteforce(weights, box=3):
    """Oracle: all u with |u_i| <= box and sum u_i a_i = 0."""
    import itertools

    group = weights[0].group
    out = []
    for u in itertools.product(range(-box, box + 1), repeat=len(weights)):
        acc = group.zero()
        for c, w in zip(u, weights):
            acc = acc + w.scale(c)
        if acc.is_zero():
            out.append(u)
    return out


def test_relation_lattice_examples():
    Z = ab.parse_group("Z")
    basis = ab.relation_lattice([Z.element([1]), Z.element([2])])
    assert _lattice_member(basis, (2, -1)) and _lattice_member(basis, (-2, 1))
    assert not _lattice_member(basis, (1, 0))

    Z2 = ab.parse_group("Z/2")
    basis = ab.relation_lattice([Z2.element([1])])
    assert basis == [[2]]

    basis = ab.relation_lattice([Z.element([1]), Z.element([1])])
    assert _lattice_member(basis, (1, -1))
    assert not _lattice_member(basis, (1, 1))


def _is_hermite(basis):
    """Echelon rows, positive pivots, entries above a pivot in [0, pivot)."""
    last = -1
    for i, row in enumerate(basis):
        c = next(c for c, x in enumerate(row) if x != 0)
        if c <= last or row[c] <= 0:
            return False
        if any(not 0 <= above[c] < row[c] for above in basis[:i]):
            return False
        last = c
    return True


def test_row_hermite_basis_is_canonical():
    rng = random.Random(8)
    Z = ab.parse_group("Z")
    lattice = ab.relation_lattice([Z.element([k]) for k in (1, 2, 3, 4)])
    assert _is_hermite(lattice)
    outputs = set()
    for _ in range(200):
        # a random unimodular transform: elementary row operations and swaps
        rows = [list(r) for r in lattice]
        for _ in range(8):
            i, j = rng.sample(range(len(rows)), 2)
            q = rng.randint(-4, 4)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
            if rng.random() < 0.3:
                rows[i], rows[j] = rows[j], rows[i]
        outputs.add(tuple(map(tuple, ab.row_hermite_basis(rows))))
    assert outputs == {tuple(map(tuple, lattice))}


def test_relation_lattice_hermite_examples():
    Z7 = ab.parse_group("Z/7")
    basis = ab.relation_lattice([Z7.element([k]) for k in (1, 2, 4)])
    assert basis == [[1, 0, 5], [0, 1, 3], [0, 0, 7]]


def test_relation_lattice_empty():
    assert ab.relation_lattice([]) == []


FIVE_WEIGHTS_Z4 = [
    [483, 151, -791, -937],
    [-517, 116, 507, -268],
    [-828, -268, 773, -428],
    [-190, 210, -707, 862],
    [-725, -855, -937, -573],
]


def test_relation_lattice_of_five_weights_in_z4_returns():
    """A case on which the former Smith loop never returned. It runs in a
    child process, so that a hang fails the test instead of stalling it."""
    code = (
        "import json, sys\n"
        "from diagcat import abelian as ab\n"
        "G = ab.parse_group('Z^4')\n"
        "ws = [G.element(w) for w in json.loads(sys.argv[1])]\n"
        "print(json.dumps(ab.relation_lattice(ws)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(FIVE_WEIGHTS_Z4)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    basis = json.loads(proc.stdout)
    # five weights of rank 4 have a rank-1 relation lattice: one primitive row
    assert len(basis) == 1
    (u,) = basis
    assert math.gcd(*u) == 1
    for c in range(4):
        assert sum(x * w[c] for x, w in zip(u, FIVE_WEIGHTS_Z4)) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_relation_lattice_bruteforce(seed):
    rng = random.Random(seed)
    group = rng.choice(
        [ab.parse_group("Z"), ab.parse_group("Z/4"), ab.parse_group("Z + Z/2")]
    )
    m = rng.randint(1, 3)
    weights = [
        group.element([rng.randint(-2, 2) for _ in range(group.ncoords)])
        for _ in range(m)
    ]
    basis = ab.relation_lattice(weights)
    assert _is_hermite(basis)
    # every relation found by brute force lies in the computed lattice
    for u in _relation_bruteforce(weights):
        assert _lattice_member(basis, u), (weights, u, basis)
    # every basis row is a genuine relation
    for row in basis:
        acc = group.zero()
        for c, w in zip(row, weights):
            acc = acc + w.scale(c)
        assert acc.is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_group_axioms(seed):
    rng = random.Random(seed)
    group = rng.choice(
        [ab.parse_group("Z^2"), ab.parse_group("Z/6"), ab.parse_group("Z + Z/4")]
    )

    def rand():
        return group.element([rng.randint(-5, 5) for _ in range(group.ncoords)])

    x, y, z = rand(), rand(), rand()
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + group.zero() == x
    assert (x + (-x)).is_zero()
