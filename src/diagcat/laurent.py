"""The coordinate ring of GL_n as k[Z, W] modulo ZW = WZ = I.

A ring element is a `SparsePoly` representative in the 2n^2 matrix
variables, Z[i,j] then W[i,j] (`z_index`, `w_index`); n is not stored, and
`format_element` and `comultiply` recover it from the number of variables.
The comultiplication of an element is a `SparsePoly` in 4n^2 variables,
the left tensor factor's 2n^2 and then the right's. The degree of an
element means the total degree of the stored representative, and
membership in the degree filtration is a statement about the existence of
some representative, decided against the relation ideal with a cofactor
degree cap. A `LaurentIdeal` carries its field and n, since an ideal with
no generators still has a ring, and checks that its generators lie in it.

Ideals always implicitly contain the relation ideal. A generator that is a
single variable eliminates it, once per ideal (`_reduction`), for the solve
and the slice alike. A membership question takes one path: `_capped_solve`
looks for cofactors of degree <= cap in the other variables, and
`ideal_membership` gives any other answer than `member` one scan for a
refutation point, a point of GL_n where the ideal vanishes and f does not.
`ideal_membership_ascending` runs cap 0 that way, then one solve per larger
cap, up to the first member or definitive negative. `all_members` asks that
of several elements with one shared `PointScan`. The scan tests a fixed
stream of points in windows of 1, 2, 4, ... points, evaluating each
polynomial at a whole window at once from per-coordinate columns
(`SparsePoly.evaluate_columns`); a refutation point is the first point of
the stream where I vanishes and f does not, whatever the order of the
generators. `member` carries expandable cofactor witnesses, lifted back to
k[Z, W]; `not_member_up_to(D)` means no representation with cofactors of
degree <= D for the generators that are not single variables (definitive
only beyond the Hermann bound, so the cap is always reported), unless a
refutation point makes it definitive.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache

from . import sparsepoly as sp
from .abelian import FgAbelianGroup, GroupElement, relation_lattice
from .field import ExactField
from . import field as fieldmod
from .sparsepoly import SparsePoly


# ---------------------------------------------------------------------------
# Elements


def z_index(n: int, i: int, j: int) -> int:
    """0-based variable index of Z[i+1, j+1]."""
    return i * n + j


def w_index(n: int, i: int, j: int) -> int:
    return n * n + i * n + j


def _matrix_size(f: SparsePoly) -> int:
    """The n of GL_n whose coordinate ring holds f: f has 2n^2 variables."""
    n = math.isqrt(f.nvars // 2)
    if n < 1 or 2 * n * n != f.nvars:
        raise ValueError(f"{f.nvars} variables are not the entries of Z and W")
    return n


def lau_zero(field: ExactField, n: int) -> SparsePoly:
    return sp.zero(field, 2 * n * n)


def lau_const(field: ExactField, n: int, c) -> SparsePoly:
    return sp.constant(field, 2 * n * n, c)


def z_var(field: ExactField, n: int, i: int, j: int) -> SparsePoly:
    return sp.variable(field, 2 * n * n, z_index(n, i, j))


def w_var(field: ExactField, n: int, i: int, j: int) -> SparsePoly:
    return sp.variable(field, 2 * n * n, w_index(n, i, j))


def lau_monomial(field: ExactField, n: int, exps, c=1) -> SparsePoly:
    return sp.monomial(field, 2 * n * n, exps, c)


def antipode(f: SparsePoly) -> SparsePoly:
    """Swap Z <-> W on representatives; an involution preserving degree."""
    nvars = f.nvars
    swap = [sp.variable(f.field, nvars, (i + nvars // 2) % nvars) for i in range(nvars)]
    return f.substitute(swap)


def evaluate_at_point(f: SparsePoly, zmat, wmat):
    """Value at a point of GL_n given as the pair (g, g^{-1})."""
    values = [x for row in zmat for x in row] + [x for row in wmat for x in row]
    return f.evaluate(values)


# ---------------------------------------------------------------------------
# Text format: Z[1,1]^2 - Z[2,2], W[1,2], 3, 1/2*Z[1,1]


_TOKEN = re.compile(
    r"\s*(?:(?P<var>[ZW])\[(?P<i>\d+),(?P<j>\d+)\](?:\^(?P<pow>\d+))?"
    r"|(?P<num>\d+(?:/\d+)?)|(?P<op>[+\-*]))"
)


def parse_element(field: ExactField, n: int, text: str) -> SparsePoly:
    """A sum of signed products of factors (numbers and Z/W entries with
    optional powers). Consecutive signs multiply, adjacent factors multiply,
    and a `*` must stand between two factors."""
    from fractions import Fraction

    pos = 0
    result = lau_zero(field, n)
    sign = 1
    current: SparsePoly | None = None
    after_op = after_star = False
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot parse {text[pos:]!r}")
        pos = m.end()
        op = m.group("op")
        after_op = op is not None
        if op == "*":
            if current is None or after_star:
                raise ValueError(f"'*' not between two factors in {text!r}")
            after_star = True
            continue
        if op is not None:
            if after_star:
                raise ValueError(f"'*' not between two factors in {text!r}")
            if current is not None:
                result = result + current.scale(sign)
                current, sign = None, 1
            sign = sign if op == "+" else -sign
            continue
        after_star = False
        if m.group("num"):
            factor = lau_const(field, n, field.of(Fraction(m.group("num"))))
        else:
            i, j = int(m.group("i")) - 1, int(m.group("j")) - 1
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"index out of range in {m.group(0)!r}")
            v = z_var(field, n, i, j) if m.group("var") == "Z" else w_var(field, n, i, j)
            factor = v.pow(int(m.group("pow") or 1))
        current = factor if current is None else current * factor
    if after_op:
        raise ValueError(f"{text!r} ends in an operator")
    if current is not None:
        result = result + current.scale(sign)
    return result


def _format_monomial(n: int, exps) -> str:
    parts = []
    nn = n * n
    for idx, e in enumerate(exps):
        if e == 0:
            continue
        if idx < nn:
            name = f"Z[{idx // n + 1},{idx % n + 1}]"
        else:
            k = idx - nn
            name = f"W[{k // n + 1},{k % n + 1}]"
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def format_element(f: SparsePoly) -> str:
    n = _matrix_size(f)
    if f.is_zero():
        return "0"
    terms = sorted(f.terms, key=lambda t: (-sum(t[0]), t[0]))
    out = []
    for e, c in terms:
        mono = _format_monomial(n, e)
        if not mono:
            s = str(c)
        elif c == f.field.one():
            s = mono
        elif c == f.field.neg(f.field.one()) and f.field.p is None:
            s = f"-{mono}"
        else:
            s = f"{c}*{mono}"
        if out and not s.startswith("-"):
            out.append("+ " + s)
        elif out:
            out.append("- " + s[1:])
        else:
            out.append(s)
    return " ".join(out)


# ---------------------------------------------------------------------------
# Comultiplication


def comultiply(f: SparsePoly) -> SparsePoly:
    """Substitute Z[i,j] -> sum_l Z[i,l] (x) Z[l,j] and
    W[i,j] -> sum_l W[l,j] (x) W[i,l]. The tensor square is stored as a
    polynomial in 4n^2 variables: the left factor's 2n^2, then the right's."""
    n, k = _matrix_size(f), f.field
    m = f.nvars

    def tensor(left: int, right: int) -> SparsePoly:
        return sp.variable(k, 2 * m, left) * sp.variable(k, 2 * m, m + right)

    images = [sp.zero(k, 2 * m) for _ in range(m)]
    for i in range(n):
        for j in range(n):
            zi, wi = z_index(n, i, j), w_index(n, i, j)
            for l in range(n):
                images[zi] = images[zi] + tensor(z_index(n, i, l), z_index(n, l, j))
                images[wi] = images[wi] + tensor(w_index(n, l, j), w_index(n, i, l))
    return f.substitute(images)


# ---------------------------------------------------------------------------
# Ideals


@dataclass(frozen=True)
class LaurentIdeal:
    field: ExactField
    n: int
    generators: tuple[SparsePoly, ...]
    name: str = ""

    def __post_init__(self):
        ring = (self.field, 2 * self.n * self.n)
        if any((g.field, g.nvars) != ring for g in self.generators):
            raise ValueError("every generator must lie in k[Z, W] of the ideal")


def _relation_entry(field: ExactField, n: int, i: int, j: int, left, right):
    """Entry (i, j) of XY - I for X, Y the variable matrices indexed by `left`
    and `right` (`z_index` or `w_index`): n + 1 terms, built directly."""
    nvars = 2 * n * n
    terms = {}
    for l in range(n):
        e = [0] * nvars
        e[left(n, i, l)] = 1
        e[right(n, l, j)] = 1
        terms[tuple(e)] = field.one()
    if i == j:
        terms[(0,) * nvars] = field.neg(field.one())
    return sp.from_dict(field, nvars, terms)


@lru_cache(maxsize=32)
def relation_generators(field: ExactField, n: int) -> tuple[SparsePoly, ...]:
    """Entries of ZW - I and WZ - I."""
    pairs = ((z_index, w_index), (w_index, z_index))
    return tuple(
        _relation_entry(field, n, i, j, left, right)
        for left, right in pairs
        for i in range(n)
        for j in range(n)
    )


def hermann_bound(d: int, n: int) -> int:
    """Cofactor degree bound (2d)^(2^v) with v = 2n^2 ring variables."""
    v = 2 * n * n
    return (2 * max(d, 1)) ** (2**v)


@dataclass(frozen=True)
class SubgroupPresentation:
    """A closed subgroup of GL_n presented by an ideal of k[Z, W].

    `weights` is set when the group is presented as the image of a
    diagonalizable group acting with the given characters; it enables exact
    degree-slice computation.
    """

    field: ExactField
    n: int
    ideal: LaurentIdeal
    weights: tuple[GroupElement, ...] | None = None
    name: str = ""


# ---------------------------------------------------------------------------
# Membership


@dataclass(frozen=True)
class MembershipResult:
    """The answer of `ideal_membership`. `cap` bounds the degrees of the
    cofactors of the generators that are not single variables; the
    cofactor of an eliminated (single-variable) generator may exceed it."""

    status: str  # 'member' | 'not_member_up_to' | 'unknown'
    cap: int
    cofactors: tuple | None = None  # ((generator, cofactor), ...) when member
    refutation_point: tuple | None = None  # (zmat, wmat) witnessing f(pt) != 0
    definitive: bool = False

    @property
    def is_member(self) -> bool:
        return self.status == "member"


def verify_membership_witness(f: SparsePoly, result: MembershipResult) -> bool:
    if not result.is_member or result.cofactors is None:
        return False
    acc = sp.zero(f.field, f.nvars)
    for g, h in result.cofactors:
        acc = acc + g * h
    return acc == f


def _offdiag_indices(n: int) -> list[int]:
    out = []
    for i in range(n):
        for j in range(n):
            if i != j:
                out.append(z_index(n, i, j))
                out.append(w_index(n, i, j))
    return out


def _offdiag_variables(field: ExactField, n: int) -> list[SparsePoly]:
    """Z[i,j], W[i,j] for i != j, in `_offdiag_indices` order."""
    return [sp.variable(field, 2 * n * n, idx) for idx in _offdiag_indices(n)]


def _is_single_variable(f: SparsePoly) -> int | None:
    if len(f.terms) != 1:
        return None
    e, c = f.terms[0]
    if c != f.field.one() or sum(e) != 1:
        return None
    return e.index(1)


def _diagonal_exponents(n: int, e) -> tuple:
    """Exponents over (z_11..z_nn, w_11..w_nn) as exponents of k[Z, W]."""
    big = [0] * (2 * n * n)
    for i in range(n):
        big[z_index(n, i, i)] = e[i]
        big[w_index(n, i, i)] = e[n + i]
    return tuple(big)


def _eliminate(p: SparsePoly, kept: list[int]) -> SparsePoly:
    """p modulo every variable not in `kept`, as a polynomial in the kept
    variables (in the order given): the terms free of the other variables."""
    terms = {}
    for e, c in p.terms:
        small = tuple(e[k] for k in kept)
        if sum(small) == sum(e):
            terms[small] = c
    return sp.from_dict(p.field, len(kept), terms)


def _embed(p: SparsePoly, kept: list[int], nvars: int) -> SparsePoly:
    """The inverse of `_eliminate` on its image: kept variable i becomes
    variable kept[i] of a ring in `nvars` variables."""
    terms = {}
    for e, c in p.terms:
        big = [0] * nvars
        for k, x in zip(kept, e):
            big[k] = x
        terms[tuple(big)] = c
    return sp.from_dict(p.field, nvars, terms)


@lru_cache(maxsize=32)
def _reduction(I: LaurentIdeal):
    """The elimination of I's single-variable generators, cached and shared
    (k[x]/(x_k : k in E) = k[x_j : j not in E], Cox-Little-O'Shea): {k in E:
    the first generator x_k}, the kept variables, and (g, r) for each g of I
    then of the relations with a nonzero reduction r into them, repeats too."""
    eliminated: dict[int, SparsePoly] = {}
    for g in I.generators:
        idx = _is_single_variable(g)
        if idx is not None:
            eliminated.setdefault(idx, g)
    kept = [k for k in range(2 * I.n * I.n) if k not in eliminated]
    gens = (*I.generators, *relation_generators(I.field, I.n))
    pairs = [(g, _eliminate(g, kept)) for g in gens]
    return eliminated, kept, [(g, r) for g, r in pairs if not r.is_zero()]


def _solve_cofactors(field, gens: list[SparsePoly], f: SparsePoly, cap: int):
    """Solve f = sum h_i g_i with deg h_i <= cap in a small polynomial ring.

    One sparse row per monomial of the products m*g_i: the unknown coefficient
    of m in h_i is a column, f's coefficient sits in the last column. The
    system is inconsistent exactly when `echelon` puts a pivot there;
    otherwise free unknowns are 0. Returns list of cofactor SparsePolys or
    None."""
    if not gens:
        return None if not f.is_zero() else []
    nvars = gens[0].nvars
    cof_monos = sp.monomials_up_to(nvars, cap)
    columns = []  # (gen_index, monomial_exps)
    rows: dict[tuple, dict] = {}
    for gi, g in enumerate(gens):
        for m in cof_monos:
            col = len(columns)
            columns.append((gi, m))
            for e, c in g.terms:
                prod = tuple(x + y for x, y in zip(m, e))
                rows.setdefault(prod, {})[col] = c
    rhs = len(columns)
    for e, c in f.terms:
        rows.setdefault(e, {})[rhs] = c
    sol = fieldmod.solve_echelon(field, fieldmod.echelon(field, rows.values()), rhs)
    if sol is None:
        return None
    cofs = [sp.zero(field, nvars) for _ in gens]
    for (gi, m), x in zip(columns, sol):
        if x != field.zero():
            cofs[gi] = cofs[gi] + sp.monomial(field, nvars, m, x)
    return cofs


def _solve_work_estimate(nvars: int, ngens: int, cap: int, max_deg: int) -> int:
    cols = math.comb(nvars + cap, cap) * ngens
    rows = math.comb(nvars + cap + max_deg, cap + max_deg)
    return rows * cols * min(rows, cols)


def _work_budget(field: ExactField) -> int:
    # rational pivoting is an order of magnitude slower than mod-p ints
    return 4 * 10**7 if field.p is None else 4 * 10**8


def _capped_solve(f: SparsePoly, I: LaurentIdeal, cap: int) -> MembershipResult:
    """One cofactor solve of f = sum h_i g_i over the generators of I and the
    relation ideal: `member` with expandable witnesses, `not_member_up_to`
    (never definitive) or `unknown` when the solve is over the work budget.

    The generators come reduced into the variables that I's single-variable
    generators leave (`_reduction`), repeated reductions are dropped, and one
    cofactor solve with deg h_i <= cap runs in the kept variables. The
    witness is lifted back: each term of the remainder f - sum h_i g_i goes
    to the generator of its lowest-index eliminated variable, so the cap
    bounds the cofactors of the generators that are not single variables,
    and an eliminated generator's cofactor may exceed it."""
    field, n = I.field, I.n
    nvars = 2 * n * n
    if (f.field, f.nvars) != (field, nvars):
        raise ValueError("f is not in the ring of the ideal")
    if cap < 0:
        raise ValueError("cofactor degree cap must be >= 0")
    if f.is_zero():
        return MembershipResult("member", cap, ())

    eliminated, kept, reductions = _reduction(I)
    gens, reduced, seen = [], [], set()
    for g, r in reductions:
        if r.terms not in seen:
            seen.add(r.terms)
            gens.append(g)
            reduced.append(r)
    max_deg = max([r.degree() for r in reduced] + [f.degree()])
    if _solve_work_estimate(len(kept), len(reduced), cap, max_deg) > _work_budget(field):
        return MembershipResult("unknown", cap)
    cofs = _solve_cofactors(field, reduced, _eliminate(f, kept), cap)
    if cofs is None:
        return MembershipResult("not_member_up_to", cap)
    pairs = [
        (g, _embed(h, kept, nvars)) for g, h in zip(gens, cofs) if not h.is_zero()
    ]
    if not eliminated:
        return MembershipResult("member", cap, tuple(pairs))
    remainder = f
    for g, h in pairs:
        remainder = remainder - g * h
    lifted: dict[int, dict] = {}
    # a term free of eliminated variables stays unassigned, so the
    # re-verification below fails on it
    for e, c in remainder.terms:
        k = min((k for k in eliminated if e[k]), default=None)
        if k is not None:
            lifted.setdefault(k, {})[e[:k] + (e[k] - 1,) + e[k + 1 :]] = c
    pairs += [
        (g, sp.from_dict(field, nvars, lifted[k]))
        for k, g in eliminated.items()
        if k in lifted
    ]
    result = MembershipResult("member", cap, tuple(pairs))
    if not verify_membership_witness(f, result):
        raise RuntimeError("lifted membership witness does not re-verify")
    return result


def ideal_membership(
    f: SparsePoly,
    I: LaurentIdeal,
    cofactor_degree_cap: int,
    scan: PointScan | None = None,
) -> MembershipResult:
    """Decide f = sum h_i g_i over the generators of I and the relation
    ideal by one capped solve (see `_capped_solve`). Any answer other than
    `member` then gets one `find_refutation_point(f, I, scan)`; a point
    makes it a definitive `not_member_up_to` at this cap."""
    result = _capped_solve(f, I, cofactor_degree_cap)
    if result.is_member:
        return result
    pt = find_refutation_point(f, I, scan)
    if pt is None:
        return result
    return MembershipResult("not_member_up_to", result.cap, None, pt, True)


def ideal_membership_ascending(
    f: SparsePoly, I: LaurentIdeal, max_cap: int, scan: PointScan | None = None
) -> MembershipResult:
    """Cap 0 through `ideal_membership`, which scans for a refutation point
    once, then one capped solve at each cap 1..max_cap; the first member or
    definitive negative ends the ladder. Pass a `PointScan` of I as `scan`
    to share the zero points across calls on the same ideal."""
    if max_cap < 0:
        raise ValueError("cofactor degree cap must be >= 0")
    result = ideal_membership(f, I, 0, scan)
    for cap in range(1, max_cap + 1):
        if result.is_member or result.definitive:
            break
        result = _capped_solve(f, I, cap)
    return result


def all_members(fs, I: LaurentIdeal, max_cap: int) -> tuple[tuple, tuple | None]:
    """Ascend each f of `fs` in turn against I, sharing one `PointScan` of I.
    Returns the ((f, member result), ...) found before the first f not shown
    a member, and that (f, result), or None when every f is a member."""
    scan = PointScan(I)
    witnesses = []
    for f in fs:
        result = ideal_membership_ascending(f, I, max_cap, scan)
        if not result.is_member:
            return tuple(witnesses), (f, result)
        witnesses.append((f, result))
    return tuple(witnesses), None


# ---------------------------------------------------------------------------
# Points and refutation certificates


def matrix_inverse_exact(field, m):
    try:
        return fieldmod.inverse(field, m)
    except ValueError:
        return None


def _diagonal_point(field: ExactField, entries):
    """The pair (g, g^{-1}) for g the diagonal matrix of the given units."""
    n = len(entries)
    zero = field.zero()
    g = [[entries[i] if i == j else zero for j in range(n)] for i in range(n)]
    ginv = [
        [field.inv(entries[i]) if i == j else zero for j in range(n)]
        for i in range(n)
    ]
    return g, ginv


def candidate_points(field: ExactField, n: int):
    """Deterministic stream of invertible matrices (as (g, g^{-1}) pairs):
    diagonal grids first, then, over small finite fields, all of GL_n."""
    if field.is_finite:
        diag_entries = field.units()
    else:
        from fractions import Fraction

        diag_entries = [
            Fraction(1),
            Fraction(-1),
            Fraction(2),
            Fraction(-2),
            Fraction(3),
            Fraction(1, 2),
            Fraction(5),
        ]
    for diag in itertools.product(diag_entries, repeat=n):
        yield _diagonal_point(field, diag)
    # elementary transvections and permutation matrices reach coordinates a
    # diagonal grid cannot refute
    one = field.one()
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            g = [[one if a == b else field.zero() for b in range(n)] for a in range(n)]
            g[i][j] = one
            ginv = matrix_inverse_exact(field, g)
            if ginv is not None:
                yield g, ginv
    for perm in itertools.permutations(range(n)):
        g = [
            [one if perm[a] == b else field.zero() for b in range(n)]
            for a in range(n)
        ]
        ginv = matrix_inverse_exact(field, g)
        yield g, ginv
    if field.is_finite and n <= 2 and field.p <= 7:
        elems = field.elements()
        for entries in itertools.product(elems, repeat=n * n):
            g = [list(entries[i * n : (i + 1) * n]) for i in range(n)]
            ginv = matrix_inverse_exact(field, g)
            if ginv is not None:
                yield g, ginv


@lru_cache(maxsize=32)
def _point_list(field: ExactField, n: int, limit: int = 3000):
    out = []
    for pt in candidate_points(field, n):
        out.append(
            (tuple(tuple(row) for row in pt[0]), tuple(tuple(row) for row in pt[1]))
        )
        if len(out) >= limit:
            break
    return tuple(out)


@lru_cache(maxsize=32)
def _point_columns(field: ExactField, n: int) -> tuple:
    """`_point_list(field, n)` by coordinate: one column of values per
    variable, Z then W in `z_index`/`w_index` order, for
    `SparsePoly.evaluate_columns`."""
    points = _point_list(field, n)
    return tuple(
        tuple(pt[half][i][j] for pt in points)
        for half in (0, 1)
        for i in range(n)
        for j in range(n)
    )


class PointScan:
    """The points of `_point_list(I.field, I.n)` where every generator of I
    vanishes, found lazily in stream order and shared by every
    `find_refutation_point` call given this scan.

    The stream is tested in windows of 1, 2, 4, ... points. In a window each
    generator is evaluated, column-wise, only at the points the generators
    before it did not rule out, so each (generator, point) pair is evaluated
    at most once; the next window tries first the generators that ruled out
    the most points in this one. Whether every generator vanishes at a point
    does not depend on that order, so `find_refutation_point` gives the same
    answer as with a fresh scan: the first point, in `_point_list` order,
    where every generator of I vanishes and f does not. A fresh scan whose
    first such point is stream point k has tested at most 2k + 1 points.
    A scan holds no state outside itself; make one per ideal inside the call
    that asks about several f, as `all_members` does."""

    def __init__(self, I: LaurentIdeal):
        self.ideal = I
        self.points = _point_list(I.field, I.n)
        self.columns = _point_columns(I.field, I.n)
        self._order = list(I.generators)
        self._batches: list[list[int]] = []  # each window's zero rows
        self._scanned = 0  # number of stream points tested

    def _scan_window(self) -> None:
        """Test the next window of the stream and record its zero rows."""
        stop = min(len(self.points), 2 * self._scanned + 1)
        rows = list(range(self._scanned, stop))
        order = self._order
        removed = [0] * len(order)
        for k, h in enumerate(order):
            if not rows:
                break
            values = h.evaluate_columns(self.columns, rows)
            kept = [r for r, v in zip(rows, values) if not v]
            removed[k] = len(rows) - len(kept)
            rows = kept
        ranked = sorted(range(len(order)), key=lambda k: -removed[k])
        self._order = [order[k] for k in ranked]
        self._batches.append(rows)
        self._scanned = stop

    def zero_batches(self):
        """The zero rows of I in stream order, one nonempty list per window:
        those found so far, then the ones further scanning finds."""
        k = 0
        while k < len(self._batches) or self._scanned < len(self.points):
            if k == len(self._batches):
                self._scan_window()
            if self._batches[k]:
                yield self._batches[k]
            k += 1


def find_refutation_point(
    f: SparsePoly, I: LaurentIdeal, scan: PointScan | None = None
):
    """A point (g, g^{-1}) where every generator of I vanishes and f does
    not, which certifies that f is not in I + relations; None when the
    stream has no such point. The answer is the first such point in
    `_point_list` order, whatever the order of I's generators. f is
    evaluated column-wise at each window's zero points in turn. `scan`, a
    `PointScan` of I, reuses the zero points earlier calls found; without
    it a one-off scan is made."""
    if scan is None:
        scan = PointScan(I)
    elif scan.ideal != I:
        raise ValueError("the point scan belongs to another ideal")
    for rows in scan.zero_batches():
        for r, v in zip(rows, f.evaluate_columns(scan.columns, rows)):
            if v:
                return scan.points[r]
    return None


# ---------------------------------------------------------------------------
# Degree truncations


@dataclass(frozen=True)
class TruncationResult:
    basis: tuple[SparsePoly, ...]
    complete: bool
    d: int
    cap: int
    generators: tuple[SparsePoly, ...] = ()  # pruned set, same ideal


def _prune_generators(gens) -> tuple[SparsePoly, ...]:
    """Drop monomial multiples of single-variable generators: whenever a kept
    generator is one variable, other generators lose every monomial divisible
    by it (the dropped part is a multiple of the kept generator)."""
    gens = sorted((g for g in gens if not g.is_zero()), key=lambda g: g.degree())
    single_vars: list[int] = []
    kept: list[SparsePoly] = []
    seen = set()
    for g in gens:
        terms = {
            e: c for e, c in g.terms if not any(e[v] > 0 for v in single_vars)
        }
        if not terms:
            continue
        reduced = sp.from_dict(g.field, g.nvars, terms)
        key = reduced.terms
        neg_key = (-reduced).terms
        if key in seen or neg_key in seen:
            continue
        seen.add(key)
        idx = _is_single_variable(reduced)
        if idx is not None:
            single_vars.append(idx)
        kept.append(reduced)
    return tuple(kept)


def truncated_ideal_part(I: LaurentIdeal, d: int, work_cap: int) -> TruncationResult:
    """A basis of a subspace of (I + relations) intersected with the degree
    <= d slice: the span of monomial multiples m*g of degree <= cap, cut
    down by exact row reduction. The span holds every monomial that a
    variable eliminated by `_reduction` divides: each is one unit row in
    degree <= d and no column above. The other rows are m*r, for m free
    of those variables and r the reduction of g, over the monomials of
    degree > d, then those of degree <= d; the basis is the reduced rows
    whose pivot lies in the low part, which are exactly the rows with no
    high-degree term. Complete only when the cap reaches the Hermann
    bound for the largest degree D of d and the generators, plus D."""
    if d < 0 or work_cap < d:
        raise ValueError("need 0 <= d <= work_cap")
    field, n = I.field, I.n
    nvars = 2 * n * n
    gens = (*I.generators, *relation_generators(field, n))
    eliminated, kept, reductions = _reduction(I)
    monos = sp.monomials_up_to(nvars, work_cap)
    free = [e for e in monos if not any(e[k] for k in eliminated)]
    high = [e for e in free if sum(e) > d]
    low = [e for e in monos if sum(e) <= d]
    columns = high + low
    mono_index = {e: j for j, e in enumerate(columns)}
    rows = [{mono_index[e]: field.one()} for e in low if any(e[k] for k in eliminated)]
    for g, r in reductions:
        gd, terms = g.degree(), _embed(r, kept, nvars).terms
        rows += [
            {mono_index[tuple(x + y for x, y in zip(m, e))]: c for e, c in terms}
            for m in free
            if sum(m) + gd <= work_cap
        ]
    nhigh = len(high)
    basis = [
        sp.from_dict(field, nvars, {columns[j]: x for j, x in row.items()})
        for pivot, row in fieldmod.echelon(field, rows)
        if pivot >= nhigh
    ]
    # Hermann: f and the generators of degree <= D give cofactors of degree
    # <= hermann_bound(D, n), so every m*g needed has degree <= bound + D.
    top = max(d, max(g.degree() for g in gens if not g.is_zero()))
    complete = work_cap >= hermann_bound(top, n) + top
    return TruncationResult(
        tuple(basis), complete, d, work_cap, _prune_generators(basis)
    )


def _character_kernel(field: ExactField, weights, monos) -> list[SparsePoly]:
    """Basis of the kernel of the character evaluation on the span of the
    monomials `monos` (exponent tuples of k[Z, W], in order). A monomial
    with an off-diagonal exponent maps to 0 and is a basis element alone;
    every later diagonal monomial m of a character chi gives m - m0, with
    m0 the first monomial of chi. This is the basis `field.kernel` returns
    for the monomial-by-character incidence matrix (Eisenbud-Sturmfels)."""
    n = len(weights)
    nvars = 2 * n * n
    offdiag = _offdiag_indices(n)
    one, minus_one = field.one(), field.neg(field.one())
    first: dict[GroupElement, tuple] = {}
    basis = []
    for e in monos:
        if any(e[idx] for idx in offdiag):
            basis.append(lau_monomial(field, n, e))
            continue
        chi = weights[0].group.zero()
        for i, w in enumerate(weights):
            k = e[z_index(n, i, i)] - e[w_index(n, i, i)]
            if k:
                chi = chi + w.scale(k)
        if chi not in first:
            first[chi] = e
            continue
        terms = {e: one, first[chi]: minus_one}
        basis.append(sp.from_dict(field, nvars, terms))
    return basis


def character_slice(
    field: ExactField, weights, d: int
) -> tuple[SparsePoly, ...]:
    """Exact basis of I(G) intersected with the degree <= d slice, for G the
    image of the diagonalizable group acting by the given weights: the kernel
    of the evaluation of monomials in the group algebra of A."""
    weights = list(weights)
    monos = sp.monomials_up_to(2 * len(weights) ** 2, d)
    return tuple(_character_kernel(field, weights, monos))


def character_slice_generators(
    field: ExactField, weights, d: int
) -> tuple[SparsePoly, ...]:
    """A small generating set of the ideal generated by the exact degree <= d
    slice: the off-diagonal variables (for d >= 1) plus the kernel of the
    character evaluation restricted to diagonal monomials of degree <= d.
    Generates the same ideal as the full slice."""
    weights = list(weights)
    n = len(weights)
    gens = _offdiag_variables(field, n) if d >= 1 else []
    diag_monos = [_diagonal_exponents(n, e) for e in sp.monomials_up_to(2 * n, d)]
    return tuple(gens + _character_kernel(field, weights, diag_monos))


def presentation_truncation(
    G: SubgroupPresentation, d: int, work_cap: int
) -> TruncationResult:
    """Degree <= d slice of I(G). Exact (complete) when weight data is
    attached; otherwise the generator-multiple lower bound."""
    if G.weights is not None:
        basis = character_slice(G.field, G.weights, d)
        gens = character_slice_generators(G.field, G.weights, d)
        return TruncationResult(basis, True, d, work_cap, gens)
    return truncated_ideal_part(G.ideal, d, work_cap)


# ---------------------------------------------------------------------------
# Diagonalizable images


def _balanced_binomial(field: ExactField, n: int, row: list[int]) -> SparsePoly:
    """Binomial of a relation-lattice row, in the lowest-degree form: a
    single-coordinate relation c is split Z^ceil(c/2) - W^floor(c/2); general
    rows use prod Z^{u+} - prod Z^{u-}."""
    support = [i for i, u in enumerate(row) if u != 0]
    if len(support) == 1 and abs(row[support[0]]) >= 2:
        i = support[0]
        c = abs(row[i])
        hi, lo = (c + 1) // 2, c // 2
        e1 = [0] * (2 * n * n)
        e1[z_index(n, i, i)] = hi
        e2 = [0] * (2 * n * n)
        e2[w_index(n, i, i)] = lo
        return lau_monomial(field, n, e1) - lau_monomial(field, n, e2)
    e1 = [0] * (2 * n * n)
    e2 = [0] * (2 * n * n)
    for i, u in enumerate(row):
        if u > 0:
            e1[z_index(n, i, i)] = u
        elif u < 0:
            e2[z_index(n, i, i)] = -u
    return lau_monomial(field, n, e1) - lau_monomial(field, n, e2)


def diagonalizable_image_ideal(
    field: ExactField, weights, name: str = ""
) -> SubgroupPresentation:
    """Presentation of the image of the diagonalizable group acting
    diagonally with the given characters."""
    weights = tuple(weights)
    if not weights:
        raise ValueError("need at least one weight")
    n = len(weights)
    gens = _offdiag_variables(field, n)
    for i in range(n):
        for j in range(i + 1, n):
            if weights[i] == weights[j]:
                gens.append(z_var(field, n, i, i) - z_var(field, n, j, j))
                gens.append(w_var(field, n, i, i) - w_var(field, n, j, j))
    distinct: list[GroupElement] = []
    positions: list[int] = []
    for i, w in enumerate(weights):
        if w not in distinct:
            distinct.append(w)
            positions.append(i)
    for row in relation_lattice(distinct):
        full = [0] * n
        for val, pos in zip(row, positions):
            full[pos] = val
        g = _balanced_binomial(field, n, full)
        if not g.is_zero():
            gens.append(g)
    ideal = LaurentIdeal(field, n, tuple(gens), name)
    return SubgroupPresentation(field, n, ideal, weights, name)


def image_points(field: ExactField, group: FgAbelianGroup, weights):
    """All F_p-points of the image: diag(chi(a_1), ..., chi(a_n)) over all
    characters chi; requires finite A with exponent dividing p - 1."""
    from .diagrep import all_characters

    weights = list(weights)
    return [
        _diagonal_point(field, [chi.value(w) for w in weights])
        for chi in all_characters(field, group)
    ]


# ---------------------------------------------------------------------------
# Catalog


def catalog(field: ExactField) -> dict[str, SubgroupPresentation]:
    """Small study catalog of diagonalizable subgroups."""
    from .abelian import parse_group

    Z = parse_group("Z")
    out = {}
    out["trivial-gl1"] = diagonalizable_image_ideal(
        field, [Z.element([0])], "trivial-gl1"
    )
    for p in (2, 3, 4, 5):
        Zp = parse_group(f"Z/{p}")
        out[f"mu{p}"] = diagonalizable_image_ideal(
            field, [Zp.element([1])], f"mu{p}"
        )
    out["gm-gl1"] = diagonalizable_image_ideal(field, [Z.element([1])], "gm-gl1")
    out["torus-t-t2-gl2"] = diagonalizable_image_ideal(
        field, [Z.element([1]), Z.element([2])], "torus-t-t2-gl2"
    )
    Z2 = parse_group("Z^2")
    out["diagonal-torus-gl2"] = diagonalizable_image_ideal(
        field, [Z2.element([1, 0]), Z2.element([0, 1])], "diagonal-torus-gl2"
    )
    return out
