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

Ideals always implicitly contain the relation ideal. A `LaurentIdeal`
holds what is computed once per ideal: `reduction` eliminates each
generator that is a single variable, for the solve and the slice alike,
`lattice` reads a binomial presentation of a diagonal group as a lattice
ideal, and `scan` is its `PointScan`. A membership question takes one
path. `all_members` asks "is every f of fs in I?" with one ladder for all of
them: at each cap 0..max_cap one elimination (`_capped_solves`) looks for
cofactors of degree <= cap in the other variables for every f not yet
decided, each with its own right-hand side, under one work-budget test
per solve, and after cap 0 the non-members are scanned in order for a
refutation point, a point of GL_n where the ideal vanishes and f does not,
through `I.scan`. A refuted f, or the first f left when a solve is over
the budget, ends the ladder for every f after it.
`ideal_membership_ascending` is that ladder for one f, and
`ideal_membership` is one solve at one cap plus one scan. The scan tests
the fixed stream of points `_point_list` in windows of 1, 2, 4, ...
points, evaluating each polynomial at a whole window at once from
per-coordinate columns (`SparsePoly.evaluate_columns`); a refutation
point is the first point of the stream where I vanishes and f does not,
whatever the order of the generators and whatever was scanned before.
`member` carries expandable cofactor witnesses, lifted back to k[Z, W]
only for the answers returned; `not_member_up_to(D)` means no
representation with cofactors of degree <= D for the generators that are
not single variables (definitive only beyond the Hermann bound, so the
cap is always reported), unless a refutation point makes it definitive.
On a lattice ideal f is a member exactly when its coset sums vanish;
`all_members` reads that verdict once per f, and it skips only work whose
outcome it proves, so every answer is the ladder's.

A lattice ideal's degree <= d slice is exact, the kernel of the reduction
of monomials by `I.lattice`; other slices at one cap come from one graded
elimination (`graded_truncation`), which echelons the multiples m*g once,
columns by degree, and re-echelons the rows of pivot degree <= d per slice.
What solves or slices share lives on the ideal, in the call that makes
them, or in the `truncation_chain` its caller holds; a module-level cache
is keyed by the ring (field, n) alone.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from operator import add
from typing import Callable

from . import sparsepoly as sp
from .abelian import (
    FgAbelianGroup,
    GroupElement,
    PartialCharacter,
    partial_character,
    relation_lattice,
)
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
    """An ideal of k[Z, W], the relation ideal implied. `reduction`,
    `lattice` and `scan` are built on the first read and kept in the
    instance dict, so `==`, `hash` and `repr` read the fields alone."""

    field: ExactField
    n: int
    generators: tuple[SparsePoly, ...]
    name: str = ""

    def __post_init__(self):
        ring = (self.field, 2 * self.n * self.n)
        if any((g.field, g.nvars) != ring for g in self.generators):
            raise ValueError("every generator must lie in k[Z, W] of the ideal")

    @cached_property
    def reduction(self):
        """The elimination of the single-variable generators, shared by the
        solves and the slices (k[x]/(x_k : k in E) = k[x_j : j not in E],
        Cox-Little-O'Shea): {k in E: the first generator x_k}, the kept
        variables, (g, r) for each g of the ideal then of the relations with
        a nonzero reduction r into them, repeats too, and those pairs again
        with each repeated r dropped after its first."""
        eliminated: dict[int, SparsePoly] = {}
        for g in self.generators:
            idx = _is_single_variable(g)
            if idx is not None:
                eliminated.setdefault(idx, g)
        kept = [k for k in range(2 * self.n * self.n) if k not in eliminated]
        gens = (*self.generators, *relation_generators(self.field, self.n))
        pairs = [(g, _eliminate(g, kept)) for g in gens]
        reductions = [(g, r) for g, r in pairs if not r.is_zero()]
        distinct: dict[tuple, tuple] = {}
        for g, r in reductions:
            distinct.setdefault(r.terms, (g, r))
        return eliminated, kept, reductions, list(distinct.values())

    @cached_property
    def lattice(self) -> PartialCharacter | None:
        """The ideal as a lattice ideal I(L, rho) of the Laurent ring of the
        diagonal, or None; read from the generators alone.

        It is one when its single-variable generators are exactly the
        off-diagonal variables, so that `reduction` keeps the diagonal ones
        and the relations reduce to z_ii w_ii - 1, and every other
        generator, modulo the off-diagonal variables, is zero or a binomial
        c1 x^a + c2 x^b. That binomial is a unit times z^u - rho(u), for u
        the Laurent exponent of x^a minus that of x^b and rho(u) = -c2/c1
        (Eisenbud-Sturmfels 1996, Thm 2.1). A monomial, or values of rho
        that no character of L takes, make the ideal the unit ideal, which
        gives None too."""
        field, n = self.field, self.n
        singles = {_is_single_variable(g) for g in self.generators} - {None}
        if singles != set(_offdiag_indices(n)):
            return None
        rho = {}
        for g in self.generators:
            terms = list(_laurent_terms(g, n))
            if not terms:
                continue
            if len(terms) != 2:
                return None
            (a, c1), (b, c2) = terms
            value = field.neg(field.div(c2, c1))
            if rho.setdefault(tuple(x - y for x, y in zip(a, b)), value) != value:
                return None
        return partial_character(field, rho)

    @cached_property
    def scan(self) -> PointScan:
        """The one `PointScan` of the ideal (`find_refutation_point`)."""
        return PointScan(self)


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


def _reaches_hermann_bound(work_cap: int, d: int, n: int) -> bool:
    """work_cap >= B + d for Hermann's cofactor degree bound
    B = (2 max(d, 1))^(2^v), v = 2n^2 ring variables, decided without
    building B: the base is squared at most v times, and the test fails as
    soon as a square exceeds work_cap - d (every later one is larger)."""
    limit = work_cap - d
    power = 2 * max(d, 1)
    for _ in range(2 * n * n):
        if power > limit:
            return False
        power *= power
    return power <= limit


@dataclass(frozen=True)
class SubgroupPresentation:
    """A closed subgroup of GL_n presented by an ideal of k[Z, W].

    `weights` records the characters of a diagonalizable group whose image
    the group is, when it was built as one; no answer reads it, since the
    ideal itself says whether its slices are exact (`truncation_chain`)."""

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


def _laurent_exponent(e, n: int) -> list[int] | None:
    """e's z-exponent minus its w-exponent on the diagonal (Z[i,i], W[i,i]
    sit every n + 1 variables), or None when e has an off-diagonal one."""
    z, w = e[: n * n : n + 1], e[n * n :: n + 1]
    return [a - b for a, b in zip(z, w)] if sum(z) + sum(w) == sum(e) else None


def _laurent_terms(f: SparsePoly, n: int) -> list:
    """f's image in the Laurent ring k[Z, W] / (off-diagonal variables,
    ZW - I): its diagonal terms, each as (`_laurent_exponent`, coefficient)."""
    return [(v, c) for e, c in f.terms if (v := _laurent_exponent(e, n)) is not None]


def _in_lattice_ideal(f: SparsePoly, n: int, lattice: PartialCharacter) -> bool:
    """Is f in the lattice ideal? Its Laurent term c z^v is c rho(l) z^r
    for v = r + l and r the coset representative, so f is in the ideal
    exactly when the sum of these over each coset of L is zero."""
    field = f.field
    sums = {}
    for v, c in _laurent_terms(f, n):
        r, x = lattice.reduce(v)
        sums[r] = field.add(sums.get(r, field.zero()), c if x == 1 else field.mul(c, x))
    return not any(sums.values())


def _solve_cofactors(field, gens: list[SparsePoly], fs, cap: int):
    """Solve f = sum h_i g_i with deg h_i <= cap in a small polynomial ring,
    for every f of `fs` from one elimination.

    One sparse row per monomial of the products m*g_i: the unknown coefficient
    of m in h_i is a column, and each f puts its coefficients in a
    right-hand-side column of its own after them. `echelon`, limited at the
    first right-hand side, reduces the unknowns' columns once; f's system is
    inconsistent exactly when its column is nonzero in a residual row, and
    otherwise its free unknowns are 0. The pivot columns of the unknowns are
    independent, so that solution is the one f alone would get. Returns, per
    f, the list of cofactor SparsePolys or None."""
    if not gens:
        return [None if not f.is_zero() else [] for f in fs]
    nvars = gens[0].nvars
    cof_monos = sp.monomials_up_to(nvars, cap)
    columns = []  # (gen_index, monomial_exps)
    rows: dict[tuple, dict] = {}
    for gi, g in enumerate(gens):
        for m in cof_monos:
            col = len(columns)
            columns.append((gi, m))
            for e, c in g.terms:
                rows.setdefault(tuple(map(add, m, e)), {})[col] = c
    limit = len(columns)
    for rhs, f in enumerate(fs, limit):
        for e, c in f.terms:
            rows.setdefault(e, {})[rhs] = c
    red, residual = fieldmod.echelon(field, rows.values(), limit)
    out = []
    for rhs in range(limit, limit + len(fs)):
        sol = fieldmod.solve_echelon(field, red, limit, rhs, residual)
        if sol is None:
            out.append(None)
            continue
        cofs = [sp.zero(field, nvars) for _ in gens]
        for (gi, m), x in zip(columns, sol):
            if x != field.zero():
                cofs[gi] = cofs[gi] + sp.monomial(field, nvars, m, x)
        out.append(cofs)
    return out


def _solve_work_estimate(nvars: int, ngens: int, cap: int, max_deg: int) -> int:
    cols = math.comb(nvars + cap, cap) * ngens
    rows = math.comb(nvars + cap + max_deg, cap + max_deg)
    return rows * cols * min(rows, cols)


def _work_budget(field: ExactField) -> int:
    # rational pivoting is an order of magnitude slower than mod-p ints
    return 4 * 10**7 if field.p is None else 4 * 10**8


def _capped_solves(fs, I: LaurentIdeal, cap: int) -> list:
    """One cofactor solve of f = sum h_i g_i, deg h_i <= cap, over the
    generators of I and the relation ideal, for the fs in order: f's
    cofactors in the kept variables (`_lift_witness` lifts them), or None
    when it has none. A zero f gets () and no solve; an entry None, an f
    known to have no cofactors at any cap, gets None and no solve. The
    solve has one work-budget test, from the top degree of the generators
    (a target adds only right-hand-side rows); over the budget the list
    stops at the first entry that is not a zero f. One elimination serves
    every nonzero f, one right-hand side each; none is built when no
    nonzero f is left. Every f's ring is checked first.

    The generators come reduced into the variables that I's single-variable
    generators leave (`I.reduction`), and repeated reductions are dropped."""
    field, n = I.field, I.n
    if any(f is not None and (f.field, f.nvars) != (field, 2 * n * n) for f in fs):
        raise ValueError("f is not in the ring of the ideal")
    if cap < 0:
        raise ValueError("cofactor degree cap must be >= 0")
    _, kept, _, distinct = I.reduction
    reduced = [r for _, r in distinct]
    top = max(r.degree() for r in reduced)  # a diagonal relation keeps its -1
    if _solve_work_estimate(len(kept), len(reduced), cap, top) > _work_budget(field):
        fs = list(itertools.takewhile(lambda f: f is not None and f.is_zero(), fs))
    targets = {
        k: _eliminate(f, kept) for k, f in enumerate(fs) if f is not None and not f.is_zero()
    }
    solved = _solve_cofactors(field, reduced, list(targets.values()), cap) if targets else ()
    answers = dict(zip(targets, solved))
    return [answers.get(k, None if f is None else ()) for k, f in enumerate(fs)]


def _lift_witness(f, I: LaurentIdeal, cap: int, cofs) -> MembershipResult:
    """The `member` result of f from an entry `cofs` of `_capped_solves`,
    its cofactors in the kept variables (() for a zero f): the cofactors
    embedded in k[Z, W], and each term of the remainder f - sum h_i g_i
    assigned to the generator of its lowest-index eliminated variable, so
    the cap bounds the cofactors of the generators that are not single
    variables, and an eliminated generator's cofactor may exceed it. The
    lifted witness must re-verify."""
    field, nvars = f.field, f.nvars
    eliminated, kept, _, distinct = I.reduction
    pairs = [
        (g, _embed(h, kept, nvars))
        for (g, _), h in zip(distinct, cofs)
        if not h.is_zero()
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


def ideal_membership(f: SparsePoly, I: LaurentIdeal, cap: int) -> MembershipResult:
    """Decide f = sum h_i g_i over the generators of I and the relation
    ideal by one capped solve (`_capped_solves`): `member` with expandable
    witnesses, `not_member_up_to` or, over the work budget, `unknown`. Any
    answer other than `member` then gets one `find_refutation_point(f, I)`;
    a point makes it a definitive `not_member_up_to` at this cap."""
    solved = _capped_solves([f], I, cap)
    if solved and solved[0] is not None:
        return _lift_witness(f, I, cap, solved[0])
    pt = find_refutation_point(f, I)
    if pt is not None:
        return MembershipResult("not_member_up_to", cap, None, pt, True)
    return MembershipResult("not_member_up_to" if solved else "unknown", cap)


def ideal_membership_ascending(
    f: SparsePoly, I: LaurentIdeal, max_cap: int
) -> MembershipResult:
    """The answer of `all_members` for f alone: a member at the least cap
    <= max_cap, a negative made definitive at cap 0 by a refutation point,
    or the answer at max_cap."""
    witnesses, failure = all_members((f,), I, max_cap)
    return failure[1] if failure else witnesses[0][1]


def all_members(fs, I: LaurentIdeal, max_cap: int) -> tuple[tuple, tuple | None]:
    """Are all of `fs` members of I? Returns the ((f, member result), ...)
    before the first f not shown a member, and that (f, result), or None
    when every f is a member.

    One ladder climbs caps 0..max_cap with every undecided f at once: one
    `_capped_solves` elimination per cap, and after cap 0 one refutation
    scan per non-member, in order, through `I.scan`, up to the first point
    found. On a lattice ideal (`I.lattice`) each nonzero f's verdict is
    read once, after every f's ring is checked: an f outside it enters no
    solve, and an f inside it is a member and is not scanned. A refuted f,
    or the first f left undecided by a solve over the work budget (every
    larger cap is over it too), is no member, so no f after it is solved
    again. Each f gets the answer of its own ladder: a member at its least
    cap with the cofactors of that solve, a definitive negative at cap 0
    with the first point of the stream, or its answer at max_cap
    (`unknown` over the budget). Only the witnesses returned are lifted,
    once, at the end."""
    fs = tuple(fs)
    if max_cap < 0:
        raise ValueError("cofactor degree cap must be >= 0")
    if any((f.field, f.nvars) != (I.field, 2 * I.n * I.n) for f in fs):
        raise ValueError("f is not in the ring of the ideal")
    lattice = I.lattice
    outside = set() if lattice is None else {
        k for k, f in enumerate(fs) if not (f.is_zero() or _in_lattice_ideal(f, I.n, lattice))
    }
    found = {}  # k -> (least cap, cofactors) of a member
    failed = {}  # k -> the answer of an f refuted or over the budget
    todo = list(range(len(fs)))  # undecided, in order
    for cap in range(max_cap + 1):
        if not todo:
            break
        solved = _capped_solves([None if k in outside else fs[k] for k in todo], I, cap)
        over = todo[len(solved) : len(solved) + 1]
        if over:
            failed[over[0]] = MembershipResult("unknown", max_cap)
        for k, cofs in zip(todo, solved):
            if cofs is not None:
                found[k] = (cap, cofs)
        todo = [k for k, cofs in zip(todo, solved) if cofs is None]
        if cap == 0:
            for k in todo + over:
                if lattice is not None and k not in outside:
                    continue  # a member has no refutation point
                pt = find_refutation_point(fs[k], I)
                if pt is not None:
                    failed[k] = MembershipResult("not_member_up_to", 0, None, pt, True)
                    todo = [j for j in todo if j < k]
                    break
    witnesses = []
    for k, f in enumerate(fs):
        if k not in found:
            capped = MembershipResult("not_member_up_to", max_cap)
            return tuple(witnesses), (f, failed.get(k, capped))
        witnesses.append((f, _lift_witness(f, I, *found[k])))
    return tuple(witnesses), None


# ---------------------------------------------------------------------------
# Points and refutation certificates


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


@lru_cache(maxsize=32)
def _point_list(field: ExactField, n: int) -> tuple:
    """The fixed stream of points of GL_n that a refutation scan tests, as
    (g, g^{-1}) pairs of row tuples, in this order:

    - the grid of diagonal matrices over the units of F_p, or over 1, -1,
      2, -2, 3, 1/2, 5 for Q, cut at its first 3000 points;
    - the transvections I + E_ij (i != j), with inverses I - E_ij;
    - the permutation matrices other than the identity, with their
      transposes as inverses;
    - all of GL_n, when p <= 7 and n <= 2.

    The transvections and permutations reach coordinates that the diagonal
    grid cannot refute. The pairs come from one generator, so the grid past
    its cut is never built."""
    one, zero = field.one(), field.zero()
    eye = {(a, a): one for a in range(n)}

    def matrix(entries: dict):
        return [[entries.get((a, b), zero) for b in range(n)] for a in range(n)]

    def stream():
        units = field.units() if field.is_finite else [
            Fraction(x) for x in "1 -1 2 -2 3 1/2 5".split()
        ]
        for diag in itertools.islice(itertools.product(units, repeat=n), 3000):
            yield _diagonal_point(field, diag)
        for i, j in itertools.permutations(range(n), 2):
            yield matrix({**eye, (i, j): one}), matrix({**eye, (i, j): field.neg(one)})
        for perm in itertools.islice(itertools.permutations(range(n)), 1, None):
            yield (
                matrix({(a, b): one for a, b in enumerate(perm)}),
                matrix({(b, a): one for a, b in enumerate(perm)}),
            )
        if field.is_finite and n <= 2 and field.p <= 7:
            for entries in itertools.product(field.elements(), repeat=n * n):
                g = [entries[a * n : (a + 1) * n] for a in range(n)]
                if fieldmod.det(field, g) != zero:
                    yield g, fieldmod.inverse(field, g)

    return tuple(
        (tuple(map(tuple, g)), tuple(map(tuple, ginv))) for g, ginv in stream()
    )


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
    vanishes, found lazily in stream order. `I.scan` is the one scan of I,
    which every `find_refutation_point(f, I)` call reads and extends.

    The stream is tested in windows of 1, 2, 4, ... points. In a window each
    generator is evaluated, column-wise, only at the points the generators
    before it did not rule out, so each (generator, point) pair is evaluated
    at most once; the next window tries first the generators that ruled out
    the most points in this one. Whether every generator vanishes at a point
    does not depend on that order, so `find_refutation_point` gives the same
    answer from a warm scan as from a fresh one: the first point, in
    `_point_list` order, where every generator of I vanishes and f does
    not. A fresh scan whose first such point is stream point k has tested
    at most 2k + 1 points."""

    def __init__(self, I: LaurentIdeal):
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


def find_refutation_point(f: SparsePoly, I: LaurentIdeal):
    """A point (g, g^{-1}) where every generator of I vanishes and f does
    not, which certifies that f is not in I + relations; None when the
    stream has no such point. The answer is the first such point in
    `_point_list` order, whatever the order of I's generators. f is
    evaluated column-wise at each window's zero points in turn, from
    `I.scan`, which keeps the zero points that earlier calls found."""
    scan = I.scan
    for rows in scan.zero_batches():
        for r, v in zip(rows, f.evaluate_columns(scan.columns, rows)):
            if v:
                return scan.points[r]
    return None


# ---------------------------------------------------------------------------
# Degree truncations


@dataclass(frozen=True)
class TruncationResult:
    """A degree <= d slice at one cap. `slice_basis` is its basis, or a
    function that builds it (the exact slice of a lattice ideal, where only
    `stab.degrees_equal_check` reads a basis); `basis` calls that function
    on the first read and keeps the basis it returns."""

    slice_basis: tuple[SparsePoly, ...] | Callable[[], tuple[SparsePoly, ...]]
    complete: bool
    d: int
    cap: int
    generators: tuple[SparsePoly, ...] = ()  # pruned set, same ideal

    @property
    def basis(self) -> tuple[SparsePoly, ...]:
        if callable(self.slice_basis):
            object.__setattr__(self, "slice_basis", self.slice_basis())
        return self.slice_basis


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


def graded_truncation(I: LaurentIdeal, work_cap: int):
    """The degree slices of (I + relations) at one cap, from one
    elimination: returns `read`, where `read(d)` is the TruncationResult of
    degree d <= work_cap (see `truncated_ideal_part`).

    The span is that of the monomial multiples m*g of degree <= work_cap.
    It holds every monomial that a variable eliminated by `I.reduction`
    divides. Its other rows are the products m*r, for m free of those
    variables and r the reduction of g; they are echeloned once, with the
    columns ordered by degree, highest first. The rows whose pivot has
    degree <= d then span the part of degree <= d, since a pivot is a row's
    highest-degree term. `read(d)` re-echelons those rows, with the unit
    rows of the eliminated-variable monomials of degree <= d, over the
    monomials of degree <= d in `sp.monomials_up_to` order: the unique
    reduced basis, whichever d was read before."""
    field, n = I.field, I.n
    nvars = 2 * n * n
    gens = (*I.generators, *relation_generators(field, n))
    eliminated, kept, reductions, _ = I.reduction
    monos = sp.monomials_up_to(nvars, work_cap)
    free = [e for e in monos if not any(e[k] for k in eliminated)]
    graded = free[::-1]  # highest degree first
    graded_index = {e: j for j, e in enumerate(graded)}
    rows = []
    for g, r in reductions:
        gd, terms = g.degree(), _embed(r, kept, nvars).terms
        rows += [
            {graded_index[tuple(map(add, m, e))]: c for e, c in terms}
            for m in free
            if sum(m) + gd <= work_cap
        ]
    # (degree of the pivot, row), highest pivot degree first
    echeloned = [(sum(graded[c]), row) for c, row in fieldmod.echelon(field, rows)]
    top_gen = max(g.degree() for g in gens if not g.is_zero())

    def read(d: int) -> TruncationResult:
        if d < 0 or work_cap < d:
            raise ValueError("need 0 <= d <= work_cap")
        low = [e for e in monos if sum(e) <= d]
        index = {e: j for j, e in enumerate(low)}
        one = field.one()
        slice_rows = [{index[e]: one} for e in low if any(e[k] for k in eliminated)]
        slice_rows += [
            {index[graded[c]]: x for c, x in row.items()}
            for degree, row in echeloned
            if degree <= d
        ]
        basis = tuple(
            sp.from_dict(field, nvars, {low[j]: x for j, x in row.items()})
            for _, row in fieldmod.echelon(field, slice_rows)
        )
        # Hermann: f and the generators of degree <= D give cofactors of
        # degree <= B, so every m*g needed has degree <= B + D.
        complete = _reaches_hermann_bound(work_cap, max(d, top_gen), n)
        return TruncationResult(basis, complete, d, work_cap, _prune_generators(basis))

    return read


def truncated_ideal_part(I: LaurentIdeal, d: int, work_cap: int) -> TruncationResult:
    """A basis of a subspace of (I + relations) intersected with the degree
    <= d slice: the span of monomial multiples m*g of degree <= cap, cut
    down by exact row reduction, in reduced echelon form over the monomials
    of degree <= d in `sp.monomials_up_to` order. One read of
    `graded_truncation(I, work_cap)`; a caller that asks for several d at
    one cap reads them from one `graded_truncation`. Complete only when the
    cap reaches the Hermann bound for the largest degree D of d and the
    generators, plus D."""
    if d < 0 or work_cap < d:
        raise ValueError("need 0 <= d <= work_cap")
    return graded_truncation(I, work_cap)(d)


def _character_kernel(I: LaurentIdeal, monos) -> list[SparsePoly]:
    """Basis of the part of the lattice ideal I (`I.lattice`) spanned by the
    monomials `monos` (exponent tuples of k[Z, W], in order). A monomial
    with an off-diagonal exponent lies in I and is a basis element alone. A
    diagonal monomial m is x z^r modulo I, for (r, x) the `reduce` of its
    Laurent exponent; every later m of a coset r gives m - (x/x0) m0, with
    m0 the first monomial of r. This is the basis `field.kernel` returns
    for the monomial-by-coset matrix of the values x (Eisenbud-Sturmfels)."""
    field, n = I.field, I.n
    first: dict[tuple, tuple] = {}
    basis = []
    for e in monos:
        v = _laurent_exponent(e, n)
        if v is None:
            basis.append(lau_monomial(field, n, e))
            continue
        r, x = I.lattice.reduce(v)
        e0, x0 = first.setdefault(r, (e, x))
        if e0 != e:
            terms = {e: field.one(), e0: field.neg(field.div(x, x0))}
            basis.append(sp.from_dict(field, 2 * n * n, terms))
    return basis


def _lattice_slice(I: LaurentIdeal, d: int) -> tuple[SparsePoly, ...]:
    """Exact basis of the degree <= d slice of the lattice ideal I."""
    return tuple(_character_kernel(I, sp.monomials_up_to(2 * I.n * I.n, d)))


def _lattice_slice_generators(I: LaurentIdeal, d: int) -> tuple[SparsePoly, ...]:
    """A small generating set of the ideal of `_lattice_slice(I, d)`: the
    off-diagonal variables (for d >= 1) plus the kernel on the diagonal
    monomials of degree <= d."""
    n = I.n
    gens = _offdiag_variables(I.field, n) if d >= 1 else []
    diag_monos = [_diagonal_exponents(n, e) for e in sp.monomials_up_to(2 * n, d)]
    return tuple(gens + _character_kernel(I, diag_monos))


def character_slice(field: ExactField, weights, d: int) -> tuple[SparsePoly, ...]:
    """`_lattice_slice` of the image of the group acting by `weights`."""
    return _lattice_slice(diagonalizable_image_ideal(field, weights).ideal, d)


def character_slice_generators(
    field: ExactField, weights, d: int
) -> tuple[SparsePoly, ...]:
    """`_lattice_slice_generators` of that image."""
    return _lattice_slice_generators(diagonalizable_image_ideal(field, weights).ideal, d)


def truncation_chain(G: SubgroupPresentation, work_cap: int):
    """`read(d)`, the degree <= d slice of I(G) for each d, chosen from the
    ideal alone: exact (complete) when it is a lattice ideal (`I.lattice`),
    with its basis built on the first read; otherwise the generator-multiple
    lower bound, read from one `graded_truncation` of the ideal at
    `work_cap`. Each d is read once for the life of the chain."""
    I = G.ideal
    if I.lattice is None:
        return cache(graded_truncation(I, work_cap))

    @cache
    def read(d: int) -> TruncationResult:
        gens = _lattice_slice_generators(I, d)
        return TruncationResult(lambda: _lattice_slice(I, d), True, d, work_cap, gens)

    return read


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
