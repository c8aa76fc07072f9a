"""Shape polynomials, canonical bases, stabilizer polynomials and the
defining-degree machinery.

A shape polynomial P in N[X,Y] turns a vector space V into P(V, V*) by
substituting tensor products for multiplication and direct sums for addition.
The canonical basis of P(V, V*) is built from an ordered basis of V by a
fixed recursion (terms in graded order, X factors before Y factors, row-major
tensor expansion), and the GL_n action on it is a matrix of ring elements of
degree at most deg P. For an r-dimensional subspace spanned by the columns of
u A, stability under a group element g is the vanishing of the (s-r) x r
lower-left block of T~^{-1} B(g) T~, where T~ extends A by unit vectors in
the non-pivot rows.

Degrees of definition are computed by ascending the chain of truncation
groups, with two-way membership witnesses at the winning degree and point
refutation certificates below it.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache

from . import field as fieldmod
from . import laurent as la
from .diagrep import BaseObject, basis_weights
from .field import ExactField
from .laurent import LaurentIdeal, SubgroupPresentation, TruncationResult
from .sparsepoly import SparsePoly


# ---------------------------------------------------------------------------
# Shape polynomials


@dataclass(frozen=True)
class ShapePolynomial:
    """Element of N[X,Y]; terms ((a, b), coeff) sorted by (a+b, -a)."""

    terms: tuple[tuple[tuple[int, int], int], ...]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("shape polynomial must be nonzero")
        for (a, b), c in self.terms:
            if a < 0 or b < 0 or c <= 0:
                raise ValueError("coefficients must be positive, exponents >= 0")

    @property
    def degree(self) -> int:
        return max(a + b for (a, b), _ in self.terms)

    def dimension(self, n: int) -> int:
        return sum(c * n**a * n**b for (a, b), c in self.terms)

    def __str__(self) -> str:
        parts = []
        for (a, b), c in self.terms:
            factors = []
            if c != 1 or (a == 0 and b == 0):
                factors.append(str(c))
            if a:
                factors.append("X" if a == 1 else f"X^{a}")
            if b:
                factors.append("Y" if b == 1 else f"Y^{b}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def _term_key(ab):
    a, b = ab
    return (a + b, -a)


def shape_polynomial(term_map: dict) -> ShapePolynomial:
    items = [((a, b), c) for (a, b), c in term_map.items() if c]
    items.sort(key=lambda t: _term_key(t[0]))
    return ShapePolynomial(tuple(items))


_SHAPE_TOKEN = re.compile(r"\s*(?:(?P<var>[XY])(?:\^(?P<pow>\d+))?|(?P<num>\d+)|(?P<op>[+*]))")


def parse_shape(text: str) -> ShapePolynomial:
    """Parse shape polynomials like `X*Y + 1` or `3*X^2*Y + X`."""
    terms: dict = {}
    pos = 0
    coeff, a, b = 1, 0, 0
    started = False

    def flush():
        nonlocal coeff, a, b, started
        if started:
            terms[(a, b)] = terms.get((a, b), 0) + coeff
        coeff, a, b = 1, 0, 0
        started = False

    while pos < len(text):
        m = _SHAPE_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot parse shape polynomial at {text[pos:]!r}")
        pos = m.end()
        if m.group("op") == "+":
            flush()
        elif m.group("op") == "*":
            continue
        elif m.group("num"):
            coeff *= int(m.group("num"))
            started = True
        else:
            k = int(m.group("pow") or 1)
            if m.group("var") == "X":
                a += k
            else:
                b += k
            started = True
    flush()
    if not terms:
        raise ValueError("empty shape polynomial")
    return shape_polynomial(terms)


def pd_polynomial(n: int, d: int) -> ShapePolynomial:
    """The universal shape polynomial whose evaluation covers the degree <= d
    slice of the coordinate ring of GL_n."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    terms = {}
    for a in range(d + 1):
        for b in range(d + 1 - a):
            terms[(a, b)] = math.comb(a + n - 1, a) * math.comb(b + n - 1, b)
    return shape_polynomial(terms)


# ---------------------------------------------------------------------------
# Canonical bases


@dataclass(frozen=True)
class CanonicalLabel:
    """One canonical basis vector of P(V, V*): a term of P, a copy index
    within its coefficient, and the tensor word of basis indices."""

    term: tuple[int, int]
    copy: int
    vfactors: tuple[int, ...]
    dualfactors: tuple[int, ...]

    def __str__(self) -> str:
        parts = [f"v{i + 1}" for i in self.vfactors]
        parts += [f"v{j + 1}*" for j in self.dualfactors]
        word = "(x)".join(parts) if parts else "1"
        return f"{word}[{self.term[0]},{self.term[1]};{self.copy}]"


def canonical_basis(P: ShapePolynomial, n: int) -> list[CanonicalLabel]:
    out = []
    for (a, b), c in P.terms:
        for copy in range(c):
            for vf in itertools.product(range(n), repeat=a):
                for df in itertools.product(range(n), repeat=b):
                    out.append(CanonicalLabel((a, b), copy, vf, df))
    return out


def label_weight(label: CanonicalLabel, weights):
    """Weight of a canonical label under a diagonal action with the given
    basis weights; dual factors contribute negatively."""
    acc = weights[0].group.zero()
    for i in label.vfactors:
        acc = acc + weights[i]
    for j in label.dualfactors:
        acc = acc - weights[j]
    return acc


# ---------------------------------------------------------------------------
# Action matrices


def _laurent_ring(field: ExactField, n: int) -> fieldmod.PolyRing:
    return fieldmod.PolyRing(la.lau_zero(field, n), la.lau_const(field, n, 1))


def _block_diagonal(ring, P: ShapePolynomial, v, vdual):
    """s x s matrix over `ring`, block diagonal over the terms of P and
    their copies; the (a, b) block is v^(x)a (x) vdual^(x)b."""
    blocks = []
    for (a, b), c in P.terms:
        blocks += [fieldmod.kron(ring, [v] * a + [vdual] * b)] * c
    s = sum(len(b) for b in blocks)
    out = [[ring.zero()] * s for _ in range(s)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            out[at + i][at : at + len(row)] = row
        at += len(block)
    return out


@lru_cache(maxsize=32)
def action_matrix(field: ExactField, P: ShapePolynomial, n: int):
    """s x s matrix over the coordinate ring: block diagonal over terms and
    copies; on V the block is Z, on V* it is W^T, tensor factors Kronecker.
    Built once per (field, P, n), with tuple rows."""
    zm = [[la.z_var(field, n, i, j) for j in range(n)] for i in range(n)]
    wt = [[la.w_var(field, n, j, i) for j in range(n)] for i in range(n)]
    return tuple(map(tuple, _block_diagonal(_laurent_ring(field, n), P, zm, wt)))


def point_action_matrix(field: ExactField, P: ShapePolynomial, n: int, g, ginv):
    """The action matrix evaluated at a concrete point (g, g^{-1})."""
    return _block_diagonal(field, P, g, fieldmod.transpose(ginv))


# ---------------------------------------------------------------------------
# Stabilizer polynomials


@dataclass(frozen=True)
class StabilizerProblem:
    shape: ShapePolynomial
    n: int
    pivot_rows: tuple[int, ...]  # 1-based, increasing
    matrix: tuple  # s x r over the field, columns spanning the subspace
    field: ExactField

    def __post_init__(self):
        s = self.shape.dimension(self.n)
        r = len(self.matrix[0]) if self.matrix else 0
        if not (1 <= r <= s):
            raise ValueError("need 1 <= r <= s")
        if len(self.matrix) != s:
            raise ValueError(f"matrix must have s = {s} rows")
        if list(self.pivot_rows) != sorted(set(self.pivot_rows)) or len(
            self.pivot_rows
        ) != r:
            raise ValueError("pivot rows must be r strictly increasing indices")
        minor = [
            [self.matrix[i - 1][j] for j in range(r)] for i in self.pivot_rows
        ]
        if fieldmod.det(self.field, minor) == self.field.zero():
            raise ValueError("pivot minor is singular")


def _extend_matrix(ring, A, pivot_rows_1based):
    """T~ = [A | E] over `ring`, E the unit vectors in the non-pivot rows."""
    s, r = len(A), len(A[0])
    pivots = set(i - 1 for i in pivot_rows_1based)
    nonpivot = [i for i in range(s) if i not in pivots]
    t = [list(row) + [ring.zero()] * (s - r) for row in A]
    for col, row in enumerate(nonpivot):
        t[row][r + col] = ring.one()
    return t


class _ScalingRing(fieldmod.PolyRing):
    """`mat_mul` of a matrix of polynomials by one of field constants: each
    product scales a polynomial, and a zero polynomial is skipped."""

    @staticmethod
    def mul(q: SparsePoly, c) -> SparsePoly:
        return q.scale(c)


def stabilizer_polys(prob: StabilizerProblem) -> list[SparsePoly]:
    """The (s-r)*r entries whose common vanishing is exactly the stabilizer
    of the subspace, each of degree <= deg(shape)."""
    field, n = prob.field, prob.n
    A = [list(row) for row in prob.matrix]
    r = len(A[0])
    tinv = fieldmod.inverse(field, _extend_matrix(field, A, prob.pivot_rows))
    ring = _ScalingRing(la.lau_zero(field, n), la.lau_const(field, n, 1))
    # the lower-left (s-r) x r block of tinv * B * [A | E], whose first r
    # columns are A, with the polynomials on the left of each product:
    # (tinv[r:] * B)^T = B^T * tinv[r:]^T
    B = action_matrix(field, prob.shape, n)
    left_t = fieldmod.mat_mul(ring, fieldmod.transpose(B), fieldmod.transpose(tinv[r:]))
    block = fieldmod.mat_mul(ring, fieldmod.transpose(left_t), A)
    return [q for row in block for q in row]


def point_stabilizes(field: ExactField, P: ShapePolynomial, n: int, g, ginv, A) -> bool:
    """Brute-force oracle: does g map the column span of u A into itself?"""
    M = point_action_matrix(field, P, n, g, ginv)
    MA = fieldmod.mat_mul(field, M, A)
    base_rank = fieldmod.rank(field, A)
    joint = [rowa + rowm for rowa, rowm in zip(A, MA)]
    return fieldmod.rank(field, joint) == base_rank


# ---------------------------------------------------------------------------
# Stability of subspaces


def is_stable(
    field: ExactField,
    b: BaseObject,
    P: ShapePolynomial,
    A,
    presentation: SubgroupPresentation | None = None,
    membership_cap: int = 4,
):
    """Is the subspace spanned by the columns of u A stable under the image
    group of b (diagonalizable fast path), or under a presented group (via
    stabilizer polynomials and capped ideal membership)?"""
    A = [list(row) for row in A]
    r = len(A[0])
    if fieldmod.rank(field, A) != r:
        raise ValueError("columns of the subspace matrix must be independent")
    if presentation is None:
        n = b.dimension
        labels = canonical_basis(P, n)
        if len(labels) != len(A):
            raise ValueError("matrix rows must match the canonical basis")
        weights = basis_weights(b)
        wts = [label_weight(lab, weights) for lab in labels]
        classes = sorted(set(w.coords for w in wts))
        for cls in classes:
            mask = [1 if w.coords == cls else 0 for w in wts]
            for col in range(r):
                proj = [
                    A[i][col] if mask[i] else field.zero() for i in range(len(A))
                ]
                if fieldmod.solve_linear(field, A, proj) is None:
                    return False
        return True
    # general route: all stabilizer polynomials lie in the presented ideal
    pivots = _choose_pivots(field, A)
    prob = StabilizerProblem(P, presentation.n, tuple(pivots), _as_tuple(A), field)
    _, failure = la.all_members(
        stabilizer_polys(prob), presentation.ideal, membership_cap
    )
    if failure is None:
        return True
    return False if failure[1].definitive else None  # None: unknown at cap


def _choose_pivots(field, A):
    red, pivcols = fieldmod.rref(field, fieldmod.transpose(A))
    return [c + 1 for c in pivcols]


def _as_tuple(A):
    return tuple(tuple(row) for row in A)


# ---------------------------------------------------------------------------
# Truncation chain and the defining degree


def group_le_d(
    G: SubgroupPresentation, d: int, work_cap: int, chain=None
) -> tuple[SubgroupPresentation, TruncationResult]:
    """The subgroup cut out by the ideal generated by the degree <= d slice,
    read from `chain`, the `la.truncation_chain(G, work_cap)` of a caller
    that reads several d, or from a chain of its own."""
    if chain is None:
        chain = la.truncation_chain(G, work_cap)
    trunc = chain(d)
    ideal = LaurentIdeal(G.field, G.n, trunc.generators, f"{G.name}<=deg{d}")
    pres = SubgroupPresentation(G.field, G.n, ideal, None, f"{G.name}<=deg{d}")
    return pres, trunc


@dataclass(frozen=True)
class DegreeRefutation:
    d: int
    generator: SparsePoly
    point: tuple | None  # point of the truncation group where the generator fails
    definitive: bool


@dataclass(frozen=True)
class DefiningDegreeResult:
    status: str  # 'found' | 'exceeds' | 'unknown'
    degree: int | None
    witnesses: tuple  # ((generator, MembershipResult), ...) at the found degree
    refutations: tuple[DegreeRefutation, ...]
    minimality_certified: bool
    slices_exact: bool
    cap: int

    def witness_ok(self) -> bool:
        return all(
            la.verify_membership_witness(g, res) for g, res in self.witnesses
        )


def defining_degree(
    G: SubgroupPresentation, d_max: int, work_cap: int, chain=None
) -> DefiningDegreeResult:
    """Smallest d <= d_max with I(G_{<= d}) containing every presented
    generator, certified by membership witnesses; smaller degrees carry
    refutation evidence (definitive when the slice is exact and a point
    certificate was found). `exceeds` needs that evidence at d_max: since
    I_{<= d} is inside I_{<= d_max}, a point of G_{<= d_max} outside G lies
    in every G_{<= d}. Without it the answer is `unknown`. Every slice is
    read from one `la.truncation_chain(G, work_cap)`: `chain`, when the
    caller reads the slices again afterwards, or one of its own."""
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    refutations: list[DegreeRefutation] = []
    slices_exact = G.weights is not None
    if chain is None:
        chain = la.truncation_chain(G, work_cap)
    for d in range(d_max + 1):
        pres, trunc = group_le_d(G, d, work_cap, chain)
        witnesses, failed = la.all_members(G.ideal.generators, pres.ideal, work_cap)
        if failed is None:
            minimal = slices_exact and all(r.definitive for r in refutations)
            return DefiningDegreeResult(
                "found",
                d,
                witnesses,
                tuple(refutations),
                minimal,
                slices_exact,
                work_cap,
            )
        g, res = failed
        refutations.append(
            DegreeRefutation(
                d, g, res.refutation_point, res.definitive and trunc.complete
            )
        )
    status = "exceeds" if refutations[-1].definitive else "unknown"
    return DefiningDegreeResult(
        status, None, (), tuple(refutations), False, slices_exact, work_cap
    )


@dataclass(frozen=True)
class DegreesEqualResult:
    status: str  # 'equal' | 'not_equal' | 'unknown'
    d: int
    d_prime: int
    witnesses: tuple
    failing: SparsePoly | None = None
    refutation_point: tuple | None = None


def degrees_equal_check(
    G: SubgroupPresentation, d: int, d_prime: int, work_cap: int
) -> DegreesEqualResult:
    """Are the degree-d and degree-d' truncation groups equal? Decided by
    membership of the d'-slice generators in the ideal of the d-slice; both
    slices are read from one `la.truncation_chain` of G at `work_cap`. A
    refutation point shows `not_equal` only when the d-slice is complete: a
    capped slice is a lower bound of the degree <= d part of I(G), so its
    zero set may hold points outside the degree-d truncation group."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if d > d_prime:
        raise ValueError("need d <= d'")
    if d == d_prime:
        return DegreesEqualResult("equal", d, d_prime, ())
    chain = la.truncation_chain(G, work_cap)
    pres_d, trunc_d = group_le_d(G, d, work_cap, chain)
    trunc_hi = chain(d_prime)
    witnesses, failed = la.all_members(trunc_hi.basis, pres_d.ideal, work_cap)
    if failed is None:
        return DegreesEqualResult("equal", d, d_prime, witnesses)
    g, res = failed
    if res.definitive and trunc_d.complete:
        return DegreesEqualResult(
            "not_equal", d, d_prime, witnesses, g, res.refutation_point
        )
    return DegreesEqualResult("unknown", d, d_prime, witnesses, g)
