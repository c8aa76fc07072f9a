"""Exact coefficient fields (Q and F_p) and exact linear algebra.

Elements are plain `Fraction`s for Q and reduced ints for F_p; the field
object supplies the arithmetic. Matrix routines are pure functions on
list-of-list matrices and return reduced canonical forms. Every exact solve
runs through one sparse elimination core, `echelon`, on dict rows; `rref`,
`rank`, `kernel`, `solve_linear` and `inverse` are dense adapters over it
(`det` keeps its own loop to track the sign of row swaps).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class ExactField:
    """`p is None` means the rationals, otherwise the prime field F_p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    def of(self, n) -> Fraction | int:
        if self.p is None:
            return Fraction(n)
        if isinstance(n, Fraction):
            num = n.numerator % self.p
            den = n.denominator % self.p
            return self.mul(num, self.inv(den))
        return int(n) % self.p

    def zero(self):
        return _Q_ZERO if self.p is None else 0

    def one(self):
        return _Q_ONE if self.p is None else 1

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def pow(self, a, k: int):
        return pow(a, k, self.p) if self.p else a**k

    def inv(self, a):
        if a == self.zero():
            raise ZeroDivisionError("field inverse of zero")
        if self.p is None:
            return _Q_ONE / a
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def elements(self):
        if self.p is None:
            raise ValueError("cannot enumerate Q")
        return list(range(self.p))

    def units(self):
        if self.p is None:
            raise ValueError("cannot enumerate Q")
        return list(range(1, self.p))

    def multiplicative_generator(self) -> int:
        """A generator of F_p^* (smallest primitive root)."""
        if self.p is None:
            raise ValueError("Q has no finite multiplicative group")
        p = self.p
        order = p - 1
        factors = set()
        m, d = order, 2
        while d * d <= m:
            while m % d == 0:
                factors.add(d)
                m //= d
            d += 1
        if m > 1:
            factors.add(m)
        for g in range(2, p):
            if all(pow(g, order // q, p) != 1 for q in factors):
                return g
        return 1

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"


QQ = ExactField(None)


def parse_field(text: str) -> ExactField:
    text = text.strip()
    if text in ("Q", "QQ"):
        return ExactField(None)
    if text.startswith("F"):
        return ExactField(int(text[1:]))
    if text.startswith("GF(") and text.endswith(")"):
        return ExactField(int(text[3:-1]))
    raise ValueError(f"cannot parse field spec {text!r}")


# ---------------------------------------------------------------------------
# Matrices: list of rows of field elements


def zeros(field: ExactField, rows: int, cols: int):
    z = field.zero()
    return [[z for _ in range(cols)] for _ in range(rows)]


def identity(field: ExactField, n: int):
    m = zeros(field, n, n)
    one = field.one()
    for i in range(n):
        m[i][i] = one
    return m


def mat_mul(ring, a, b):
    """Matrix product over `ring`: anything with zero(), add and mul, so an
    ExactField or a `PolyRing` of polynomial entries."""
    if not a:
        return []
    if not b:
        return [[] for _ in a]
    inner, cols = len(b), len(b[0])
    if len(a[0]) != inner:
        raise ValueError(
            f"dimension mismatch: {len(a)}x{len(a[0])} times {inner}x{cols}"
        )
    zero = ring.zero()
    out = [[zero] * cols for _ in a]
    for ai, oi in zip(a, out):
        for x, bk in zip(ai, b):
            if x == zero:
                continue
            for j in range(cols):
                oi[j] = ring.add(oi[j], ring.mul(x, bk[j]))
    return out


def kron(ring, mats):
    """Kronecker product of the matrices over `ring`, row-major index order;
    the empty product is the 1 x 1 identity."""
    zero = ring.zero()
    out, cols = [[ring.one()]], 1
    for m in mats:
        mrows = len(m)
        mcols = len(m[0]) if mrows else 0
        new = [[zero] * (cols * mcols) for _ in range(len(out) * mrows)]
        for i0, row0 in enumerate(out):
            for j0, x in enumerate(row0):
                if x == zero:
                    continue
                for i1, row1 in enumerate(m):
                    dst = new[i0 * mrows + i1]
                    for j1, y in enumerate(row1):
                        if y != zero:
                            dst[j0 * mcols + j1] = ring.mul(x, y)
        out, cols = new, cols * mcols
    return out


@dataclass(frozen=True)
class PolyRing:
    """Matrix-entry ring whose entries carry their own + and *, this
    supplying the constants: the `SparsePoly`s of one polynomial ring (for
    `stab`, the coordinate ring k[Z, W]), or the ints of `abelian`."""

    zero_element: object
    one_element: object

    def zero(self):
        return self.zero_element

    def one(self):
        return self.one_element

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        return a * b


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def echelon(field: ExactField, rows, limit: int | None = None):
    """Reduced row echelon form of sparse rows, the one elimination core.

    `rows` are dicts {column: nonzero value}. Returns [(pivot_column, row)]
    sorted by pivot column; each row is a dict of its nonzero entries, 1 at
    its pivot, with no column left of the pivot and no other pivot column.
    Rows are first reduced one at a time against the pivots found so far,
    leftmost column first, then back-substituted from the rightmost pivot;
    each update touches only the nonzeros of the subtracted row. The result
    is the unique reduced form for this column order.

    With a pivot `limit`, the columns from `limit` on (several right-hand
    sides) are never pivots: a row with nothing left of the limit once
    reduced is a residual row, reduces no other row, and the result is
    (pivot rows, residual rows). The pivot rows are then the reduced form of
    the columns left of the limit, whatever the columns after it hold."""
    p = field.p
    pivots: dict[int, dict] = {}
    residual: list[dict] = []
    for src in rows:
        row = dict(src)
        queue = list(row)
        heapq.heapify(queue)
        while queue:
            c = heapq.heappop(queue)
            x = row.get(c)
            if x is None:
                continue
            if limit is not None and c >= limit:
                residual.append(row)
                break
            prow = pivots.get(c)
            if prow is None:
                inv = field.inv(x)
                for k, y in row.items():
                    row[k] = y * inv % p if p else y * inv
                pivots[c] = row
                break
            _subtract(row, x, prow, p, queue)
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for k in [k for k in row if k != c and k in pivots]:
            _subtract(row, row[k], pivots[k], p, None)
    red = sorted(pivots.items())
    return red if limit is None else (red, residual)


def _subtract(row, x, prow, p, queue):
    """row -= x * prow in place, dropping entries that cancel; columns that
    become nonzero are pushed on the heap `queue` when one is given. The
    field test sits outside the loop: this is the hot loop of every solve."""
    if p:
        for k, y in prow.items():
            v = row.get(k)
            if v is None:
                row[k] = -x * y % p
                if queue is not None:
                    heapq.heappush(queue, k)
            else:
                v = (v - x * y) % p
                if v:
                    row[k] = v
                else:
                    del row[k]
    else:
        for k, y in prow.items():
            v = row.get(k)
            if v is None:
                row[k] = -x * y
                if queue is not None:
                    heapq.heappush(queue, k)
            else:
                v -= x * y
                if v:
                    row[k] = v
                else:
                    del row[k]


def _sparse_rows(field: ExactField, m):
    zero = field.zero()
    return [{j: x for j, x in enumerate(row) if x != zero} for row in m]


def rref(field: ExactField, m):
    """Reduced row echelon form of a dense matrix. Returns (R, pivot_columns),
    the zero rows of R last."""
    cols = len(m[0]) if m else 0
    zero = field.zero()
    red = echelon(field, _sparse_rows(field, m))
    out = []
    for _, row in red:
        dense = [zero] * cols
        for j, x in row.items():
            dense[j] = x
        out.append(dense)
    out += [[zero] * cols for _ in range(len(m) - len(red))]
    return out, [c for c, _ in red]


def rank(field: ExactField, m) -> int:
    return len(rref(field, m)[1])


def kernel(field: ExactField, m):
    """Basis vectors of {x : m x = 0} (each a list of length cols)."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [unit_vector(field, cols, j) for j in range(cols)]
    r, pivots = rref(field, m)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    zero = field.zero()
    one = field.one()
    for f in free:
        v = [zero] * cols
        v[f] = one
        for i, c in enumerate(pivots):
            v[c] = field.neg(r[i][f])
        basis.append(v)
    return basis


def unit_vector(field: ExactField, n: int, j: int):
    v = [field.zero()] * n
    v[j] = field.one()
    return v


def solve_linear(field: ExactField, m, b):
    """One exact solution x of m x = b, or None if inconsistent."""
    rows = len(m)
    if rows != len(b):
        raise ValueError("dimension mismatch")
    cols = len(m[0]) if rows else 0
    aug = _sparse_rows(field, m)
    zero = field.zero()
    for row, bb in zip(aug, b):
        if bb != zero:
            row[cols] = bb
    return solve_echelon(field, echelon(field, aug), cols)


def solve_echelon(field: ExactField, red, cols: int, rhs: int | None = None, residual=()):
    """The solution of an augmented system from its `echelon` form, the
    unknowns in columns 0..cols-1 and the right-hand side in column `rhs`
    (default `cols`): free variables 0, None if the system is inconsistent,
    that is if a pivot lands right of the unknowns or, for an `echelon`
    limited at `cols`, a `residual` row is nonzero in column `rhs`."""
    rhs = cols if rhs is None else rhs
    if any(rhs in row for row in residual):
        return None
    zero = field.zero()
    x = [zero] * cols
    for c, row in red:
        if c >= cols:
            return None
        x[c] = row.get(rhs, zero)
    return x


def inverse(field: ExactField, m):
    n = len(m)
    aug = [list(row) + list(idrow) for row, idrow in zip(m, identity(field, n))]
    r, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in r[:n]]


def det(field: ExactField, m):
    n = len(m)
    if n == 0:
        return field.one()
    a = [list(row) for row in m]
    zero = field.zero()
    out = field.one()
    for c in range(n):
        piv = None
        for i in range(c, n):
            if a[i][c] != zero:
                piv = i
                break
        if piv is None:
            return zero
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = field.neg(out)
        out = field.mul(out, a[c][c])
        inv = field.inv(a[c][c])
        for i in range(c + 1, n):
            if a[i][c] != zero:
                f = field.mul(a[i][c], inv)
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[c])]
    return out
