"""Exact coefficient fields (Q and F_p) and exact linear algebra.

Elements are plain `Fraction`s for Q and reduced ints for F_p; the field
object supplies the arithmetic. All matrix routines are pure functions on
list-of-list matrices and return reduced canonical forms.
"""

from __future__ import annotations

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
            return 1 / a
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


def mat_of(field: ExactField, rows):
    return [[field.of(x) for x in row] for row in rows]


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
    """Matrix-entry ring for polynomials (`SparsePoly`, `LaurentElement`):
    the entries carry their own + and *, this supplies the constants."""

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


def mat_vec(field: ExactField, a, v):
    return [
        _dot(field, row, v)
        for row in a
    ]


def _dot(field: ExactField, xs, ys):
    acc = field.zero()
    for x, y in zip(xs, ys):
        acc = field.add(acc, field.mul(x, y))
    return acc


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def rref(field: ExactField, m):
    """Reduced row echelon form. Returns (R, pivot_columns)."""
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    zero = field.zero()
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i][c] != zero:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = field.inv(a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != zero:
                f = a[i][c]
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


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
    free = [c for c in range(cols) if c not in pivots]
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
    aug = [list(row) + [bb] for row, bb in zip(m, b)]
    r, pivots = rref(field, aug)
    zero = field.zero()
    for row in r:
        if all(x == zero for x in row[:cols]) and row[cols] != zero:
            return None
    x = [zero] * cols
    for i, c in enumerate(pivots):
        if c == cols:
            return None
        x[c] = r[i][cols]
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
