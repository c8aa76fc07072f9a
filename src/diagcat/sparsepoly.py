"""Sparse multivariate polynomials over an exact field.

Terms map exponent tuples to nonzero coefficients. Instances are treated as
immutable; all operations return new polynomials. A polynomial's ring is its
field and its number of variables: `+`, `-` and `*` raise `ValueError` on
operands from different rings.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from itertools import combinations
from operator import add

from .field import ExactField


@dataclass(frozen=True)
class SparsePoly:
    field: ExactField
    nvars: int
    terms: tuple = dc_field(default=())  # sorted ((exps, coeff), ...)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def _check(self, other: SparsePoly) -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"operands in {self.nvars} and {other.nvars} variables")
        if self.field != other.field:
            raise ValueError(f"operands over {self.field} and {other.field}")

    def __add__(self, other: SparsePoly) -> SparsePoly:
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        d = dict(self.terms)
        z = self.field.zero()
        for e, c in other.terms:
            s = self.field.add(d.get(e, z), c)
            if s == z:
                d.pop(e, None)
            else:
                d[e] = s
        return from_dict(self.field, self.nvars, d)

    def __neg__(self) -> SparsePoly:
        return SparsePoly(
            self.field,
            self.nvars,
            tuple((e, self.field.neg(c)) for e, c in self.terms),
        )

    def __sub__(self, other: SparsePoly) -> SparsePoly:
        return self + (-other)

    def __mul__(self, other: SparsePoly) -> SparsePoly:
        self._check(other)
        if not self.terms:
            return self
        if not other.terms:
            return other
        f = self.field
        return from_dict(f, self.nvars, _product(f, self.terms, other.terms))

    def scale(self, lam) -> SparsePoly:
        f = self.field
        lam = f.of(lam)
        if not lam:
            return SparsePoly(f, self.nvars, ())
        if lam == 1 or not self.terms:
            return self
        return SparsePoly(
            f, self.nvars, tuple((e, f.mul(lam, c)) for e, c in self.terms)
        )

    def pow(self, k: int) -> SparsePoly:
        out = constant(self.field, self.nvars, self.field.one())
        for _ in range(k):
            out = out * self
        return out

    @cached_property
    def _compiled(self) -> tuple:
        """Terms as (coeff, ((variable, exponent), ...)), zero exponents dropped."""
        return tuple(
            (c, tuple((i, k) for i, k in enumerate(e) if k)) for e, c in self.terms
        )

    def evaluate(self, values):
        """The value at the point with coordinates `values`."""
        f = self.field
        acc = f.zero()
        for c, factors in self._compiled:
            for i, k in factors:
                c = f.mul(c, f.pow(values[i], k))
            acc = f.add(acc, c)
        return acc

    def evaluate_columns(self, columns, rows) -> list:
        """The values at many points at once: `columns[i][r]` is variable
        i's coordinate at point r, and the result lists the value at each
        point of `rows`, in order. Same values as `evaluate` point by point."""
        p = self.field.p
        if p is not None:
            acc = [0] * len(rows)
            for c, factors in self._compiled:
                vals = [c] * len(rows)
                for i, k in factors:
                    col = columns[i]
                    if k == 1:
                        vals = [v * col[r] % p for v, r in zip(vals, rows)]
                    else:
                        vals = [v * pow(col[r], k, p) % p for v, r in zip(vals, rows)]
                acc = [a + v for a, v in zip(acc, vals)]
            return [a % p for a in acc]
        # over Q a term is skipped at its first zero factor: stream points
        # are mostly zero off the diagonal, and Fraction products are costly
        acc = [self.field.zero()] * len(rows)
        for c, factors in self._compiled:
            for slot, r in enumerate(rows):
                v = c
                for i, k in factors:
                    x = columns[i][r]
                    if not x:
                        break
                    v *= x if k == 1 else x**k
                else:
                    acc[slot] += v
        return acc

    def substitute(self, images) -> SparsePoly:
        """The ring map sending variable i to the polynomial `images[i]`; all
        images lie in one target ring."""
        if not images or len(images) != self.nvars:
            raise ValueError(f"need {self.nvars} images, got {len(images)}")
        f, nvars = images[0].field, images[0].nvars
        unit = (0,) * nvars
        powers: dict = {}
        acc: dict = {}
        for c, factors in self._compiled:
            term = {unit: c}
            for i, k in factors:
                if (i, k) not in powers:
                    powers[i, k] = images[i].pow(k).terms
                term = _product(f, term.items(), powers[i, k])
            for e, x in term.items():
                acc[e] = f.add(acc.get(e, f.zero()), x)
        return from_dict(f, nvars, acc)


def _product(field: ExactField, a, b) -> dict:
    """Exponents -> nonzero coefficient of the product of two term lists."""
    z = field.zero()
    d: dict = {}
    for e1, c1 in a:
        for e2, c2 in b:
            e = tuple(map(add, e1, e2))
            s = field.add(d.get(e, z), field.mul(c1, c2))
            if s == z:
                d.pop(e, None)
            else:
                d[e] = s
    return d


def from_dict(field: ExactField, nvars: int, d: dict) -> SparsePoly:
    z = field.zero()
    items = tuple(sorted((e, c) for e, c in d.items() if c != z))
    return SparsePoly(field, nvars, items)


def zero(field: ExactField, nvars: int) -> SparsePoly:
    return SparsePoly(field, nvars, ())


def constant(field: ExactField, nvars: int, c) -> SparsePoly:
    c = field.of(c)
    if c == field.zero():
        return zero(field, nvars)
    return SparsePoly(field, nvars, (((0,) * nvars, c),))


def variable(field: ExactField, nvars: int, i: int) -> SparsePoly:
    e = [0] * nvars
    e[i] = 1
    return SparsePoly(field, nvars, ((tuple(e), field.one()),))


def monomial(field: ExactField, nvars: int, exps, c=1) -> SparsePoly:
    c = field.of(c)
    if c == field.zero():
        return zero(field, nvars)
    return SparsePoly(field, nvars, ((tuple(exps), c),))


@lru_cache(maxsize=128)
def monomials_up_to(nvars: int, d: int) -> tuple[tuple, ...]:
    """All exponent tuples of total degree <= d, graded then lex, as one
    cached tuple per (nvars, d). The tuples of degree t in nvars >= 1
    variables are the placements of nvars - 1 bars among t + nvars - 1
    slots, whose lex order is that of the exponents they give."""
    if nvars == 0:
        return ((),) if d >= 0 else ()
    out = []
    for total in range(d + 1):
        end = total + nvars - 1
        for bars in combinations(range(end), nvars - 1):
            out.append(tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, end))))
    return tuple(out)
