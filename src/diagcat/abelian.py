"""Finitely generated abelian groups and integer lattice computations.

A group is presented as Z^rank + Z/d1 + ... + Z/dt with 2 <= d1 | d2 | ... | dt.
This presentation is unique, so equality of groups is equality of presentations.
Elements are coordinate vectors with torsion coordinates stored reduced.

All integer row reduction is one private core, `_hermite(rows) -> (H, U)`:
the Hermite normal form H of the rows, zero rows last, with the unimodular U
that has U * rows = H. The Hermite basis of a lattice is H without its zero
rows; the relation lattice of weights comes from the rows of U whose H row is
zero; the Smith form alternates row and column Hermite forms; and the
invariant factors of a parsed group are the Smith diagonal of its cyclic
factors.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .field import PolyRing, mat_mul, transpose
from .hashcons import Interned

# ints carry their own + and *, so the shared matrix product takes them as is
_ZZ = PolyRing(0, 1)


@dataclass(frozen=True)
class FgAbelianGroup:
    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion invariants must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion invariants must satisfy d_i | d_{i+1}")

    @property
    def ncoords(self) -> int:
        return self.rank + len(self.torsion)

    def element(self, coords) -> GroupElement:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.ncoords:
            raise ValueError(
                f"expected {self.ncoords} coordinates, got {len(coords)}"
            )
        return self._reduce(coords)

    def _reduce(self, coords: tuple[int, ...]) -> GroupElement:
        """The element of `ncoords` int coordinates, torsion ones reduced;
        the group operations call it on coordinates they built themselves."""
        r = self.rank
        torsion = tuple(c % d for c, d in zip(coords[r:], self.torsion))
        return GroupElement(self, coords[:r] + torsion)

    def zero(self) -> GroupElement:
        return self.element((0,) * self.ncoords)

    def elements(self):
        """All elements; only for finite groups (rank 0)."""
        if self.rank != 0:
            raise ValueError("cannot enumerate an infinite group")
        return [self.element(c) for c in itertools.product(*map(range, self.torsion))]

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    def __str__(self) -> str:
        return format_group(self)


@dataclass(frozen=True, eq=False)
class GroupElement(metaclass=Interned):
    """Hash-consed: equal elements are one object."""

    group: FgAbelianGroup
    coords: tuple[int, ...]

    def __add__(self, other: GroupElement) -> GroupElement:
        if self.group != other.group:
            raise ValueError("elements of different groups")
        return self.group._reduce(
            tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> GroupElement:
        return self.group._reduce(tuple(-a for a in self.coords))

    def __sub__(self, other: GroupElement) -> GroupElement:
        return self + (-other)

    def scale(self, k: int) -> GroupElement:
        return self.group._reduce(tuple(k * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    # canonical total order: lexicographic on reduced coordinates
    def __lt__(self, other: GroupElement) -> bool:
        return self.coords < other.coords

    def __le__(self, other: GroupElement) -> bool:
        return self.coords <= other.coords

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


_GROUP_RE = re.compile(r"^\s*(Z(\^\d+)?|Z/\d+)\s*$")


def parse_group(text: str) -> FgAbelianGroup:
    """Parse `Z^r + Z/d1 + Z/d2 + ...` (order of summands is free)."""
    rank = 0
    torsion: list[int] = []
    text = text.strip()
    if text in ("0", "1", "{0}", ""):
        return FgAbelianGroup(0, ())
    for part in text.split("+"):
        m = _GROUP_RE.match(part)
        if not m:
            raise ValueError(f"cannot parse group summand {part!r}")
        part = part.strip()
        if part.startswith("Z/"):
            d = int(part[2:])
            if d == 0:
                raise ValueError(f"group summand {part!r} is Z/0; write Z for it")
            if d == 1:
                continue
            torsion.append(d)
        elif part.startswith("Z^"):
            rank += int(part[2:])
        else:
            rank += 1
    torsion = normalize_torsion(torsion)
    return FgAbelianGroup(rank, tuple(torsion))


def format_group(g: FgAbelianGroup) -> str:
    parts = []
    if g.rank == 1:
        parts.append("Z")
    elif g.rank > 1:
        parts.append(f"Z^{g.rank}")
    parts.extend(f"Z/{d}" for d in g.torsion)
    return " + ".join(parts) if parts else "0"


def parse_element(group: FgAbelianGroup, text: str) -> GroupElement:
    """Parse `(3,0,1)` or `3` (single coordinate)."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    coords = [int(t) for t in text.split(",")] if text else []
    return group.element(coords)


def normalize_torsion(ds: list[int]) -> list[int]:
    """The invariant factors >= 2 of Z/d1 + ... + Z/dk, for d >= 1: the
    diagonal entries >= 2 of the Smith form of diag(ds)."""
    n = len(ds)
    diag = [[ds[i] if i == j else 0 for j in range(n)] for i in range(n)]
    _u, s, _v = smith_normal_form(diag)
    return [s[i][i] for i in range(n) if s[i][i] >= 2]


# ---------------------------------------------------------------------------
# Integer matrices


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _hermite(rows) -> tuple[list[list[int]], list[list[int]]]:
    """(H, U) with U unimodular, U * rows = H, and H the Hermite normal form
    of the rows: echelon with positive pivots, every entry above a pivot in
    [0, pivot), and its zero rows last. It reduces the rows with an identity
    block attached, so that block ends as U."""
    n = len(rows)
    cols = len(rows[0]) if n else 0
    a = [list(map(int, r)) + e for r, e in zip(rows, identity_matrix(n))]
    r = 0
    for c in range(cols):
        # gcd-reduce column c among rows r..: swap the least nonzero entry up
        # and reduce the rows below by it, until it is the only one
        while True:
            nz = [i for i in range(r, n) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][c]))
            a[r], a[i0] = a[i0], a[r]
            if len(nz) == 1:
                break
            for i in range(r + 1, n):
                q = a[i][c] // a[r][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        if r < n and a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            # reduce the entries above the pivot into [0, pivot); rows above
            # are zero left of their pivots, so earlier columns stay reduced
            for j in range(r):
                q = a[j][c] // a[r][c]
                if q:
                    a[j] = [x - q * y for x, y in zip(a[j], a[r])]
            r += 1
    return [row[:cols] for row in a], [row[cols:] for row in a]


def row_hermite_basis(rows: list[list[int]]) -> list[list[int]]:
    """The Hermite normal form of the lattice generated by the rows: its
    unique echelon basis with positive pivots and every entry above a pivot
    in [0, pivot)."""
    h, _u = _hermite(rows)
    return [row for row in h if any(row)]


def smith_normal_form(m):
    """Return (U, D, V) with U*m*V = D, U and V unimodular, and the diagonal
    of D nonnegative with d1 | d2 | ...

    Row and column Hermite forms alternate until the matrix is diagonal
    (Kannan and Bachem): each round either divides the first uncleared
    diagonal entry properly or clears its row and column, and zero rows and
    columns sink to the end. Where a diagonal entry does not divide the next,
    adding the next row to its row makes the next rounds take their gcd.
    """
    a = [list(map(int, row)) for row in m]
    u = identity_matrix(len(a))
    v = identity_matrix(len(a[0]) if a else 0)
    while True:
        a, t = _hermite(a)
        u = mat_mul(_ZZ, t, u)
        if not any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            d = [a[i][i] for i in range(min(len(a), len(v)))]
            i = next((i for i in range(len(d) - 1) if d[i] and d[i + 1] % d[i]), None)
            if i is None:
                return u, a, v
            a[i] = [x + y for x, y in zip(a[i], a[i + 1])]
            u[i] = [x + y for x, y in zip(u[i], u[i + 1])]
        h, t = _hermite(transpose(a))
        a = transpose(h)
        v = mat_mul(_ZZ, v, transpose(t))


def relation_lattice(weights) -> list[list[int]]:
    """Basis of {u in Z^m : sum u_i * a_i = 0 in A}, as rows.

    The weight matrix, extended by one row d * e_i per torsion coordinate, has
    Hermite transform U; the rows of U whose Hermite row is zero span its left
    kernel, and their first m coordinates span the relations.
    """
    weights = list(weights)
    if not weights:
        return []
    group = weights[0].group
    for w in weights:
        if w.group != group:
            raise ValueError("weights of different groups")
    mat = [list(w.coords) for w in weights]
    for i, d in enumerate(group.torsion):
        row = [0] * group.ncoords
        row[group.rank + i] = d
        mat.append(row)
    h, u = _hermite(mat)
    m = len(weights)
    return row_hermite_basis([uu[:m] for hh, uu in zip(h, u) if not any(hh)])
