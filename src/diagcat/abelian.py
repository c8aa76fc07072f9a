"""Finitely generated abelian groups and integer lattice computations.

A group is presented as Z^rank + Z/d1 + ... + Z/dt with 2 <= d1 | d2 | ... | dt.
This presentation is unique, so equality of groups is equality of presentations.
Elements are coordinate vectors with torsion coordinates stored reduced.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


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

    def generators(self) -> list[GroupElement]:
        n = self.ncoords
        return [
            self.element(tuple(1 if j == i else 0 for j in range(n)))
            for i in range(n)
        ]

    def elements(self):
        """All elements; only for finite groups (rank 0)."""
        if self.rank != 0:
            raise ValueError("cannot enumerate an infinite group")
        out = [self.zero()]
        for i, d in enumerate(self.torsion):
            new = []
            for e in out:
                for r in range(d):
                    c = list(e.coords)
                    c[self.rank + i] = r
                    new.append(self.element(c))
            out = new
        return out

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    def order(self) -> int:
        if not self.is_finite:
            raise ValueError("infinite group")
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def exponent(self) -> int:
        if not self.is_finite:
            raise ValueError("infinite group")
        return self.torsion[-1] if self.torsion else 1

    def __str__(self) -> str:
        return format_group(self)


@dataclass(frozen=True)
class GroupElement:
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
    """Rewrite arbitrary cyclic factors into divisibility-normalized form."""
    import math

    ds = [d for d in ds if d >= 2]
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                if ds[j] % ds[i] != 0:
                    g = math.gcd(ds[i], ds[j])
                    l = ds[i] * ds[j] // g
                    ds[i], ds[j] = g, l
                    changed = True
        ds = [d for d in ds if d >= 2]
    ds.sort()
    return ds


# ---------------------------------------------------------------------------
# Integer matrices


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m):
    """Return (U, D, V) with U*m*V = D, U and V unimodular, and the diagonal
    of D nonnegative with d1 | d2 | ...
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(map(int, row)) for row in m]
    u = identity_matrix(rows)
    v = identity_matrix(cols)
    _clear_corner(a, u, v, 0, rows, cols)

    # enforce divisibility chain
    t = min(rows, cols)
    dirty = True
    while dirty:
        dirty = False
        for i in range(t - 1):
            x, y = a[i][i], a[i + 1][i + 1]
            if y % (x if x else 1) != 0 or (x == 0 and y != 0):
                # fold entry (i+1,i+1) into row i and redo the corner
                for c in range(cols):
                    a[i][c] += a[i + 1][c]
                for c in range(rows):
                    u[i][c] += u[i + 1][c]
                _clear_corner(a, u, v, i, rows, cols)
                dirty = True

    # make diagonal nonnegative
    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            for c in range(cols):
                a[i][c] = -a[i][c]
            for c in range(rows):
                u[i][c] = -u[i][c]
    return u, a, v


def _clear_corner(a, u, v, t, rows, cols):
    """Diagonalize the block from position t on, in place: move the smallest
    nonzero entry to the corner, reduce its row and column by it, and repeat
    until both are clear, then step to t + 1. Row operations also act on u,
    column operations on v."""
    while True:
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0:
                    if piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            return
        if piv != (t, t):
            i, j = piv
            if i != t:
                a[t], a[i] = a[i], a[t]
                u[t], u[i] = u[i], u[t]
            if j != t:
                for r in range(rows):
                    a[r][t], a[r][j] = a[r][j], a[r][t]
                for r in range(cols):
                    v[r][t], v[r][j] = v[r][j], v[r][t]
        done = True
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                for c in range(cols):
                    a[i][c] -= q * a[t][c]
                for c in range(rows):
                    u[i][c] -= q * u[t][c]
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    u[t], u[i] = u[i], u[t]
                done = False
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                for r in range(rows):
                    a[r][j] -= q * a[r][t]
                for r in range(cols):
                    v[r][j] -= q * v[r][t]
                if a[t][j] != 0:
                    for r in range(rows):
                        a[r][t], a[r][j] = a[r][j], a[r][t]
                    for r in range(cols):
                        v[r][t], v[r][j] = v[r][j], v[r][t]
                done = False
        if done:
            t += 1
            if t >= min(rows, cols):
                return


def row_hermite_basis(rows: list[list[int]]) -> list[list[int]]:
    """The Hermite normal form of the lattice generated by the rows: its
    unique echelon basis with positive pivots and every entry above a pivot
    in [0, pivot)."""
    if not rows:
        return []
    a = [list(map(int, r)) for r in rows]
    cols = len(a[0])
    basis: list[list[int]] = []
    r = 0
    for c in range(cols):
        # gcd-reduce column c among rows r..
        while True:
            nz = [i for i in range(r, len(a)) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][c]))
            a[r], a[i0] = a[i0], a[r]
            done = True
            for i in range(r + 1, len(a)):
                if a[i][c] != 0:
                    q = a[i][c] // a[r][c]
                    for j in range(cols):
                        a[i][j] -= q * a[r][j]
                    if a[i][c] != 0:
                        done = False
            if done:
                break
        if r < len(a) and a[r][c] != 0:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            r += 1
    basis = [row for row in a[:r]]
    # reduce the entries above each pivot into [0, pivot), top-down: row i
    # is zero left of its pivot, so later steps leave earlier columns alone
    pivots = []
    for row in basis:
        for c, x in enumerate(row):
            if x != 0:
                pivots.append(c)
                break
    for i in range(len(basis)):
        c = pivots[i]
        for j in range(i):
            q = basis[j][c] // basis[i][c]
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], basis[i])]
    return basis


def relation_lattice(weights) -> list[list[int]]:
    """Basis of {u in Z^m : sum u_i * a_i = 0 in A}, as rows.

    Computed from the Smith normal form of the weight matrix extended by the
    torsion relations, then projected back to the u-coordinates.
    """
    weights = list(weights)
    if not weights:
        return []
    group = weights[0].group
    for w in weights:
        if w.group != group:
            raise ValueError("weights of different groups")
    m = len(weights)
    t = len(group.torsion)
    ncols = group.ncoords
    mat = [list(w.coords) for w in weights]
    for i, d in enumerate(group.torsion):
        row = [0] * ncols
        row[group.rank + i] = d
        mat.append(row)
    u, dmat, _v = smith_normal_form(mat)
    nrows = m + t
    rank = 0
    for i in range(min(nrows, ncols)):
        if dmat[i][i] != 0:
            rank += 1
    gens = [u[i][:m] for i in range(rank, nrows)]
    return row_hermite_basis(gens)
