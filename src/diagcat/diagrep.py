"""The canonical exact model of the representation category of D(A).

Objects are completely parenthesized tensor words whose leaves are weight
multisets over a finitely generated abelian group A; an n-dimensional object
carries the ordered basis of per-leaf weight choices (lexicographic across
leaves, canonical coordinate order inside each leaf). Morphisms act weight
block by weight block: a morphism from b to c is a family of matrices, one
for each group element shared by the isotypic weights of b and c.

There is exactly one zero object, absorbing under tensor. All values are
immutable and all operations are pure functions.

Objects are hash-consed (`hashcons.Interned`): `BaseObject`, its
`WeightMultiset` leaves, their `GroupElement`s and the `ParenShape` are each
the one live instance for their field values, so equal means identical and
the hash is a stored int. The intern tables hold their objects weakly.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .abelian import FgAbelianGroup, GroupElement, parse_element
from . import field as fieldmod
from .field import ExactField
from .hashcons import Interned
from .paren import LEAF, ParenShape, enumerate_shapes, fold, pair


# ---------------------------------------------------------------------------
# Objects


@dataclass(frozen=True, eq=False)
class WeightMultiset(metaclass=Interned):
    """A multiset of group elements, stored sorted; `tag` distinguishes
    deliberately duplicated copies in corrupted test models."""

    group: FgAbelianGroup
    elements: tuple[GroupElement, ...]
    tag: str = ""

    def __post_init__(self):
        if len(self.elements) < 1:
            raise ValueError("weight multiset must be nonempty")
        for e in self.elements:
            if e.group != self.group:
                raise ValueError("element of a different group")
        if tuple(sorted(self.elements, key=lambda e: e.coords)) != self.elements:
            raise ValueError("elements must be stored sorted")

    @property
    def size(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        inner = " ".join(_format_weight(e) for e in self.elements)
        return "{" + inner + "}"


def _format_weight(e: GroupElement) -> str:
    if len(e.coords) == 1:
        return str(e.coords[0])
    return str(e)


def weight_multiset(group: FgAbelianGroup, elements) -> WeightMultiset:
    elems = tuple(sorted(elements, key=lambda e: e.coords))
    return WeightMultiset(group, elems)


@dataclass(frozen=True, eq=False)
class BaseObject(metaclass=Interned):
    """`shape is None` marks the unique zero object."""

    shape: ParenShape | None
    leaves: tuple[WeightMultiset, ...]

    @property
    def is_zero(self) -> bool:
        return self.shape is None

    @property
    def tensor_length(self) -> int:
        if self.is_zero:
            raise ValueError("the zero object has no tensor length")
        return len(self.leaves)

    @cached_property
    def dimension(self) -> int:
        if self.is_zero:
            return 0
        n = 1
        for leaf in self.leaves:
            n *= leaf.size
        return n

    @property
    def sort(self) -> tuple[int, int]:
        return (self.tensor_length, self.dimension)

    @property
    def group(self) -> FgAbelianGroup:
        if self.is_zero:
            raise ValueError("the zero object has no owner group")
        return self.leaves[0].group

    def __str__(self) -> str:
        return format_object(self)


ZERO = BaseObject(None, ())


def make_irreducible(ms: WeightMultiset) -> BaseObject:
    return BaseObject(LEAF, (ms,))


def irreducible(group: FgAbelianGroup, elements) -> BaseObject:
    return make_irreducible(weight_multiset(group, elements))


def unit_object(group: FgAbelianGroup) -> BaseObject:
    return irreducible(group, [group.zero()])


@lru_cache(maxsize=None)
def basis_weights(b: BaseObject) -> tuple[GroupElement, ...]:
    """The weight of each basis vector. A basis vector chooses one weight
    from each leaf; they are ordered by `itertools.product` of the leaves'
    index ranges (per-leaf canonical order, lexicographic across leaves)."""
    if b.is_zero:
        return ()
    weights = b.leaves[0].elements
    for leaf in b.leaves[1:]:
        weights = tuple(w + e for w in weights for e in leaf.elements)
    return weights


def isotypic_weights(b: BaseObject) -> tuple[GroupElement, ...]:
    """The weight multiset of the ordered basis, canonically sorted."""
    return tuple(sorted(basis_weights(b), key=lambda e: e.coords))


@lru_cache(maxsize=None)
def weight_slots(b: BaseObject) -> tuple[tuple[GroupElement, tuple[int, ...]], ...]:
    """Slots of each weight, keyed and ordered by the canonical weight order."""
    slots: dict[GroupElement, list[int]] = {}
    for i, w in enumerate(basis_weights(b)):
        slots.setdefault(w, []).append(i)
    return tuple(
        (w, tuple(slots[w])) for w in sorted(slots, key=lambda e: e.coords)
    )


# ---------------------------------------------------------------------------
# Tensor structure on objects


def tensor_obj(b: BaseObject, c: BaseObject) -> BaseObject:
    # fields, not the `is_zero`/`group` properties: check 19 calls this once
    # per pair of fragment objects
    if b.shape is None or c.shape is None:
        return ZERO
    bg, cg = b.leaves[0].group, c.leaves[0].group
    if bg is not cg and bg != cg:
        raise ValueError("objects over different groups")
    return BaseObject(pair(b.shape, c.shape), b.leaves + c.leaves)


def tensor_factorize(b: BaseObject):
    """The unique factorization into irreducibles, as a nested pair tree
    mirroring the object's shape; leaves are single-leaf objects."""
    if b.is_zero:
        raise ValueError("the zero object is not tensor irreducible")
    return fold(b.shape, lambda k: make_irreducible(b.leaves[k]), lambda l, r: (l, r))


def retensor(tree, tensor) -> BaseObject:
    """Multiply a factorization tree back together with `tensor`."""
    if isinstance(tree, BaseObject):
        return tree
    l, r = tree
    return tensor(retensor(l, tensor), retensor(r, tensor))


def normalized_object(b: BaseObject) -> BaseObject:
    """The unique tensor irreducible object isomorphic to b."""
    if b.is_zero:
        return ZERO
    return make_irreducible(weight_multiset(b.group, basis_weights(b)))


# ---------------------------------------------------------------------------
# Vectors


@dataclass(frozen=True)
class ModelVector:
    field: ExactField
    obj: BaseObject
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.obj.dimension:
            raise ValueError("coefficient vector has wrong length")

    def is_zero_vector(self) -> bool:
        z = self.field.zero()
        return all(c == z for c in self.coeffs)


def zero_vector(field: ExactField, obj: BaseObject) -> ModelVector:
    return ModelVector(field, obj, (field.zero(),) * obj.dimension)


def basis_vector(field: ExactField, obj: BaseObject, i: int) -> ModelVector:
    coeffs = [field.zero()] * obj.dimension
    coeffs[i] = field.one()
    return ModelVector(field, obj, tuple(coeffs))


def add_vectors(v: ModelVector, w: ModelVector) -> ModelVector:
    if v.obj != w.obj:
        raise ValueError("vectors in different fibers")
    f = v.field
    return ModelVector(f, v.obj, tuple(f.add(a, b) for a, b in zip(v.coeffs, w.coeffs)))


def scale_vector(lam, v: ModelVector) -> ModelVector:
    f = v.field
    lam = f.of(lam)
    return ModelVector(f, v.obj, tuple(f.mul(lam, c) for c in v.coeffs))


def tensor_vec(v: ModelVector, w: ModelVector) -> ModelVector:
    """Bilinear map V_b x V_c -> V_{b (x) c} concatenating basis tuples."""
    target = tensor_obj(v.obj, w.obj)
    if target.is_zero:
        return zero_vector(v.field, ZERO)
    f = v.field
    coeffs = []
    for a in v.coeffs:
        for b in w.coeffs:
            coeffs.append(f.mul(a, b))
    return ModelVector(f, target, tuple(coeffs))


# ---------------------------------------------------------------------------
# Morphisms

Matrix = tuple  # tuple of tuples of field elements


@dataclass(frozen=True)
class HomMorphism:
    """Per-weight blocks; block at weight a has shape m_target(a) x m_source(a).

    Only blocks that are not identically zero are stored, sorted by weight.
    `tag` exists so corrupted test models can carry distinct labels with equal
    linear maps.
    """

    field: ExactField
    source: BaseObject
    target: BaseObject
    blocks: tuple[tuple[GroupElement, Matrix], ...]
    tag: str = ""

    def block(self, a: GroupElement):
        for w, m in self.blocks:
            if w == a:
                return m
        return None

    def is_zero_morphism(self) -> bool:
        return not self.blocks

    def __str__(self) -> str:
        inner = ", ".join(f"{_format_weight(w)}:{m}" for w, m in self.blocks)
        return f"Hom[{self.source} -> {self.target}]({inner})"


def _canonical_blocks(field: ExactField, blocks: dict) -> tuple:
    z = field.zero()
    out = []
    for w in sorted(blocks, key=lambda e: e.coords):
        m = blocks[w]
        if any(x != z for row in m for x in row):
            out.append((w, tuple(tuple(row) for row in m)))
    return tuple(out)


def make_morphism(field, source, target, blocks: dict, tag: str = "") -> HomMorphism:
    return HomMorphism(field, source, target, _canonical_blocks(field, blocks), tag)


def zero_morphism(field: ExactField, source: BaseObject, target: BaseObject) -> HomMorphism:
    return HomMorphism(field, source, target, ())


@dataclass(frozen=True)
class HomSpace:
    source: BaseObject
    target: BaseObject
    dim: int
    basis: tuple[HomMorphism, ...]


def hom_dimension(b: BaseObject, c: BaseObject) -> int:
    if b.is_zero or c.is_zero:
        return 0
    mult_c = {w: len(s) for w, s in weight_slots(c)}
    return sum(len(s) * mult_c.get(w, 0) for w, s in weight_slots(b))


def hom_space(field: ExactField, b: BaseObject, c: BaseObject) -> HomSpace:
    """Basis of elementary morphisms, ordered by weight then target then source."""
    if b.is_zero or c.is_zero:
        return HomSpace(b, c, 0, ())
    slots_b = dict(weight_slots(b))
    basis = []
    one = field.one()
    zero = field.zero()
    for w, tslots in weight_slots(c):
        sslots = slots_b.get(w)
        if not sslots:
            continue
        for i in range(len(tslots)):
            for j in range(len(sslots)):
                m = [[zero] * len(sslots) for _ in range(len(tslots))]
                m[i][j] = one
                basis.append(make_morphism(field, b, c, {w: m}))
    return HomSpace(b, c, len(basis), tuple(basis))


def apply_morphism(f: HomMorphism, v: ModelVector) -> ModelVector:
    if v.obj != f.source:
        raise ValueError("vector not in the source fiber")
    k = f.field
    out = [k.zero()] * f.target.dimension
    tslots = dict(weight_slots(f.target))
    sslots = dict(weight_slots(f.source))
    for w, m in f.blocks:
        ss = sslots[w]
        ts = tslots[w]
        for i, ti in enumerate(ts):
            acc = k.zero()
            for j, sj in enumerate(ss):
                acc = k.add(acc, k.mul(m[i][j], v.coeffs[sj]))
            out[ti] = k.add(out[ti], acc)
    return ModelVector(k, f.target, tuple(out))


def dense_matrix(f: HomMorphism):
    k = f.field
    rows = f.target.dimension
    cols = f.source.dimension
    out = [[k.zero()] * cols for _ in range(rows)]
    tslots = dict(weight_slots(f.target))
    sslots = dict(weight_slots(f.source))
    for w, m in f.blocks:
        for i, ti in enumerate(tslots[w]):
            for j, sj in enumerate(sslots[w]):
                out[ti][sj] = m[i][j]
    return out


def _from_entries(field, source, target, entries) -> HomMorphism:
    """The morphism with the given (target_slot, source_slot, value) entries,
    each placed in its weight block; raises on a nonzero entry that joins
    slots of two different weights (the map would not be equivariant)."""
    zero = field.zero()
    tslots, sslots = weight_slots(target), weight_slots(source)
    # slot -> (weight, rank among that weight's slots)
    tpos = {i: (w, k) for w, slots in tslots for k, i in enumerate(slots)}
    spos = {j: (w, k) for w, slots in sslots for k, j in enumerate(slots)}
    rows = {w: len(slots) for w, slots in tslots}
    cols = {w: len(slots) for w, slots in sslots}
    blocks = {}
    for t, s, x in entries:
        if x == zero:
            continue
        (w, i), (v, j) = tpos[t], spos[s]
        if w != v:
            raise ValueError(f"entry ({t},{s}) joins weights {w} and {v}")
        if w not in blocks:
            blocks[w] = fieldmod.zeros(field, rows[w], cols[w])
        blocks[w][i][j] = x
    return make_morphism(field, source, target, blocks)


def _block_identity(field, source, target) -> HomMorphism:
    """The k-th weight-w slot of source to the k-th weight-w slot of target;
    raises unless the two objects carry the same weight multiset."""
    sizes = [(w, len(s)) for w, s in weight_slots(source)]
    if sizes != [(w, len(s)) for w, s in weight_slots(target)]:
        raise ValueError("source and target weight multisets differ")
    blocks = {w: fieldmod.identity(field, n) for w, n in sizes}
    return make_morphism(field, source, target, blocks)


def identity_morphism(field: ExactField, b: BaseObject) -> HomMorphism:
    return _block_identity(field, b, b)


def add_morphisms(f: HomMorphism, g: HomMorphism) -> HomMorphism:
    if f.source != g.source or f.target != g.target:
        raise ValueError("morphism shapes differ")
    k = f.field
    blocks = {w: [list(row) for row in m] for w, m in f.blocks}
    for w, m in g.blocks:
        if w in blocks:
            cur = blocks[w]
            for i, row in enumerate(m):
                for j, x in enumerate(row):
                    cur[i][j] = k.add(cur[i][j], x)
        else:
            blocks[w] = [list(row) for row in m]
    return make_morphism(k, f.source, f.target, blocks, f.tag)


def scale_morphism(lam, f: HomMorphism) -> HomMorphism:
    k = f.field
    lam = k.of(lam)
    blocks = {
        w: [[k.mul(lam, x) for x in row] for row in m] for w, m in f.blocks
    }
    return make_morphism(k, f.source, f.target, blocks, f.tag)


def compose(g: HomMorphism, f: HomMorphism) -> HomMorphism:
    """g after f (blockwise product on shared weights)."""
    if f.target != g.source:
        raise ValueError("target of f must equal source of g")
    k = f.field
    blocks = {}
    fb = dict(f.blocks)
    for w, gm in g.blocks:
        fm = fb.get(w)
        if fm is not None:
            blocks[w] = fieldmod.mat_mul(k, gm, fm)
    return make_morphism(k, f.source, g.target, blocks)


def tensor_hom(f: HomMorphism, g: HomMorphism) -> HomMorphism:
    """f (x) g on the tensor objects (Kronecker product in the tuple bases),
    one product of blocks at a time."""
    k = f.field
    ft, fs = dict(weight_slots(f.target)), dict(weight_slots(f.source))
    gt, gs = dict(weight_slots(g.target)), dict(weight_slots(g.source))
    nt, ns = g.target.dimension, g.source.dimension
    entries = (
        (ti * nt + tk, sj * ns + sl, k.mul(x, y))
        for wf, fm in f.blocks
        for wg, gm in g.blocks
        for ti, frow in zip(ft[wf], fm)
        for sj, x in zip(fs[wf], frow)
        for tk, grow in zip(gt[wg], gm)
        for sl, y in zip(gs[wg], grow)
    )
    return _from_entries(
        k, tensor_obj(f.source, g.source), tensor_obj(f.target, g.target), entries
    )


def associator(field, b, c, d) -> HomMorphism:
    """b (x) (c (x) d) -> (b (x) c) (x) d; the identity on basis tuples."""
    return _block_identity(
        field, tensor_obj(b, tensor_obj(c, d)), tensor_obj(tensor_obj(b, c), d)
    )


def associator_inv(field, b, c, d) -> HomMorphism:
    return _block_identity(
        field, tensor_obj(tensor_obj(b, c), d), tensor_obj(b, tensor_obj(c, d))
    )


def braiding(field, b, c) -> HomMorphism:
    """b (x) c -> c (x) b, v (x) w -> w (x) v."""
    nb, nc = b.dimension, c.dimension
    one = field.one()
    entries = (
        (j * nb + i, i * nc + j, one) for i in range(nb) for j in range(nc)
    )
    return _from_entries(field, tensor_obj(b, c), tensor_obj(c, b), entries)


def right_unitor(field, b) -> HomMorphism:
    """b -> b (x) 1, v -> v (x) u0."""
    return _block_identity(field, b, tensor_obj(b, unit_object(b.group)))


def left_unitor(field, b) -> HomMorphism:
    """b -> 1 (x) b, v -> u0 (x) v."""
    return _block_identity(field, b, tensor_obj(unit_object(b.group), b))


def left_unitor_inv(field, b) -> HomMorphism:
    return _block_identity(field, tensor_obj(unit_object(b.group), b), b)


def right_unitor_inv(field, b) -> HomMorphism:
    return _block_identity(field, tensor_obj(b, unit_object(b.group)), b)


# ---------------------------------------------------------------------------
# Duals, biproducts, kernels, cokernels


@dataclass(frozen=True)
class DualData:
    dual: BaseObject
    ev: HomMorphism  # b (x) dual -> 1
    coev: HomMorphism  # 1 -> dual (x) b


def _dual_pairing(b: BaseObject, dual: BaseObject) -> list[int]:
    """sigma[i] = slot of `dual` matched with slot i of b (k-th weight-w slot
    of b pairs with k-th weight-(-w) slot of the dual)."""
    dual_slots = {w: list(s) for w, s in weight_slots(dual)}
    sigma = [0] * b.dimension
    for w, slots in weight_slots(b):
        partners = dual_slots[-w]
        for k, i in enumerate(slots):
            sigma[i] = partners[k]
    return sigma


def dual_data(field: ExactField, b: BaseObject) -> DualData:
    if b.is_zero:
        raise ValueError("the zero object has no dual")
    group = b.group
    dual = make_irreducible(
        weight_multiset(group, tuple(-w for w in basis_weights(b)))
    )
    sigma = _dual_pairing(b, dual)
    unit = unit_object(group)
    n = b.dimension
    one = field.one()
    ev = _from_entries(
        field, tensor_obj(b, dual), unit, ((0, i * n + sigma[i], one) for i in range(n))
    )
    coev = _from_entries(
        field, unit, tensor_obj(dual, b), ((sigma[i] * n + i, 0, one) for i in range(n))
    )
    return DualData(dual, ev, coev)


def snake_composites(field: ExactField, b: BaseObject, dd: DualData):
    """The two rigidity composites of b and its dual data; both must equal
    the identity."""
    bv = dd.dual
    idb = identity_morphism(field, b)
    idv = identity_morphism(field, bv)
    first = compose(
        left_unitor_inv(field, b),
        compose(
            tensor_hom(dd.ev, idb),
            compose(
                associator(field, b, bv, b),
                compose(tensor_hom(idb, dd.coev), right_unitor(field, b)),
            ),
        ),
    )
    second = compose(
        right_unitor_inv(field, bv),
        compose(
            tensor_hom(idv, dd.ev),
            compose(
                associator_inv(field, bv, b, bv),
                compose(tensor_hom(dd.coev, idv), left_unitor(field, bv)),
            ),
        ),
    )
    return first, second


@dataclass(frozen=True)
class BiproductData:
    total: BaseObject
    inj1: HomMorphism
    inj2: HomMorphism
    proj1: HomMorphism
    proj2: HomMorphism


def direct_sum_data(field: ExactField, b: BaseObject, c: BaseObject) -> BiproductData:
    if b.is_zero or c.is_zero:
        raise ValueError("biproduct of the zero object is not represented")
    if b.group != c.group:
        raise ValueError("objects over different groups")
    group = b.group
    total = make_irreducible(
        weight_multiset(group, basis_weights(b) + basis_weights(c))
    )
    tslots = dict(weight_slots(total))
    one = field.one()

    def embed(obj, offset_of_weight):
        entries = (
            (tslots[w][offset_of_weight(w) + k], slot, one)
            for w, slots in weight_slots(obj)
            for k, slot in enumerate(slots)
        )
        return _from_entries(field, obj, total, entries)

    mb = {w: len(s) for w, s in weight_slots(b)}
    inj1 = embed(b, lambda w: 0)
    inj2 = embed(c, lambda w: mb.get(w, 0))
    return BiproductData(
        total, inj1, inj2, transpose_morphism(inj1), transpose_morphism(inj2)
    )


def transpose_morphism(f: HomMorphism) -> HomMorphism:
    """The transpose target -> source, block by block."""
    blocks = tuple((w, tuple(zip(*m))) for w, m in f.blocks)
    return HomMorphism(f.field, f.target, f.source, blocks)


def kernel_of(field: ExactField, f: HomMorphism):
    """(u, inclusion) with inclusion injective, f o inclusion = 0 and
    dim u = dim ker f~. Returns (ZERO, zero morphism) for injective f."""
    kernel_weights: list[GroupElement] = []
    columns: dict[GroupElement, list] = {}
    tgt_mult = {w: len(s) for w, s in weight_slots(f.target)}
    for w, slots in weight_slots(f.source):
        ncols = len(slots)
        block = f.block(w)
        if block is None:
            rows = tgt_mult.get(w, 0)
            block = [[field.zero()] * ncols for _ in range(rows)]
        if len(block) == 0:
            basis = [fieldmod.unit_vector(field, ncols, j) for j in range(ncols)]
        else:
            basis = fieldmod.kernel(field, [list(r) for r in block])
        if basis:
            columns[w] = basis
            kernel_weights.extend([w] * len(basis))
    if not kernel_weights:
        return ZERO, zero_morphism(field, ZERO, f.source)
    u = make_irreducible(weight_multiset(f.source.group, kernel_weights))
    blocks = {}
    for w, basis in columns.items():
        # rows: source weight-w slots; cols: kernel basis vectors
        blocks[w] = [
            [basis[j][i] for j in range(len(basis))] for i in range(len(basis[0]))
        ]
    inc = make_morphism(field, u, f.source, blocks)
    return u, inc


def cokernel_of(field: ExactField, f: HomMorphism):
    """(w, projection) with projection surjective and projection o f = 0:
    the transpose of the kernel of the transpose of f."""
    w, inc = kernel_of(field, transpose_morphism(f))
    return w, transpose_morphism(inc)


def normalize_to_irreducible(field: ExactField, b: BaseObject):
    """(c, iso) with c tensor irreducible and iso a weight-respecting
    bijection of ordered bases."""
    c = normalized_object(b)
    return c, _block_identity(field, b, c)


# ---------------------------------------------------------------------------
# Character extraction


def char_object(group: FgAbelianGroup, a: GroupElement) -> BaseObject:
    return irreducible(group, [a])


def char_sum(b1: BaseObject, b2: BaseObject) -> BaseObject:
    """The extracted addition on one-dimensional irreducibles."""
    for b in (b1, b2):
        if b.is_zero or b.dimension != 1 or b.tensor_length != 1:
            raise ValueError("character addition needs 1-dimensional irreducibles")
    return normalized_object(tensor_obj(b1, b2))


@dataclass(frozen=True)
class CharacterCheck:
    ok: bool
    checked_pairs: int
    failures: tuple[str, ...]


def character_group_check(group: FgAbelianGroup, elements) -> CharacterCheck:
    """Verify that a |-> {a} is an isomorphism onto the extracted group law
    on the given element set (exhaustive table check)."""
    elements = list(elements)
    failures = []
    pairs = 0
    phi = {a: char_object(group, a) for a in elements}
    for a in elements:
        for b in elements:
            pairs += 1
            got = char_sum(phi[a], phi[b])
            want = char_object(group, a + b)
            if got != want:
                failures.append(f"{a} + {b}: got {got}, expected {want}")
    zero = group.zero()
    if char_object(group, zero) != unit_object(group):
        failures.append("unit mismatch")
    for a in elements:
        dual = normalized_object(
            make_irreducible(
                weight_multiset(group, tuple(-w for w in basis_weights(phi[a])))
            )
        )
        if dual != char_object(group, -a):
            failures.append(f"inverse of {a} mismatch")
    return CharacterCheck(not failures, pairs, tuple(failures))


@dataclass(frozen=True)
class Character:
    """A point of D(A)(F_p): a homomorphism A -> F_p^*, A finite."""

    field: ExactField
    group: FgAbelianGroup
    exponents: tuple[int, ...]  # one exponent per torsion generator

    def value(self, a: GroupElement):
        p = self.field.p
        g = self.field.multiplicative_generator()
        acc = 1
        for (d, j, c) in zip(self.group.torsion, self.exponents, a.coords):
            acc = (acc * pow(g, ((p - 1) // d) * j * c, p)) % p
        return acc


def all_characters(field: ExactField, group: FgAbelianGroup) -> list[Character]:
    """All |A| characters; requires A finite with exponent dividing p - 1."""
    if not field.is_finite:
        raise ValueError("character enumeration needs a finite field")
    if not group.is_finite:
        raise ValueError("character enumeration needs a finite group")
    for d in group.torsion:
        if (field.p - 1) % d != 0:
            raise ValueError(
                f"torsion {d} does not divide |F_p^*| = {field.p - 1};"
                " not all characters are realized"
            )
    ranges = [range(d) for d in group.torsion]
    return [
        Character(field, group, tuple(js)) for js in itertools.product(*ranges)
    ]


# ---------------------------------------------------------------------------
# Enumeration and text formats


def enumerate_multisets(group: FgAbelianGroup, size: int) -> list[WeightMultiset]:
    return multisets_from(group.elements(), size)


def multisets_from(elements, size: int) -> list[WeightMultiset]:
    elems = sorted(elements, key=lambda e: e.coords)
    group = elems[0].group
    return [
        weight_multiset(group, combo)
        for combo in itertools.combinations_with_replacement(elems, size)
    ]


def enumerate_objects(
    group: FgAbelianGroup, max_dim: int, max_len: int
) -> Iterator[BaseObject]:
    """All non-zero objects of tensor length <= max_len, dimension <= max_dim
    over a finite group, in a deterministic order (lazily)."""
    return objects_from(group.elements(), max_dim, max_len)


def objects_from(elements, max_dim: int, max_len: int) -> Iterator[BaseObject]:
    """The fragment built from an explicit weight list (for infinite groups,
    a bounded subset), lazily."""
    elements = list(elements)
    return tensor_words(lambda n: multisets_from(elements, n), max_dim, max_len)


def tensor_words(leaves_of_size, max_dim: int, max_len: int) -> Iterator[BaseObject]:
    """Every word of tensor length <= max_len and dimension <= max_dim whose
    leaves of size n come from `leaves_of_size(n)`; ordered by length, then
    shape, then leaf sizes, then leaf choices. The leaves are read now, the
    words are built as the iterator is consumed."""
    choices = {n: leaves_of_size(n) for n in range(1, max_dim + 1)}
    return (
        BaseObject(shape, leaves)
        for m in range(1, max_len + 1)
        for shape in enumerate_shapes(m)
        for sizes in compositions_with_product_at_most(m, max_dim)
        for leaves in itertools.product(*(choices[s] for s in sizes))
    )


def compositions_with_product_at_most(m: int, cap: int):
    """Tuples of m positive sizes whose product is at most cap."""
    if m == 0:
        yield ()
        return
    for first in range(1, cap + 1):
        for rest in compositions_with_product_at_most(m - 1, cap // first):
            yield (first,) + rest


def format_object(b: BaseObject) -> str:
    if b.is_zero:
        return "0"
    return fold(b.shape, lambda k: str(b.leaves[k]), lambda l, r: f"( {l} {r} )")


def parse_object(group: FgAbelianGroup, text: str) -> BaseObject:
    """Parse the S-expression format, e.g. `(( {1 2} {0} ) {5})`; `0` is ZERO."""
    text = text.strip()
    if text == "0":
        return ZERO
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_node() -> BaseObject:
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise ValueError("unexpected end of object expression")
        if text[pos] == "{":
            end = text.index("}", pos)
            body = text[pos + 1 : end]
            pos = end + 1
            tokens = _split_multiset_tokens(body)
            if not tokens:
                raise ValueError("empty weight multiset")
            elems = [parse_element(group, t) for t in tokens]
            return irreducible(group, elems)
        if text[pos] == "(":
            pos += 1
            left = parse_node()
            right = parse_node()
            skip_ws()
            if pos >= len(text) or text[pos] != ")":
                raise ValueError("unclosed '(' in object expression")
            pos += 1
            return tensor_obj(left, right)
        raise ValueError(f"unexpected character {text[pos]!r} in object expression")

    obj = parse_node()
    skip_ws()
    if pos != len(text):
        raise ValueError("trailing content after object expression")
    return obj


def object_json(b: BaseObject) -> dict:
    if b.is_zero:
        return {"object": "0", "sort": None, "basis": []}
    return {
        "object": format_object(b),
        "sort": list(b.sort),
        "weights": [str(w) for w in isotypic_weights(b)],
        "basis": [
            {"indices": list(idx),
             "elements": [str(leaf.elements[i]) for leaf, i in zip(b.leaves, idx)],
             "weight": str(w)}
            for idx, w in zip(
                itertools.product(*(range(leaf.size) for leaf in b.leaves)),
                basis_weights(b),
            )
        ],
    }


def morphism_json(f: HomMorphism) -> dict:
    return {
        "source": format_object(f.source),
        "target": format_object(f.target),
        "blocks": [
            {
                "weight": str(w),
                "matrix": [[str(x) for x in row] for row in m],
            }
            for w, m in f.blocks
        ],
    }


def _split_multiset_tokens(body: str) -> list[str]:
    tokens = []
    depth = 0
    cur = []
    for ch in body + " ":
        if ch == "(":
            depth += 1
            cur.append(ch)
        elif ch == ")":
            depth -= 1
            cur.append(ch)
        elif (ch.isspace() or ch == ",") and depth == 0:
            if cur:
                tokens.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    return tokens
