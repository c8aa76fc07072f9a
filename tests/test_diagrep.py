import copy
import gc
import itertools
import pickle
import random
import weakref
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from diagcat import abelian as ab
from diagcat import axioms as ax
from diagcat import diagrep as dr
from diagcat import field as fm
from diagcat.field import ExactField, QQ
from diagcat.paren import LEAF, ParenShape, enumerate_shapes, pair

Z = ab.parse_group("Z")
Z4 = ab.parse_group("Z/4")
Z6 = ab.parse_group("Z/6")
F5 = ExactField(5)
F7 = ExactField(7)


def _irr(group, *coords):
    return dr.irreducible(group, [group.element([c]) for c in coords])


class BasisTuple(NamedTuple):
    """One basis vector: a choice of one weight from each leaf (by index)."""

    indices: tuple
    elements: tuple
    weight: object


def ordered_basis(b):
    """Reference listing of b's basis, as `diagrep` kept it before
    `object_json` read `basis_weights`: per-leaf canonical order,
    lexicographic across leaves, each weight summed from its elements."""
    if b.is_zero:
        return ()
    ranges = [range(leaf.size) for leaf in b.leaves]
    out = []
    for idx in itertools.product(*ranges):
        elems = tuple(leaf.elements[i] for leaf, i in zip(b.leaves, idx))
        w = elems[0]
        for e in elems[1:]:
            w = w + e
        out.append(BasisTuple(idx, elems, w))
    return tuple(out)


def vector(field, obj, coeffs):
    """The vector of obj's fiber with the given coefficients."""
    return dr.ModelVector(field, obj, tuple(field.of(c) for c in coeffs))


def isotypic_multiplicity(b, a):
    """How many basis vectors of b have weight a."""
    return dr.basis_weights(b).count(a)


def is_tensor_irreducible(b):
    return (not b.is_zero) and len(b.leaves) == 1


def test_make_irreducible():
    unit = _irr(Z, 0)
    assert unit == dr.unit_object(Z)
    assert unit.sort == (1, 1)
    b = _irr(Z, 1, 2)
    assert b.sort == (1, 2)
    rep = _irr(Z, 1, 1)
    assert rep.sort == (1, 2)
    assert isotypic_multiplicity(rep, Z.element([1])) == 2
    assert is_tensor_irreducible(rep)
    assert not is_tensor_irreducible(dr.tensor_obj(rep, rep))
    assert not is_tensor_irreducible(dr.ZERO)
    with pytest.raises(ValueError):
        dr.irreducible(Z, [])


def test_tensor_objects():
    b = _irr(Z, 1)
    c = _irr(Z, 2)
    t = dr.tensor_obj(b, c)
    assert t.sort == (2, 1)
    assert [x.weight for x in ordered_basis(t)] == [Z.element([3])]
    assert dr.tensor_obj(_irr(Z, 1, 2), _irr(Z, 0)).sort == (2, 2)
    assert dr.tensor_obj(b, dr.ZERO) == dr.ZERO
    assert dr.tensor_obj(dr.ZERO, c) == dr.ZERO
    with pytest.raises(ValueError):
        dr.tensor_obj(b, _irr(Z4, 1))


def test_tensor_factorize_round_trip():
    b = dr.tensor_obj(dr.tensor_obj(_irr(Z, 1), _irr(Z, 2)), _irr(Z, 3))
    tree = dr.tensor_factorize(b)
    (l, r), leaf3 = tree
    assert l == _irr(Z, 1) and r == _irr(Z, 2) and leaf3 == _irr(Z, 3)
    assert dr.retensor(tree, dr.tensor_obj) == b
    single = _irr(Z, 5)
    assert dr.tensor_factorize(single) == single
    with pytest.raises(ValueError):
        dr.tensor_factorize(dr.ZERO)

    rng = random.Random(7)
    elems = [Z4.element([k]) for k in range(4)]
    for _ in range(100):
        parts = [
            dr.irreducible(Z4, rng.choices(elems, k=rng.randint(1, 2)))
            for _ in range(rng.randint(1, 4))
        ]
        obj = parts[0]
        for p in parts[1:]:
            if rng.random() < 0.5:
                obj = dr.tensor_obj(obj, p)
            else:
                obj = dr.tensor_obj(p, obj)
        assert dr.retensor(dr.tensor_factorize(obj), dr.tensor_obj) == obj


def test_ordered_basis_lex():
    b = _irr(Z, 1, 2)
    assert [t.elements for t in ordered_basis(b)] == [
        (Z.element([1]),),
        (Z.element([2]),),
    ]
    t = dr.tensor_obj(_irr(Z, 1, 2), _irr(Z, 0, 5))
    got = [tuple(e.coords[0] for e in x.elements) for x in ordered_basis(t)]
    assert got == [(1, 0), (1, 5), (2, 0), (2, 5)]
    rep = _irr(Z, 1, 1)
    slots = ordered_basis(rep)
    assert len(slots) == 2 and slots[0] != slots[1]
    assert slots[0].weight == slots[1].weight


def test_isotypic_multiplicity():
    assert isotypic_multiplicity(_irr(Z, 1, 2), Z.element([1])) == 1
    sq = dr.tensor_obj(_irr(Z, 1), _irr(Z, 1))
    assert isotypic_multiplicity(sq, Z.element([2])) == 1
    t = dr.tensor_obj(_irr(Z, 0, 1), _irr(Z, 0, 1))
    assert isotypic_multiplicity(t, Z.element([1])) == 2
    assert isotypic_multiplicity(dr.ZERO, Z.element([0])) == 0


def _weights_from_ordered_basis(b):
    """Reference route: the basis weights and weight slots read off
    `ordered_basis`, one `BasisTuple` per slot."""
    weights = tuple(t.weight for t in ordered_basis(b))
    slots = {}
    for i, w in enumerate(weights):
        slots.setdefault(w, []).append(i)
    ordered = tuple((w, tuple(slots[w])) for w in sorted(slots, key=lambda e: e.coords))
    return weights, ordered


def test_basis_weights_match_ordered_basis():
    Z2 = ab.parse_group("Z^2")
    e1, e2 = Z2.element([1, 0]), Z2.element([0, 1])
    irr = [dr.irreducible(Z2, ws) for ws in ([e1, e2], [e1, e1 + e2, -e2], [e1 - e2])]
    words = [
        dr.parse_object(Z2, "(( {(1,0) (0,1)} {(1,-1)} ) {(0,1) (2,0)})"),
        dr.tensor_obj(irr[0], dr.tensor_obj(irr[1], irr[2])),
        dr.tensor_obj(dr.tensor_obj(irr[1], irr[1]), irr[0]),
    ]
    objs = list(dr.enumerate_objects(Z4, 3, 3)) + words + [dr.ZERO]
    for b in objs:
        weights, slots = _weights_from_ordered_basis(b)
        assert dr.basis_weights(b) == weights, b
        assert dr.weight_slots(b) == slots, b
        assert dr.isotypic_weights(b) == tuple(sorted(weights, key=lambda e: e.coords))
        for w in set(weights) | {Z4.zero()}:
            assert isotypic_multiplicity(b, w) == sum(1 for x in weights if x == w)
        # `object_json` lists the basis from `basis_weights` and the leaves'
        # index ranges: the reference entries, in order
        assert dr.object_json(b)["basis"] == [
            {"indices": list(t.indices), "elements": [str(e) for e in t.elements],
             "weight": str(t.weight)}
            for t in ordered_basis(b)
        ]


def test_hom_space_dimensions():
    assert dr.hom_dimension(_irr(Z, 1), _irr(Z, 2)) == 0
    a, b = Z.element([1]), Z.element([2])
    src = dr.irreducible(Z, [a, a])
    tgt = dr.irreducible(Z, [a, b])
    # m_src(a)=2, m_tgt(a)=1, m_tgt(b)=1 but m_src(b)=0: 2*1 + 0*1 = 2
    assert dr.hom_dimension(src, tgt) == 2
    hs = dr.hom_space(F5, src, tgt)
    assert hs.dim == 2 and len(hs.basis) == 2
    zero_space = dr.hom_space(F5, src, dr.ZERO)
    assert zero_space.dim == 0 and zero_space.basis == ()
    # identity lies in Hom(b, b)
    ident = dr.identity_morphism(F5, src)
    assert dr.hom_dimension(src, src) >= 1
    assert dr.apply_morphism(ident, dr.basis_vector(F5, src, 1)) == dr.basis_vector(
        F5, src, 1
    )


def test_compose():
    b = _irr(Z, 1, 2)
    hs = dr.hom_space(F5, b, b)
    f = dr.add_morphisms(hs.basis[0], dr.scale_morphism(3, hs.basis[1]))
    ident = dr.identity_morphism(F5, b)
    assert dr.compose(ident, f) == f
    assert dr.compose(f, ident) == f

    # weight-disjoint morphisms compose to zero
    c = _irr(Z, 7)
    z1 = dr.zero_morphism(F5, b, c)
    z2 = dr.zero_morphism(F5, c, b)
    assert dr.compose(z2, z1).is_zero_morphism()

    rng = random.Random(3)
    for _ in range(30):
        f = _random_morphism(rng, F5, b, b)
        g = _random_morphism(rng, F5, b, b)
        v = vector(F5, b, [rng.randint(0, 4) for _ in range(b.dimension)])
        # apply-map oracle: (g o f)(v) = g(f(v))
        assert dr.apply_morphism(dr.compose(g, f), v) == dr.apply_morphism(
            g, dr.apply_morphism(f, v)
        )


def _random_morphism(rng, field, src, tgt):
    hs = dr.hom_space(field, src, tgt)
    out = dr.zero_morphism(field, src, tgt)
    for e in hs.basis:
        out = dr.add_morphisms(out, dr.scale_morphism(rng.randint(0, 4), e))
    return out


def _equivariant_dim_bruteforce(field, group, src, tgt):
    """Count matrix entries allowed by every point of D(A)(F_q)."""
    chars = dr.all_characters(field, group)
    src_w = dr.basis_weights(src)
    tgt_w = dr.basis_weights(tgt)
    dim = 0
    for wi in tgt_w:
        for wj in src_w:
            if all(chi.value(wi) == chi.value(wj) for chi in chars):
                dim += 1
    return dim


def test_hom_dimension_matches_equivariance_oracle():
    rng = random.Random(11)
    elems = [Z6.element([k]) for k in range(6)]
    for _ in range(40):
        objs = []
        for _ in range(2):
            leaves = [
                dr.irreducible(Z6, rng.choices(elems, k=rng.randint(1, 3)))
                for _ in range(rng.randint(1, 2))
            ]
            obj = leaves[0]
            for leaf in leaves[1:]:
                obj = dr.tensor_obj(obj, leaf)
            objs.append(obj)
        src, tgt = objs
        assert dr.hom_dimension(src, tgt) == _equivariant_dim_bruteforce(
            F7, Z6, src, tgt
        )


def test_dual_examples():
    dd = dr.dual_data(QQ, _irr(Z, 1, 2))
    assert dd.dual == _irr(Z, -1, -2)
    unit = dr.unit_object(Z)
    dd0 = dr.dual_data(QQ, unit)
    assert dd0.dual == unit
    with pytest.raises(ValueError):
        dr.dual_data(QQ, dr.ZERO)


def test_snake_identities():
    for field in (F5, QQ):
        for b in [
            _irr(Z, 0),
            _irr(Z, 1, 2),
            _irr(Z4, 1, 1, 3),
            dr.tensor_obj(_irr(Z, 1), _irr(Z, -1, 2)),
        ]:
            s1, s2 = dr.snake_composites(field, b, dr.dual_data(field, b))
            assert s1 == dr.identity_morphism(field, b)
            assert s2 == dr.identity_morphism(field, dr.dual_data(field, b).dual)


def test_double_dual_weights():
    for b in [_irr(Z, 1, 2), dr.tensor_obj(_irr(Z4, 1), _irr(Z4, 2, 3))]:
        dd = dr.dual_data(QQ, b)
        ddd = dr.dual_data(QQ, dd.dual)
        assert dr.isotypic_weights(ddd.dual) == dr.isotypic_weights(
            dr.normalized_object(b)
        )


def test_direct_sum():
    s = dr.direct_sum_data(QQ, _irr(Z, 1), _irr(Z, 2))
    assert s.total == _irr(Z, 1, 2)
    s2 = dr.direct_sum_data(QQ, _irr(Z, 1), _irr(Z, 1))
    assert s2.total == _irr(Z, 1, 1)

    rng = random.Random(5)
    elems = [Z4.element([k]) for k in range(4)]
    for field in (F5, QQ):
        for _ in range(25):
            b = dr.irreducible(Z4, rng.choices(elems, k=rng.randint(1, 3)))
            c = dr.irreducible(Z4, rng.choices(elems, k=rng.randint(1, 3)))
            data = dr.direct_sum_data(field, b, c)
            idd = dr.identity_morphism(field, data.total)
            assert (
                dr.add_morphisms(
                    dr.compose(data.inj1, data.proj1),
                    dr.compose(data.inj2, data.proj2),
                )
                == idd
            )
            assert dr.compose(data.proj1, data.inj1) == dr.identity_morphism(field, b)
            assert dr.compose(data.proj2, data.inj2) == dr.identity_morphism(field, c)
            assert dr.compose(data.proj2, data.inj1).is_zero_morphism()
            assert dr.compose(data.proj1, data.inj2).is_zero_morphism()


def test_kernel_cokernel():
    b = _irr(Z, 1, 2)
    u, inc = dr.kernel_of(F5, dr.identity_morphism(F5, b))
    assert u.is_zero and inc.is_zero_morphism()

    c = _irr(Z, 0, 5)
    u, inc = dr.kernel_of(F5, dr.zero_morphism(F5, b, c))
    assert u == dr.normalized_object(b)

    rng = random.Random(9)
    elems = [Z4.element([k]) for k in range(4)]
    for _ in range(30):
        src = dr.irreducible(Z4, rng.choices(elems, k=rng.randint(1, 3)))
        tgt = dr.irreducible(Z4, rng.choices(elems, k=rng.randint(1, 3)))
        f = _random_morphism(rng, F5, src, tgt)
        dense = dr.dense_matrix(f)
        r = fm.rank(F5, dense)
        u, inc = dr.kernel_of(F5, f)
        assert u.dimension == src.dimension - r  # rank-nullity, rref oracle
        if not u.is_zero:
            assert dr.compose(f, inc).is_zero_morphism()
            assert fm.rank(F5, dr.dense_matrix(inc)) == u.dimension
        w, proj = dr.cokernel_of(F5, f)
        assert w.dimension == tgt.dimension - r
        if not w.is_zero:
            assert dr.compose(proj, f).is_zero_morphism()
            assert fm.rank(F5, dr.dense_matrix(proj)) == w.dimension


def test_normalize():
    assert dr.normalized_object(dr.tensor_obj(_irr(Z, 1), _irr(Z, 2))) == _irr(Z, 3)
    assert dr.normalized_object(dr.tensor_obj(_irr(Z, 1, 2), _irr(Z, 0))) == _irr(
        Z, 1, 2
    )
    t = dr.tensor_obj(_irr(Z, 0, 1), _irr(Z, 0, 1))
    assert dr.normalized_object(t) == _irr(Z, 0, 1, 1, 2)
    c, iso = dr.normalize_to_irreducible(F5, t)
    assert c == _irr(Z, 0, 1, 1, 2)
    assert fm.rank(F5, dr.dense_matrix(iso)) == t.dimension
    # normalizing twice is stable
    c2, _ = dr.normalize_to_irreducible(F5, c)
    assert c2 == c


def test_unique_tensor_factorization_property():
    rng = random.Random(13)
    elems = [Z4.element([k]) for k in range(4)]

    def random_object():
        leaves = [
            dr.irreducible(Z4, rng.choices(elems, k=rng.randint(1, 2)))
            for _ in range(rng.randint(1, 2))
        ]
        obj = leaves[0]
        for leaf in leaves[1:]:
            obj = dr.tensor_obj(obj, leaf)
        return obj

    objs = [random_object() for _ in range(60)]
    seen = {}
    for b in objs:
        for c in objs:
            t = dr.tensor_obj(b, c)
            if t in seen:
                assert seen[t] == (b, c)
            seen[t] = (b, c)


def test_character_extraction():
    one = dr.char_object(Z, Z.element([1]))
    two = dr.char_object(Z, Z.element([2]))
    assert dr.char_sum(one, two) == dr.char_object(Z, Z.element([3]))
    three4 = dr.char_object(Z4, Z4.element([3]))
    assert dr.char_sum(three4, three4) == dr.char_object(Z4, Z4.element([2]))

    assert dr.character_group_check(Z6, Z6.elements()).ok
    G = ab.parse_group("Z + Z/2")
    import itertools

    elems = [G.element([a, b]) for a, b in itertools.product(range(-3, 4), range(2))]
    assert dr.character_group_check(G, elems).ok


def test_all_characters():
    chars = dr.all_characters(F7, Z6)
    assert len(chars) == 6
    gen = Z6.element([1])
    assert sorted(c.value(gen) for c in chars) == [1, 2, 3, 4, 5, 6]
    with pytest.raises(ValueError):
        dr.all_characters(F5, Z6)  # 6 does not divide 4


def test_object_text_round_trip():
    b = dr.tensor_obj(dr.tensor_obj(_irr(Z, 1, 2), _irr(Z, 0)), _irr(Z, 5))
    text = dr.format_object(b)
    assert text == "( ( {1 2} {0} ) {5} )"
    assert dr.parse_object(Z, text) == b
    assert dr.parse_object(Z, "0") == dr.ZERO
    G = ab.parse_group("Z^2")
    c = dr.irreducible(G, [G.element([1, 0]), G.element([0, 1])])
    assert dr.parse_object(G, dr.format_object(c)) == c
    with pytest.raises(ValueError):
        dr.parse_object(Z, "( {1} ")


def _multisets(group, max_size=2):
    elems = sorted(group.elements(), key=lambda e: e.coords)
    return st.lists(st.sampled_from(elems), min_size=1, max_size=max_size).map(
        lambda xs: dr.weight_multiset(group, xs)
    )


def _objects(group, max_len=3):
    return st.lists(_multisets(group), min_size=1, max_size=max_len).flatmap(
        lambda leaves: st.sampled_from(
            [
                dr.BaseObject(shape, tuple(leaves))
                for shape in enumerate_shapes(len(leaves))
            ]
        )
    )


@settings(max_examples=60, deadline=None)
@given(_objects(ab.parse_group("Z/4")))
def test_normalize_idempotent_property(b):
    c, iso = dr.normalize_to_irreducible(F5, b)
    assert is_tensor_irreducible(c)
    assert dr.isotypic_weights(c) == dr.isotypic_weights(b)
    assert fm.rank(F5, dr.dense_matrix(iso)) == b.dimension
    c2, _ = dr.normalize_to_irreducible(F5, c)
    assert c2 == c


@settings(max_examples=60, deadline=None)
@given(_objects(ab.parse_group("Z/4"), max_len=2), _objects(ab.parse_group("Z/4"), max_len=2))
def test_tensor_length_additive_property(b, c):
    t = dr.tensor_obj(b, c)
    assert t.tensor_length == b.tensor_length + c.tensor_length
    assert t.dimension == b.dimension * c.dimension
    tree = dr.tensor_factorize(t)
    assert dr.retensor(tree, dr.tensor_obj) == t


def test_enumerate_objects_counts():
    objs = list(dr.enumerate_objects(ab.parse_group("Z/2"), 2, 2))
    # m=1: multisets of size 1 (2) and 2 (3); m=2 sizes (1,1): 4,
    # sizes (1,2) and (2,1): 2*3 each
    assert len(objs) == 2 + 3 + 4 + 6 + 6
    assert len(set(objs)) == len(objs)
    assert all(b.dimension <= 2 and b.tensor_length <= 2 for b in objs)


# ---------------------------------------------------------------------------
# The shared tree fold and the transposed cokernel against the code they
# replace, kept here as the reference


def _reference_walk(b, leaf, node):
    def walk(shape, at):
        if shape.is_leaf:
            return leaf(b.leaves[at]), at + 1
        l, r = shape.children
        lt, at = walk(l, at)
        rt, at = walk(r, at)
        return node(lt, rt), at

    return walk(b.shape, 0)[0]


def test_fold_outputs_match_reference_walks():
    objs = list(dr.enumerate_objects(Z4, 3, 3))
    assert len(objs) == 3298
    for b in objs:
        tree = _reference_walk(b, dr.make_irreducible, lambda l, r: (l, r))
        assert dr.tensor_factorize(b) == tree
        text = _reference_walk(b, str, lambda l, r: f"( {l} {r} )")
        assert dr.format_object(b) == text
    assert dr.format_object(dr.ZERO) == "0"


def test_objects_from_matches_reference_loop():
    elems = [Z.element([k]) for k in (-1, 0, 2)]
    want = []
    for m in range(1, 4):
        for shape in enumerate_shapes(m):
            for sizes in dr.compositions_with_product_at_most(m, 3):
                choices = [dr.multisets_from(elems, s) for s in sizes]
                for leaves in itertools.product(*choices):
                    want.append(dr.BaseObject(shape, tuple(leaves)))
    assert list(dr.objects_from(elems, 3, 3)) == want


def _reference_cokernel(field, f):
    coker_weights = []
    rows_of = {}
    src_mult = {w: len(s) for w, s in dr.weight_slots(f.source)}
    for w, slots in dr.weight_slots(f.target):
        nrows = len(slots)
        block = f.block(w)
        if block is None:
            block = [[field.zero()] * src_mult.get(w, 0) for _ in range(nrows)]
        if not block or len(block[0]) == 0:
            basis = [fm.unit_vector(field, nrows, j) for j in range(nrows)]
        else:
            basis = fm.kernel(field, fm.transpose([list(r) for r in block]))
        if basis:
            rows_of[w] = basis
            coker_weights.extend([w] * len(basis))
    if not coker_weights:
        return dr.ZERO, dr.zero_morphism(field, f.target, dr.ZERO)
    wobj = dr.make_irreducible(dr.weight_multiset(f.target.group, coker_weights))
    blocks = {w: [list(v) for v in basis] for w, basis in rows_of.items()}
    return wobj, dr.make_morphism(field, f.target, wobj, blocks)


def _reference_projections(field, data):
    return tuple(
        ref.morphism_from_dense(
            field, inj.target, inj.source, fm.transpose(dr.dense_matrix(inj))
        )
        for inj in (data.inj1, data.inj2)
    )


def test_cokernel_and_biproduct_match_reference():
    rng = random.Random(2019)
    objs = [*dr.enumerate_objects(Z4, 3, 1), *list(dr.enumerate_objects(Z4, 4, 2))[::7]]
    checked = 0
    for field in (ExactField(3), F5, F7):
        for _ in range(120):
            src, tgt = rng.choice(objs), rng.choice(objs)
            morphisms = [dr.zero_morphism(field, src, tgt)]
            morphisms += dr.hom_space(field, src, tgt).basis
            morphisms += [_random_morphism(rng, field, src, tgt) for _ in range(3)]
            for f in morphisms:
                assert dr.cokernel_of(field, f) == _reference_cokernel(field, f)
                checked += 1
            data = dr.direct_sum_data(field, src, tgt)
            assert (data.proj1, data.proj2) == _reference_projections(field, data)
    assert checked > 1000


# ---------------------------------------------------------------------------
# Structural morphisms built block by block against the dense matrices they
# replace (carved by the reference `morphism_from_dense`)


def test_block_builders_match_dense_reference():
    rng = random.Random(2019)
    objs = list(dr.enumerate_objects(Z4, 3, 2))
    bound = ax.bounds(3, 2)
    checked = 0
    for field in (ExactField(3), F5, F7):
        model = ax.FragmentModel(field, Z4, bound)
        for b in objs:
            assert dr.identity_morphism(field, b) == ref.reindexing_identity(field, b, b)
            assert dr.normalize_to_irreducible(field, b) == ref.dense_normalizer(field, b)
            unit = dr.unit_object(Z4)
            for build, src, tgt in (
                (dr.right_unitor, b, dr.tensor_obj(b, unit)),
                (dr.left_unitor, b, dr.tensor_obj(unit, b)),
                (dr.left_unitor_inv, dr.tensor_obj(unit, b), b),
                (dr.right_unitor_inv, dr.tensor_obj(b, unit), b),
            ):
                assert build(field, b) == ref.reindexing_identity(field, src, tgt)
            dd = dr.dual_data(field, b)
            assert (dd.ev, dd.coev) == ref.dense_ev_coev(field, b, dd.dual)
            for u0 in field.units():
                assert model.unit_embedding(b, u0) == ref.reindexing_identity(
                    field, b, dr.tensor_obj(unit, b), scalar=u0
                )
            checked += 1
        pool = objs + [dr.ZERO]
        assert dr.normalize_to_irreducible(field, dr.ZERO) == ref.dense_normalizer(
            field, dr.ZERO
        )
        for _ in range(150):
            b, c = rng.choice(objs), rng.choice(objs)
            assert dr.braiding(field, b, c) == ref.dense_braiding(field, b, c)
            data = dr.direct_sum_data(field, b, c)
            assert (data.inj1, data.inj2) == ref.dense_injections(
                field, b, c, data.total
            )
            b1, c1, b2, c2 = (rng.choice(pool) for _ in range(4))
            fs = [dr.zero_morphism(field, b1, c1)]
            fs += dr.hom_space(field, b1, c1).basis[:3]
            fs += [_random_morphism(rng, field, b1, c1)]
            gs = [dr.zero_morphism(field, b2, c2)]
            gs += dr.hom_space(field, b2, c2).basis[:3]
            gs += [_random_morphism(rng, field, b2, c2)]
            for f in fs:
                for g in gs:
                    assert dr.tensor_hom(f, g) == ref.dense_tensor_hom(f, g)
                    checked += 1
        for _ in range(60):
            b, c, d = (rng.choice(pool) for _ in range(3))
            bcd = dr.tensor_obj(b, dr.tensor_obj(c, d))
            bc_d = dr.tensor_obj(dr.tensor_obj(b, c), d)
            assert dr.associator(field, b, c, d) == ref.reindexing_identity(
                field, bcd, bc_d
            )
            assert dr.associator_inv(field, b, c, d) == ref.reindexing_identity(
                field, bc_d, bcd
            )
            checked += 1
    assert checked > 5000


def test_block_builders_reject_cross_weight_maps():
    one = F5.one()
    b, c = _irr(Z4, 0, 1), _irr(Z4, 0, 2)
    assert dr._from_entries(F5, b, c, [(0, 0, one), (1, 1, F5.zero())]) == (
        dr.make_morphism(F5, b, c, {Z4.element([0]): [[one]]})
    )
    with pytest.raises(ValueError):
        dr._from_entries(F5, b, c, [(1, 1, one)])
    with pytest.raises(ValueError):
        ref.morphism_from_dense(F5, b, c, [[0, 0], [0, one]])
    with pytest.raises(ValueError):
        dr._block_identity(F5, b, c)
    with pytest.raises(ValueError):
        dr._block_identity(F5, _irr(Z4, 1), _irr(Z4, 1, 1))
    # weights (3, 0) against the sorted (0, 3): a block identity, but not
    # the identity matrix on basis tuples
    b = dr.tensor_obj(_irr(Z4, 3), _irr(Z4, 0, 1))
    c, iso = ref.dense_normalizer(F5, b)
    assert dr._block_identity(F5, b, c) == iso
    with pytest.raises(ValueError):
        ref.reindexing_identity(F5, b, c)


# ---------------------------------------------------------------------------
# The free parenthesized tensor closure of the irreducible labels (weight
# multisets) is the canonical model's own object layer


def _labels():
    """The irreducible labels of Z/4 with at most two weights."""
    return dr.enumerate_multisets(Z4, 1) + dr.enumerate_multisets(Z4, 2)


def test_closure_basics():
    labels = _labels()
    x = dr.make_irreducible(labels[0])
    y = dr.make_irreducible(labels[1])
    t = dr.tensor_obj(x, y)
    assert t.tensor_length == 2
    assert not is_tensor_irreducible(t)
    assert is_tensor_irreducible(x)
    assert not is_tensor_irreducible(dr.ZERO)
    assert dr.tensor_obj(x, dr.ZERO) == dr.ZERO
    with pytest.raises(ValueError):
        dr.ZERO.tensor_length


def test_tensor_injective_on_objects():
    labels = _labels()
    rng = random.Random(2)

    def random_obj():
        x = dr.make_irreducible(rng.choice(labels))
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                x = dr.tensor_obj(x, dr.make_irreducible(rng.choice(labels)))
            else:
                x = dr.tensor_obj(dr.make_irreducible(rng.choice(labels)), x)
        return x

    objs = [random_obj() for _ in range(40)]
    seen = {}
    for a in objs:
        for b in objs:
            t = dr.tensor_obj(a, b)
            if t in seen:
                assert seen[t] == (a, b)
            seen[t] = (a, b)
            assert t.tensor_length == a.tensor_length + b.tensor_length


def test_factorize_round_trip():
    labels = _labels()
    a = dr.make_irreducible(labels[0])
    b = dr.make_irreducible(labels[1])
    c = dr.make_irreducible(labels[2])
    x = dr.tensor_obj(dr.tensor_obj(a, b), c)
    tree = dr.tensor_factorize(x)
    assert dr.retensor(tree, dr.tensor_obj) == x
    (l, r), leaf = tree
    assert l == a and r == b and leaf == c
    with pytest.raises(ValueError):
        dr.tensor_factorize(dr.ZERO)


def test_no_two_labels_isomorphic():
    labels = _labels()
    for i, l1 in enumerate(labels):
        for l2 in labels[i + 1 :]:
            assert dr.isotypic_weights(dr.make_irreducible(l1)) != dr.isotypic_weights(
                dr.make_irreducible(l2)
            )


def test_provider_matches_model():
    labels = _labels()
    x = dr.tensor_obj(dr.make_irreducible(labels[1]), dr.make_irreducible(labels[2]))
    assert isinstance(x, dr.BaseObject)
    assert x.tensor_length == 2
    hom = dr.hom_space(F5, x, x).basis
    assert len(hom) == dr.hom_dimension(x, x)


def test_pentagon():
    """(Phi (x) id) o Phi o (id (x) Phi) = Phi o Phi on four factors."""
    labels = _labels()
    bw, bx, by, bz = (dr.make_irreducible(labels[i]) for i in (1, 2, 3, 4))

    import diagcat.field as fieldmod

    idw = dr.identity_morphism(F5, bw)
    idz = dr.identity_morphism(F5, bz)
    # route 1: w(x(y z)) -> w((x y)z) -> (w(x y))z -> ((w x)y)z
    r1 = dr.compose(
        dr.tensor_hom(dr.associator(F5, bw, bx, by), idz),
        dr.compose(
            dr.associator(F5, bw, dr.tensor_obj(bx, by), bz),
            dr.tensor_hom(idw, dr.associator(F5, bx, by, bz)),
        ),
    )
    # route 2: w(x(y z)) -> (w x)(y z) -> ((w x)y)z
    r2 = dr.compose(
        dr.associator(F5, dr.tensor_obj(bw, bx), by, bz),
        dr.associator(F5, bw, bx, dr.tensor_obj(by, bz)),
    )
    assert r1.source == r2.source and r1.target == r2.target
    assert dr.dense_matrix(r1) == dr.dense_matrix(r2)
    assert fieldmod.rank(F5, dr.dense_matrix(r1)) == r1.source.dimension


# ---------------------------------------------------------------------------
# Hash-consing: equal objects are one object


def test_every_call_form_gives_one_object():
    assert ParenShape() is ParenShape(None) is ParenShape(children=None) is LEAF
    node = ParenShape((LEAF, LEAF))
    assert node is ParenShape(children=(LEAF, LEAF)) is pair(LEAF, LEAF)
    one = ab.GroupElement(Z4, (1,))
    assert one is ab.GroupElement(group=Z4, coords=(1,)) is Z4.element([5])
    assert ab.parse_group("Z/4").element([1]) is one
    elems = (Z4.element([0]), one)
    ms = dr.WeightMultiset(Z4, elems)
    assert ms is dr.WeightMultiset(Z4, elems, "") is dr.WeightMultiset(Z4, elems, tag="")
    assert ms is dr.WeightMultiset(group=Z4, elements=elems)
    assert ms is dr.weight_multiset(Z4, reversed(elems))
    b = dr.BaseObject(LEAF, (ms,))
    assert b is dr.BaseObject(shape=LEAF, leaves=(ms,)) is dr.make_irreducible(ms)
    assert dr.BaseObject(None, ()) is dr.ZERO
    assert dr.parse_object(Z4, "{0 1}") is b
    for x in (node, one, ms, b):
        assert copy.deepcopy(x) is x and pickle.loads(pickle.dumps(x)) is x


def test_stored_hash_is_the_hash_of_the_fields():
    b = dr.tensor_obj(_irr(Z4, 1, 3), _irr(Z4, 2))
    ms = b.leaves[0]
    e = ms.elements[0]
    assert hash(b.shape) == hash((b.shape.children,))
    assert hash(e) == hash((e.group, e.coords))
    assert hash(ms) == hash((ms.group, ms.elements, ms.tag))
    assert hash(b) == hash((b.shape, b.leaves))


def test_product_is_the_enumerated_object():
    b, c = _irr(Z4, 0, 1), _irr(Z4, 3)
    assert dr.BaseObject(pair(LEAF, LEAF), b.leaves + c.leaves) is dr.tensor_obj(b, c)
    objs = list(dr.enumerate_objects(Z4, 3, 3))
    model = ax.FragmentModel(F5, Z4, ax.bounds(3, 3))
    assert len(model.all_objects()) == len(objs)
    assert all(x is y for x, y in zip(model.all_objects(), objs))


def test_tagged_multiset_is_a_distinct_object():
    plain = dr.weight_multiset(Z4, [Z4.element([2])])
    dup = dr.WeightMultiset(Z4, plain.elements, "dup")
    assert dup is not plain and dup != plain
    assert dup is dr.WeightMultiset(Z4, plain.elements, tag="dup")
    assert dr.make_irreducible(dup) != dr.make_irreducible(plain)


def test_invalid_multiset_raises_on_every_call():
    one, two = Z4.element([1]), Z4.element([2])
    dr.WeightMultiset(Z4, (one, two))
    for _ in range(3):
        with pytest.raises(ValueError):
            dr.WeightMultiset(Z4, (two, one))
        with pytest.raises(ValueError):
            dr.WeightMultiset(Z4, (two, one), "")
        with pytest.raises(ValueError):
            dr.WeightMultiset(Z4, (two, one), tag="")
        with pytest.raises(ValueError):
            dr.WeightMultiset(Z4, ())
        with pytest.raises(ValueError):
            dr.WeightMultiset(Z4, (Z6.element([1]),))


def test_dropped_products_leave_the_table():
    objs = list(dr.enumerate_objects(Z4, 3, 2))
    gc.collect()
    before = len(dr.BaseObject._table)
    products = [dr.tensor_obj(b, c) for b in objs for c in objs][:10_000]
    assert len(dr.BaseObject._table) > before
    del products
    gc.collect()
    assert len(dr.BaseObject._table) == before


# hash(-1) == hash(-2) == hash(-2**61) in CPython, so each maker gives three
# values with one stored hash; nothing else builds the third, so it dies as
# soon as it is dropped
COLLIDING = (-1, -2, -(2**61))

MAKERS = {
    "element": lambda c: Z.element([c]),
    "multiset": lambda c: dr.weight_multiset(Z, [Z.element([c])]),
    "irreducible": lambda c: _irr(Z, c),
    "product": lambda c: dr.tensor_obj(_irr(Z, c), _irr(Z, c)),
}

INTERNED = (ParenShape, ab.GroupElement, dr.WeightMultiset, dr.BaseObject)


def _live_copies(value):
    """The live values in the table of value's class with value's fields."""
    refs = type(value)._table.get(hash(value), [])
    return [r() for r in refs if r.fields == value._key() and r() is not None]


def _assert_tables_hold_live_values():
    gc.collect()
    for cls in INTERNED:
        for h, refs in cls._table.items():
            assert refs
            for r in refs:
                value = r()
                assert value is not None, f"dead {cls.__name__} in the table"
                assert r.h == h == hash(value) and r.fields == value._key()
            assert len({r.fields for r in refs}) == len(refs)


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS)
def test_values_sharing_a_hash_stay_distinct(make):
    values = [make(c) for c in COLLIDING]
    assert len({hash(v) for v in values}) == 1
    assert len({id(v) for v in values}) == len(values)
    assert all(make(c) is v for c, v in zip(COLLIDING, values))
    assert all(_live_copies(v) == [v] for v in values)


@pytest.mark.parametrize("make", MAKERS.values(), ids=MAKERS)
def test_dropping_a_value_keeps_the_ones_sharing_its_hash(make):
    a, b = make(-1), make(-2)
    dropped = weakref.ref(make(COLLIDING[2]))
    gc.collect()
    assert dropped() is None
    assert make(-1) is a and make(-2) is b
    assert _live_copies(a) == [a] and _live_copies(b) == [b]
    again = make(COLLIDING[2])
    assert again is not a and again is not b and hash(again) == hash(a)
    del a, again
    gc.collect()
    assert make(-2) is b and _live_copies(b) == [b]
    _assert_tables_hold_live_values()


def test_intern_tables_hold_only_live_values_after_a_check():
    assert ax.check_axioms(F5, Z4, ax.bounds(2, 2)).all_pass
    _assert_tables_hold_live_values()
