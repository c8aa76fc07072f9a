"""The free parenthesized tensor closure of the irreducible labels (weight
multisets) is the canonical model's own object layer in `diagrep`."""

import random

import pytest

from diagcat import abelian as ab
from diagcat import diagrep as dr
from diagcat.field import ExactField

F5 = ExactField(5)
Z4 = ab.parse_group("Z/4")


def _labels():
    """The irreducible labels of Z/4 with at most two weights."""
    return dr.enumerate_multisets(Z4, 1) + dr.enumerate_multisets(Z4, 2)


def test_closure_basics():
    labels = _labels()
    x = dr.make_irreducible(labels[0])
    y = dr.make_irreducible(labels[1])
    t = dr.tensor_obj(x, y)
    assert t.tensor_length == 2
    assert not dr.is_tensor_irreducible(t)
    assert dr.is_tensor_irreducible(x)
    assert not dr.is_tensor_irreducible(dr.ZERO)
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
