import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagcat import sparsepoly as sp
from diagcat.field import ExactField


def _random_poly(field, rng, nvars, max_terms=4, max_deg=3):
    out = sp.zero(field, nvars)
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(nvars)] += 1
        out = out + sp.monomial(field, nvars, exps, rng.randint(-4, 4))
    return out


def _random_point(field, rng, nvars):
    return [field.of(rng.randint(-6, 6)) for _ in range(nvars)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([5, None]))
def test_substitute_is_a_ring_map(seed, p):
    field = ExactField(p)
    rng = random.Random(seed)
    nvars, target = rng.randint(1, 3), rng.randint(1, 3)
    images = [_random_poly(field, rng, target, max_terms=3, max_deg=2) for _ in range(nvars)]
    f = _random_poly(field, rng, nvars)
    g = _random_poly(field, rng, nvars)
    sub_f, sub_g = f.substitute(images), g.substitute(images)
    assert (f * g).substitute(images) == sub_f * sub_g
    assert (f + g).substitute(images) == sub_f + sub_g
    assert sp.constant(field, nvars, 3).substitute(images) == sp.constant(field, target, 3)
    for i in range(nvars):
        assert sp.variable(field, nvars, i).substitute(images) == images[i]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([5, None]))
def test_evaluate_commutes_with_substitute(seed, p):
    field = ExactField(p)
    rng = random.Random(seed)
    nvars, target = rng.randint(1, 3), rng.randint(1, 3)
    images = [_random_poly(field, rng, target, max_terms=3, max_deg=2) for _ in range(nvars)]
    f = _random_poly(field, rng, nvars)
    pt = _random_point(field, rng, target)
    assert f.substitute(images).evaluate(pt) == f.evaluate(
        [img.evaluate(pt) for img in images]
    )


@pytest.mark.parametrize("p", [5, None])
def test_evaluate_matches_expanded_products(p):
    field = ExactField(p)
    rng = random.Random(12)
    for _ in range(40):
        f = _random_poly(field, rng, 3)
        pt = _random_point(field, rng, 3)
        want = field.zero()
        for e, c in f.terms:
            for x, k in zip(pt, e):
                for _ in range(k):
                    c = field.mul(c, x)
            want = field.add(want, c)
        assert f.evaluate(pt) == want


def test_substitute_needs_one_image_per_variable():
    field = ExactField(5)
    f = sp.variable(field, 2, 0)
    with pytest.raises(ValueError):
        f.substitute([sp.variable(field, 1, 0)])


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_operands_must_share_a_ring(op):
    Q, F5 = ExactField(None), ExactField(5)
    apply = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b, "mul": lambda a, b: a * b}[op]
    x0 = sp.variable(Q, 2, 0)
    with pytest.raises(ValueError):
        apply(x0, sp.variable(Q, 3, 2))  # another number of variables
    with pytest.raises(ValueError):
        apply(x0, sp.variable(F5, 2, 0))  # another field
    with pytest.raises(ValueError):
        apply(sp.zero(Q, 2), sp.zero(Q, 3))  # also when both are zero
    assert apply(x0, sp.variable(Q, 2, 1)).nvars == 2


@pytest.mark.parametrize("p", [None, 7])
def test_zero_operands_and_unit_scales_return_at_once(p):
    """A zero operand of + or * and a scale by 0 or 1 give the expected
    polynomial without a term loop; the rings are still checked."""
    field = ExactField(p)
    f = sp.from_dict(field, 2, {(1, 0): field.of(3), (0, 2): field.one()})
    zero = sp.zero(field, 2)
    assert f + zero is f and zero + f is f
    assert (f * zero).is_zero() and (zero * f).is_zero()
    assert f.scale(1) is f and f.scale(0) == zero and zero.scale(5) == zero
    assert f.scale(2) == f + f
    with pytest.raises(ValueError):
        f + sp.zero(field, 3)
    with pytest.raises(ValueError):
        sp.zero(ExactField(5), 2) * f


def test_monomial_count_is_binomial():
    for v in range(19):
        for d in range(5):
            assert len(sp.monomials_up_to(v, d)) == math.comb(v + d, d)


def _reference_monomials_up_to(nvars, d):
    """The former recursive enumeration: for each total degree in turn,
    every first exponent from 0 up, then the rest recursively."""
    out = []

    def rec(prefix, left, vars_left):
        if vars_left == 1:
            out.append(prefix + (left,))
            return
        for k in range(left + 1):
            rec(prefix + (k,), left - k, vars_left - 1)

    result = []
    for total in range(d + 1):
        out = []
        if nvars == 0:
            if total == 0:
                result.append(())
            continue
        rec((), total, nvars)
        result.extend(out)
    return result


def test_monomials_match_the_recursive_enumeration():
    for v in range(9):
        for d in range(-1, 5):
            got = sp.monomials_up_to(v, d)
            assert list(got) == _reference_monomials_up_to(v, d), (v, d)
            assert sp.monomials_up_to(v, d) is got  # one cached tuple
