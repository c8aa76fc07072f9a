import functools
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from diagcat import abelian as ab
from diagcat import field as fm
from diagcat import laurent as la
from diagcat.field import ExactField, QQ
from diagcat.sparsepoly import SparsePoly
from dense_reference import dense_echelon
from ladder_reference import reference_ascending
from truncation_reference import hermann_bound, reference_truncation

F5 = ExactField(5)
Z = ab.parse_group("Z")


def test_parse_format_round_trip():
    for text in ["Z[1,1]^2 - Z[2,2]", "W[1,2]", "Z[1,1]*W[2,2] + 3", "1/2*Z[1,1] - 1"]:
        f = la.parse_element(QQ, 2, text)
        again = la.parse_element(QQ, 2, la.format_element(f))
        assert f == again
    with pytest.raises(ValueError):
        la.parse_element(QQ, 1, "Z[2,1]")  # out of range


def test_parse_exponents_and_trailing_operators():
    one = la.lau_const(QQ, 1, 1)
    assert la.parse_element(QQ, 1, "Z[1,1]^0") == one
    assert la.parse_element(QQ, 1, "2*W[1,1]^0 - 1") == one
    assert la.parse_element(QQ, 1, "Z[1,1]^3") == la.z_var(QQ, 1, 0, 0).pow(3)
    assert la.parse_element(QQ, 1, "") == la.lau_zero(QQ, 1)
    assert la.parse_element(QQ, 1, "-Z[1,1]") == -la.z_var(QQ, 1, 0, 0)
    z, w = la.z_var(QQ, 1, 0, 0), la.w_var(QQ, 1, 0, 0)
    # consecutive signs multiply
    assert la.parse_element(QQ, 1, "Z[1,1] - -W[1,1]") == z + w
    assert la.parse_element(QQ, 1, "- -Z[1,1] + -W[1,1]") == z - w
    assert la.parse_element(QQ, 1, "2*3 - 1") == la.lau_const(QQ, 1, 5)
    for text in ["Z[1,1] -", "Z[1,1] + ", "Z[1,1]*", "-"]:
        with pytest.raises(ValueError):
            la.parse_element(QQ, 1, text)
    # a '*' must stand between two factors
    for text in ["2 - * 3", "2 * - 3", "*2", "2 * * 3"]:
        with pytest.raises(ValueError, match="between two factors"):
            la.parse_element(QQ, 1, text)


def test_elements_of_different_rings_do_not_mix():
    z1, z2 = la.z_var(QQ, 1, 0, 0), la.z_var(QQ, 2, 0, 0)
    with pytest.raises(ValueError):
        z1 * z2  # GL_1 and GL_2
    with pytest.raises(ValueError):
        z1 + la.z_var(F5, 1, 0, 0)
    with pytest.raises(ValueError):
        la.LaurentIdeal(QQ, 2, (z1,))
    with pytest.raises(ValueError):
        la.format_element(la.comultiply(z1))  # 4 variables are 2n^2 for no n
    assert la.format_element(la.lau_zero(QQ, 2)) == "0"


def _split(d):
    """The terms of a comultiplication as (((left exps), (right exps)), c)."""
    m = d.nvars // 2
    return tuple(((e[:m], e[m:]), c) for e, c in d.terms)


def _bidegree(d):
    """The largest left and right degrees of a nonzero comultiplication."""
    terms = _split(d)
    return max(sum(l) for (l, _), _ in terms), max(sum(r) for (_, r), _ in terms)


def test_comultiply_examples():
    d = la.comultiply(la.z_var(QQ, 1, 0, 0))
    # Delta(Z) = Z (x) Z for n = 1
    assert d.nvars == 4
    assert _split(d) == ((((1, 0), (1, 0)), QQ.one()),)
    one = la.lau_const(QQ, 1, 1)
    d1 = la.comultiply(one)
    assert _split(d1) == ((((0, 0), (0, 0)), QQ.one()),)


def test_comultiply_n2_w_convention():
    # Delta(W)_{ij} = sum_l W[l,j] (x) W[i,l]
    d = la.comultiply(la.w_var(QQ, 2, 0, 1))
    got = set()
    for (el, er), c in _split(d):
        assert c == QQ.one()
        got.add((tuple(el), tuple(er)))
    expect = set()
    for l in range(2):
        el = [0] * 8
        er = [0] * 8
        el[la.w_index(2, l, 1)] = 1
        er[la.w_index(2, 0, l)] = 1
        expect.add((tuple(el), tuple(er)))
    assert got == expect


def test_comultiply_is_algebra_map():
    rng = random.Random(4)
    for n in (1, 2):
        for _ in range(10):
            f = _random_element(rng, QQ, n, deg=2)
            g = _random_element(rng, QQ, n, deg=1)
            lhs = la.comultiply(f * g)
            rhs = la.comultiply(f) * la.comultiply(g)
            assert lhs.terms == rhs.terms


def _random_element(rng, field, n, deg):
    out = la.lau_zero(field, n)
    for _ in range(3):
        exps = [0] * (2 * n * n)
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(2 * n * n)] += 1
        out = out + la.lau_monomial(field, n, exps, rng.randint(-3, 3))
    return out


def test_comultiplication_respects_filtration():
    """Degree <= d representatives map into the <= d (x) <= d slice."""
    from diagcat import sparsepoly as sp

    for n in (1, 2):
        for d in (0, 1, 2):
            for exps in sp.monomials_up_to(2 * n * n, d):
                mono = la.lau_monomial(QQ, n, exps)
                dl, dr_ = _bidegree(la.comultiply(mono))
                assert dl <= d and dr_ <= d


def test_antipode():
    assert la.format_element(la.antipode(la.parse_element(QQ, 2, "Z[1,2]"))) == "W[1,2]"
    rng = random.Random(8)
    for n in (1, 2):
        for _ in range(10):
            f = _random_element(rng, QQ, n, deg=3)
            assert la.antipode(la.antipode(f)) == f
            assert la.antipode(f).degree() == f.degree()


def test_antipode_preserves_catalog_ideals():
    for name, pres in la.catalog(QQ).items():
        for g in pres.ideal.generators:
            res = la.ideal_membership_ascending(la.antipode(g), pres.ideal, 4)
            assert res.is_member, (name, la.format_element(g))
            assert la.verify_membership_witness(la.antipode(g), res)


def test_membership_hand_identity():
    # oracle first: expand Z*(Z - W) + (ZW - 1) and compare to Z^2 - 1
    zv = la.z_var(QQ, 1, 0, 0)
    wv = la.w_var(QQ, 1, 0, 0)
    one = la.lau_const(QQ, 1, 1)
    lhs = zv * (zv - wv) + (zv * wv - one)
    target = la.parse_element(QQ, 1, "Z[1,1]^2 - 1")
    assert lhs == target

    mu2 = la.catalog(QQ)["mu2"]
    res = la.ideal_membership_ascending(target, mu2.ideal, 3)
    assert res.is_member
    assert la.verify_membership_witness(target, res)


def test_membership_negative_definitive():
    triv = la.catalog(QQ)["trivial-gl1"]
    one = la.lau_const(QQ, 1, 1)
    res = la.ideal_membership(one, triv.ideal, 4)
    assert res.status == "not_member_up_to"
    assert res.definitive and res.refutation_point is not None
    # the refutation point satisfies the generators but not f
    g, ginv = res.refutation_point
    assert all(
        la.evaluate_at_point(h, g, ginv) == QQ.zero() for h in triv.ideal.generators
    )
    assert la.evaluate_at_point(one, g, ginv) != QQ.zero()


def test_membership_in_truncation_of_t_t2():
    tt2 = la.catalog(QQ)["torus-t-t2-gl2"]
    trunc = la.truncation_chain(tt2, 4)(2)
    ideal = la.LaurentIdeal(QQ, 2, trunc.generators)
    f = la.parse_element(QQ, 2, "Z[1,1]^2 - Z[2,2]")
    res = la.ideal_membership_ascending(f, ideal, 4)
    assert res.is_member and la.verify_membership_witness(f, res)


def test_membership_errors():
    mu2 = la.catalog(QQ)["mu2"]
    with pytest.raises(ValueError):
        la.ideal_membership(la.z_var(QQ, 2, 0, 1), mu2.ideal, 2)
    with pytest.raises(ValueError):
        la.ideal_membership(la.z_var(F5, 1, 0, 0), mu2.ideal, 2)
    with pytest.raises(ValueError):
        la.ideal_membership(la.z_var(QQ, 1, 0, 0), mu2.ideal, -1)
    with pytest.raises(ValueError):
        la.ideal_membership_ascending(la.z_var(QQ, 1, 0, 0), mu2.ideal, -1)


def test_truncated_ideal_part_examples():
    mu2 = la.catalog(QQ)["mu2"]
    tr = la.truncated_ideal_part(mu2.ideal, 1, 3)
    zmw = la.parse_element(QQ, 1, "Z[1,1] - W[1,1]")
    assert any(
        b == zmw or b == -zmw for b in tr.basis
    )
    assert not tr.complete  # below the Hermann bound

    # generator-multiple route reaches Z^2 - W at work cap 4:
    # W*(Z^3 - 1) - Z^2*(ZW - 1) = Z^2 - W, both multiples of degree <= 4
    ideal_poly = la.LaurentIdeal(QQ, 1, (la.parse_element(QQ, 1, "Z[1,1]^3 - 1"),))
    tr3 = la.truncated_ideal_part(ideal_poly, 2, 4)
    z2w = la.parse_element(QQ, 1, "Z[1,1]^2 - W[1,1]")
    found = any(_same_line(QQ, b, z2w) for b in tr3.basis) or any(
        la.ideal_membership_ascending(
            z2w, la.LaurentIdeal(QQ, 1, tr3.basis), 2
        ).is_member
        for _ in [0]
    )
    assert found

    unit_ideal = la.LaurentIdeal(QQ, 1, (la.lau_const(QQ, 1, 1),))
    tr1 = la.truncated_ideal_part(unit_ideal, 0, 2)
    assert any(b.degree() == 0 for b in tr1.basis)


def _same_line(field, f, g):
    if f.terms and g.terms:
        lead_f = f.terms[0]
        lead_g = g.terms[0]
        if lead_f[0] != lead_g[0]:
            return False
        lam = field.div(lead_g[1], lead_f[1])
        return f.scale(lam) == g
    return f == g


def test_character_slice_matches_truncation_route():
    """Exact slice route against the generator-multiple route (two
    independent computations of the same space)."""
    for p in (2, 3):
        Zp = ab.parse_group(f"Z/{p}")
        pres = la.diagonalizable_image_ideal(QQ, [Zp.element([1])])
        for d in (1, 2):
            exact = la.character_slice(QQ, pres.weights, d)
            lower = la.truncated_ideal_part(pres.ideal, d, d + 4)
            assert _span_equal(QQ, exact, lower.basis, 1)


def _incidence_kernel(field, n, monos, lift):
    """Reference route: the kernel of the monomial-by-coset matrix by row
    reduction; `monos` pairs each exponent tuple with (its coset, its value
    there), or None for monomials that lie in the ideal."""
    from diagcat import field as fieldmod
    from diagcat import sparsepoly as sp

    cols = {}
    for _, img in monos:
        if img is not None:
            cols.setdefault(img[0], len(cols))
    mat = [[field.zero()] * len(cols) for _ in monos]
    for r, (_, img) in enumerate(monos):
        if img is not None:
            mat[r][cols[img[0]]] = img[1]
    out = []
    for v in fieldmod.kernel(field, fieldmod.transpose(mat)):
        terms = {lift(e): c for (e, _), c in zip(monos, v) if c != field.zero()}
        out.append(sp.from_dict(field, 2 * n * n, terms))
    return out


def _reference_slices(field, n, char, d):
    """The degree <= d slice of a lattice ideal of GL_n that contains the
    off-diagonal variables, and its small generating set, by row reduction:
    `char(v)` is (the coset, the value x) of a Laurent exponent v, so that
    z^v is x times the coset's representative modulo the ideal."""
    from diagcat import sparsepoly as sp

    diag_z = [la.z_index(n, i, i) for i in range(n)]
    diag_w = [la.w_index(n, i, i) for i in range(n)]
    full = []
    for e in sp.monomials_up_to(2 * n * n, d):
        off = any(e[k] for k in range(2 * n * n) if k not in diag_z + diag_w)
        v = [e[z] - e[w] for z, w in zip(diag_z, diag_w)]
        full.append((e, None if off else char(v)))
    basis = _incidence_kernel(field, n, full, lambda e: e)
    gens = []
    if d >= 1:
        for i in range(n):
            for j in range(n):
                if i != j:
                    gens += [la.z_var(field, n, i, j), la.w_var(field, n, i, j)]
    small = [
        (e, char([a - b for a, b in zip(e[:n], e[n:])]))
        for e in sp.monomials_up_to(2 * n, d)
    ]

    def lift(e):
        big = [0] * (2 * n * n)
        for i in range(n):
            big[diag_z[i]], big[diag_w[i]] = e[i], e[n + i]
        return tuple(big)

    gens += _incidence_kernel(field, n, small, lift)
    return tuple(basis), tuple(gens)


def _weights_character(field, weights):
    """`char` of the image of the diagonalizable group acting by `weights`:
    the character sum of v and the value 1."""
    def char(v):
        acc = weights[0].group.zero()
        for w, k in zip(weights, v):
            acc = acc + w.scale(k)
        return acc, field.one()

    return char


def test_character_slices_match_incidence_kernel():
    """The closed-form slices equal, tuple for tuple, the kernel that row
    reduction of the incidence matrix returns."""
    Z2 = ab.parse_group("Z^2")
    Z4 = ab.parse_group("Z/4")
    weight_sets = [
        ([Z.element([1])], 3),
        ([Z4.element([1])], 3),
        ([Z.element([1]), Z.element([2])], 3),
        ([Z2.element([1, 0]), Z2.element([0, 1])], 2),
        ([Z4.element([1]), Z4.element([3]), Z4.element([2])], 2),
    ]
    for field in (QQ, ExactField(101), ExactField(2)):
        for weights, dmax in weight_sets:
            char = _weights_character(field, weights)
            for d in range(dmax + 1):
                basis, gens = _reference_slices(field, len(weights), char, d)
                assert la.character_slice(field, weights, d) == basis
                assert la.character_slice_generators(field, weights, d) == gens


@pytest.mark.parametrize("field", [QQ, F5, ExactField(101)], ids=str)
def test_lattice_slices_with_values_match_incidence_kernel(field):
    """On lattice ideals whose character rho is not 1, Z11 - 2 in GL_1 and
    Z11 + Z22 (rho = -1 on (1, -1)) in GL_2, the slices read from the
    ideal equal the row-reduction reference with the values of rho: z^v is
    2^v modulo the first, and (-1)^v1 z22^(v1 + v2) modulo the second."""
    two, minus_one = field.of(2), field.neg(field.one())
    offdiag = ["Z[1,2]", "W[1,2]", "Z[2,1]", "W[2,1]"]
    cases = [
        (1, ["Z[1,1] - 2"], lambda v: ((), field.pow(two, v[0])), 3),
        (2, [*offdiag, "Z[1,1] + Z[2,2]"],
         lambda v: (v[0] + v[1], field.pow(minus_one, v[0])), 2),
    ]
    for n, texts, char, dmax in cases:
        gens = tuple(la.parse_element(field, n, t) for t in texts)
        I = la.LaurentIdeal(field, n, gens)
        assert I.lattice is not None and I.lattice.values != (field.one(),)
        for d in range(dmax + 1):
            basis, small = _reference_slices(field, n, char, d)
            assert la._lattice_slice(I, d) == basis, (texts, d)
            assert la._lattice_slice_generators(I, d) == small, (texts, d)
            assert all(la._in_lattice_ideal(b, n, I.lattice) for b in basis)


def _span_equal(field, basis_a, basis_b, n):
    from diagcat import field as fieldmod
    from diagcat import sparsepoly as sp

    monos = {}
    for b in list(basis_a) + list(basis_b):
        for e, _ in b.terms:
            monos.setdefault(e, len(monos))

    def rows(basis):
        out = []
        for b in basis:
            row = [field.zero()] * len(monos)
            for e, c in b.terms:
                row[monos[e]] = c
            out.append(row)
        return out

    ra = rows(basis_a)
    rb = rows(basis_b)
    if not ra and not rb:
        return True
    if not ra or not rb:
        return False
    return (
        fieldmod.rank(field, ra)
        == fieldmod.rank(field, rb)
        == fieldmod.rank(field, ra + rb)
    )


def test_diagonalizable_image_ideals():
    gm = la.catalog(QQ)["gm-gl1"]
    assert gm.ideal.generators == ()

    mu2 = la.catalog(QQ)["mu2"]
    assert len(mu2.ideal.generators) == 1
    zmw = la.parse_element(QQ, 1, "Z[1,1] - W[1,1]")
    assert _same_line(QQ, mu2.ideal.generators[0], zmw)

    tt2 = la.catalog(QQ)["torus-t-t2-gl2"]
    texts = sorted(la.format_element(g) for g in tt2.ideal.generators)
    assert "Z[1,1]^2 - Z[2,2]" in texts
    assert "Z[1,2]" in texts and "W[2,1]" in texts

    # equal weights produce diagonal equalities
    pres = la.diagonalizable_image_ideal(QQ, [Z.element([1]), Z.element([1])])
    texts = [la.format_element(g) for g in pres.ideal.generators]
    assert any("Z[1,1] - Z[2,2]" in t or "-Z[2,2] + Z[1,1]" in t for t in texts)


def test_image_points_vanishing():
    """The presented ideal vanishes exactly on the enumerated image points."""
    Z4 = ab.parse_group("Z/4")
    pres = la.diagonalizable_image_ideal(F5, [Z4.element([1])])
    pts = la.image_points(F5, Z4, pres.weights)
    assert len(pts) == 4
    for g, ginv in pts:
        for gen in pres.ideal.generators:
            assert la.evaluate_at_point(gen, g, ginv) == F5.zero()
    # non-image diagonal points violate some generator: mu4 over F5 is all of
    # F5^* here, so take mu2 instead (image {1, 4})
    Z2 = ab.parse_group("Z/2")
    pres2 = la.diagonalizable_image_ideal(F5, [Z2.element([1])])
    image_values = {g[0][0] for g, _ in la.image_points(F5, Z2, pres2.weights)}
    assert image_values == {1, 4}
    for t in F5.units():
        point = ([[t]], [[F5.inv(t)]])
        vanishes = all(
            la.evaluate_at_point(gen, *point) == F5.zero()
            for gen in pres2.ideal.generators
        )
        assert vanishes == (t in image_values)


def test_balanced_binomials():
    for p, expected_deg in ((2, 1), (3, 2), (5, 3)):
        Zp = ab.parse_group(f"Z/{p}")
        pres = la.diagonalizable_image_ideal(QQ, [Zp.element([1])])
        assert len(pres.ideal.generators) == 1
        assert pres.ideal.generators[0].degree() == expected_deg


def test_hermann_bound():
    assert hermann_bound(1, 1) == 2 ** (2**2)
    assert hermann_bound(2, 1) == 4 ** (2**2)
    # astronomically large already for n = 2
    assert hermann_bound(1, 2) == 2**256


def test_hermann_test_matches_the_integer_bound():
    """Repeated squaring decides work_cap >= B + D as the integer B does,
    on both sides of the edge, for n <= 3 and D <= 3."""
    checked = 0
    for n in (1, 2, 3):
        for d in range(4):
            edge = hermann_bound(d, n) + d
            caps = (0, 1, d, 15, 16, 17, 19, 255, 258, 1296, 1299, edge - 1, edge, edge + 1)
            for cap in caps:
                want = cap >= edge
                assert la._reaches_hermann_bound(cap, d, n) == want, (n, d, cap)
                checked += want
    assert checked >= 12 * 2


def test_gl4_slice_reads_without_the_hermann_integer():
    """The weight-stripped diagonal torus of GL_4: its Hermann bound has
    the exponent 2^32, an integer of over 512 MB, yet a degree-1 slice at
    cap 2 reads in well under a second. The slice is the span of the 24
    off-diagonal variables, as the exact character slice says."""
    Z4 = ab.parse_group("Z^4")
    units = [[int(i == j) for j in range(4)] for i in range(4)]
    for field in (QQ, ExactField(101)):
        weights = [Z4.element(row) for row in units]
        I = la.diagonalizable_image_ideal(field, weights).ideal
        start = time.perf_counter()
        got = la.truncated_ideal_part(I, 1, 2)
        assert time.perf_counter() - start < 5
        assert not got.complete and got.d == 1 and got.cap == 2
        exact = la.character_slice(field, weights, 1)
        assert sorted(g.terms for g in got.basis) == sorted(g.terms for g in exact)
        assert len(got.generators) == 24


def test_truncation_complete_uses_generator_degree():
    """Hermann's bound is in the generators' degree: the relations ZW - I
    alone have degree 2, so cap 16 = hermann_bound(1, 1) is far from
    complete for d = 1; the bound is (2 * 3)^4 = 1296 for mu3's cubic."""
    mu3 = la.catalog(QQ)["mu3"]
    assert not la.truncated_ideal_part(mu3.ideal, 1, 16).complete


def _reference_to_diag_poly(field, n, f):
    """The former term loop: drop terms with an off-diagonal exponent and
    keep the diagonal exponents (z_11..z_nn, w_11..w_nn)."""
    from diagcat import sparsepoly as sp

    diag = [la.z_index(n, i, i) for i in range(n)] + [la.w_index(n, i, i) for i in range(n)]
    d = {}
    for e, c in f.terms:
        if any(e[k] for k in range(2 * n * n) if k not in diag):
            continue
        key = tuple(e[k] for k in diag)
        d[key] = field.add(d.get(key, field.zero()), c)
    return sp.from_dict(field, 2 * n, d)


def _reference_comultiply_terms(f):
    """The former tensor-square loop: expand each term as a product of
    Delta(x) over its variables, keyed by (left, right) exponents."""
    n, k = la._matrix_size(f), f.field
    nn = n * n

    def unit(idx):
        e = [0] * (2 * nn)
        e[idx] = 1
        return tuple(e)

    def mul(a, b):
        d = {}
        for (l1, r1), c1 in a.items():
            for (l2, r2), c2 in b.items():
                key = (
                    tuple(x + y for x, y in zip(l1, l2)),
                    tuple(x + y for x, y in zip(r1, r2)),
                )
                d[key] = k.add(d.get(key, k.zero()), k.mul(c1, c2))
        return {key: c for key, c in d.items() if c != k.zero()}

    def delta(idx):
        i, j = divmod(idx % nn, n)
        if idx < nn:
            pairs = [(la.z_index(n, i, l), la.z_index(n, l, j)) for l in range(n)]
        else:
            pairs = [(la.w_index(n, l, j), la.w_index(n, i, l)) for l in range(n)]
        return {(unit(a), unit(b)): k.one() for a, b in pairs}

    zero_e = (0,) * (2 * nn)
    out = {}
    for exps, coeff in f.terms:
        term = {(zero_e, zero_e): coeff}
        for idx, e in enumerate(exps):
            for _ in range(e):
                term = mul(term, delta(idx))
        for key, c in term.items():
            out[key] = k.add(out.get(key, k.zero()), c)
    return tuple(sorted((key, c) for key, c in out.items() if c != k.zero()))


@pytest.mark.parametrize("p", [None, 101, 5])
def test_diagonal_projection_matches_reference_loop(p):
    field = ExactField(p)
    elements = []
    for pres in la.catalog(field).values():
        elements += pres.ideal.generators
        for d in range(4):
            elements += la.character_slice(field, pres.weights, d)
    for f in elements:
        n = la._matrix_size(f)
        diag = [la.z_index(n, i, i) for i in range(n)] + [la.w_index(n, i, i) for i in range(n)]
        got = la._eliminate(f, diag)
        assert got == _reference_to_diag_poly(field, n, f)
        back = la._embed(got, diag, 2 * n * n)
        assert la._eliminate(back, diag) == got


def test_comultiply_matches_reference_loop():
    rng = random.Random(50)
    for n in (1, 2):
        for _ in range(25):
            f = _random_element(rng, QQ, n, deg=3)
            assert _split(la.comultiply(f)) == _reference_comultiply_terms(f)


@pytest.mark.parametrize("p, caps", [(101, (3, 4)), (None, (3,))], ids=["F101", "Q"])
def test_truncation_matches_dense_reference(monkeypatch, p, caps):
    """Slices of the catalog GL_2 ideals are the same through the sparse
    `echelon` core and through the dense reference loop."""
    field = ExactField(p)
    cat = la.catalog(field)
    cases = [
        (cat[name].ideal, d, cap)
        for name in ("torus-t-t2-gl2", "diagonal-torus-gl2")
        for cap in caps
        for d in range(3)
    ]
    sparse = [repr(la.truncated_ideal_part(*case)) for case in cases]
    monkeypatch.setattr(fm, "echelon", dense_echelon)
    assert [repr(la.truncated_ideal_part(*case)) for case in cases] == sparse


def _reference_refutation_point(f, I, points=None):
    """The point scan as one loop: the first stream point (of `points`, by
    default `_point_list`) where f is nonzero and every generator of I
    vanishes."""
    z = I.field.zero()
    if points is None:
        points = la._point_list(I.field, I.n)
    for g, ginv in points:
        if la.evaluate_at_point(f, g, ginv) == z:
            continue
        if all(la.evaluate_at_point(h, g, ginv) == z for h in I.generators):
            return g, ginv
    return None


def _scan_cases(field):
    """Every catalog ideal and its truncations of degree <= 2, each with the
    elements to refute: the catalog generators, the relation generators and
    a few seeded low-degree elements."""
    from diagcat import stab

    rng = random.Random(11)
    for name, G in la.catalog(field).items():
        fs = [*G.ideal.generators, *la.relation_generators(field, G.n)]
        fs += [_random_element(rng, field, G.n, deg=2) for _ in range(3)]
        ideals = [G.ideal] + [stab.group_le_d(G, d, 2)[0].ideal for d in range(3)]
        for I in ideals:
            yield name, I, fs


@pytest.mark.parametrize("field", [QQ, F5, ExactField(101)], ids=str)
def test_point_scan_matches_reference_loop(field):
    """In either order of the fs, the scan of an ideal gives the reference
    loop's point: warm from the other order on the same ideal, and fresh on
    an equal ideal built apart, which has a scan of its own."""
    for name, I, fs in _scan_cases(field):
        expected = [_reference_refutation_point(f, I) for f in fs]
        for order in (range(len(fs)), reversed(range(len(fs)))):
            for J in (I, la.LaurentIdeal(I.field, I.n, I.generators, I.name)):
                for k in order:
                    got = la.find_refutation_point(fs[k], J)
                    assert got == expected[k], (name, I.name, k)
        assert I.scan is not la.LaurentIdeal(I.field, I.n, I.generators, I.name).scan


def _diagonal_entries(field):
    """The diagonal entries the stream's grid runs over, in order."""
    if field.is_finite:
        return field.units()
    return [Fraction(x) for x in (1, -1, 2, -2, 3, Fraction(1, 2), 5)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_point_list_is_the_stream_prefix_then_its_tail(n):
    """The stream is the diagonal grid cut at 3000 points, then the n(n-1)
    transvections I + E_ij, then the n! - 1 permutation matrices other
    than the identity, then, for p <= 7 and n <= 2, all of GL_n(F_p) in
    row-major order of its entries."""
    cells = list(itertools.product(range(n), repeat=2))
    for field in (QQ, F5, ExactField(7), ExactField(101)):
        one = field.one()
        points = list(la._point_list(field, n))
        diagonals = itertools.product(_diagonal_entries(field), repeat=n)
        grid = list(itertools.islice(diagonals, 3000))
        for (g, _), diag in zip(points, grid):
            assert g == tuple(
                tuple(diag[a] if a == b else 0 for b in range(n)) for a in range(n)
            )
        rest = points[len(grid) :]
        for i, j in itertools.permutations(range(n), 2):
            g, ginv = rest.pop(0)
            assert {c for c in cells if g[c[0]][c[1]]} == {(a, a) for a in range(n)} | {(i, j)}
            assert g[i][j] == one and ginv[i][j] == field.neg(one)
        for perm in list(itertools.permutations(range(n)))[1:]:
            g, ginv = rest.pop(0)
            assert {c for c in cells if g[c[0]][c[1]]} == set(enumerate(perm))
            assert ginv == tuple(zip(*g))
        if field.is_finite and field.p <= 7 and n <= 2:
            rows = (
                tuple(entries[a * n : (a + 1) * n] for a in range(n))
                for entries in itertools.product(range(field.p), repeat=n * n)
            )
            gl = [g for g in rows if fm.rank(field, g) == n]
            assert [g for g, _ in rest] == gl
            assert len(gl) == math.prod(field.p**n - field.p**k for k in range(n))
        else:
            assert rest == []


@pytest.mark.parametrize(
    "field",
    [QQ, ExactField(2), ExactField(3), F5, ExactField(7), ExactField(101)],
    ids=str,
)
def test_every_stream_point_is_a_matrix_and_its_inverse(field):
    """g g^{-1} = I at every point of the stream, for n <= 4; the inverses
    of the grid, the transvections and the permutations are written down,
    not solved for."""
    for n in range(1, 5):
        eye = fm.identity(field, n)
        for g, ginv in la._point_list(field, n):
            assert fm.mat_mul(field, g, ginv) == eye


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tail_points_are_off_the_diagonal_and_invertible(n):
    """Every tail point (g, g^-1) has an entry off the diagonal and
    g g^-1 = I; the tail lists n(n-1) transvections, then the n! - 1
    permutation matrices other than the identity, none twice."""
    F101 = ExactField(101)
    tail = la._point_list(F101, n)[3000:]
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    for g, ginv in tail:
        assert any(g[i][j] for i in range(n) for j in range(n) if i != j)
        assert fm.mat_mul(F101, [list(r) for r in g], [list(r) for r in ginv]) == eye
    assert len(set(tail)) == len(tail) == n * (n - 1) + math.factorial(n) - 1
    transvections = tail[: n * (n - 1)]
    assert all(sum(map(sum, g)) == n + 1 for g, _ in transvections)
    assert all(sum(map(sum, g)) == n for g, _ in tail[n * (n - 1) :])


@pytest.mark.parametrize("field", [QQ, F5, ExactField(101)], ids=str)
def test_tail_keeps_every_prefix_refutation(field):
    """Wherever the prefix-only stream refutes f, the scan returns that same
    point; over F_101 the tail refutes some f that the prefix could not."""
    new = 0
    for name, I, fs in _scan_cases(field):
        prefix = la._point_list(field, I.n)[:3000]
        for f in fs:
            want = _reference_refutation_point(f, I, prefix)
            got = la.find_refutation_point(f, I)
            if want is not None:
                assert got == want, (name, I.name)
            elif got is not None:
                new += 1
                assert got in la._point_list(field, I.n)[3000:], (name, I.name)
    assert (new > 0) == (field.p == 101)


def test_off_diagonal_refutation_ends_the_ladder_at_cap_0(monkeypatch):
    """Z[1,2] against the bare relation ideal of GL_2 over F_101: the
    transvection I + E_12 refutes it at cap 0, after the one cap-0 solve,
    and no cap-1 or cap-2 solve in the 8 variables follows."""
    solves = []
    solve = la._solve_cofactors

    def counting(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(la, "_solve_cofactors", counting)
    F101 = ExactField(101)
    I = la.LaurentIdeal(F101, 2, ())
    res = la.ideal_membership_ascending(la.z_var(F101, 2, 0, 1), I, 4)
    assert len(solves) == 1
    assert res.status == "not_member_up_to" and res.definitive and res.cap == 0
    assert res.refutation_point == (((1, 1), (0, 1)), ((1, 100), (0, 1)))


def _count_kernel_rows(monkeypatch):
    """Record (id of the polynomial, row) for every row that
    `SparsePoly.evaluate_columns` evaluates."""
    calls = []
    evaluate_columns = SparsePoly.evaluate_columns

    def counting(self, columns, rows):
        calls.extend((id(self), r) for r in rows)
        return evaluate_columns(self, columns, rows)

    monkeypatch.setattr(SparsePoly, "evaluate_columns", counting)
    return calls


def test_point_scan_evaluates_each_generator_once(monkeypatch):
    from diagcat import stab

    F101 = ExactField(101)
    calls = _count_kernel_rows(monkeypatch)
    for name, I, fs in _scan_cases(F101):
        if name not in ("mu5", "torus-t-t2-gl2"):
            continue
        # fresh objects, so that a call on f is never counted as one on a
        # generator equal to it
        fs = [SparsePoly(f.field, f.nvars, f.terms) for f in fs]
        del calls[:]
        for f in fs + fs:
            la.find_refutation_point(f, I)
        gens = {id(g) for g in I.generators}
        pairs = [c for c in calls if c[0] in gens]
        assert pairs or not I.generators, (name, I.name)
        assert len(pairs) == len(set(pairs)), (name, I.name)

    # the defining degree is the same as with one-off reference scans
    G = la.catalog(F101)["mu5"]
    result = stab.defining_degree(G, 4, 6)
    monkeypatch.setattr(
        la,
        "find_refutation_point",
        lambda f, I: _reference_refutation_point(f, I),
    )
    assert stab.defining_degree(G, 4, 6) == result
    assert result.degree == 3 and all(r.definitive for r in result.refutations)


def test_point_scan_is_lazy(monkeypatch):
    """A fresh scan whose first refuting point is stream point k has tested
    at most 2k + 1 stream points."""
    F101 = ExactField(101)
    calls = _count_kernel_rows(monkeypatch)
    ks = []
    for name, I, fs in _scan_cases(F101):
        if name not in ("mu5", "torus-t-t2-gl2"):
            continue
        points = la._point_list(F101, I.n)
        for f in fs:
            del calls[:]
            fresh = la.LaurentIdeal(I.field, I.n, I.generators, I.name)
            pt = la.find_refutation_point(f, fresh)
            if pt is not None:
                k = points.index(pt)
                assert len({r for _, r in calls}) <= 2 * k + 1, (name, I.name, k)
                ks.append((k, len(points)))
    # some hit lies past the first point and well before the end of the stream
    assert any(0 < k and 2 * k + 1 < size for k, size in ks)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("field", [QQ, F5, ExactField(101)], ids=str)
def test_evaluate_columns_matches_evaluate_at_every_stream_row(field, n):
    rng = random.Random(n)
    points = la._point_list(field, n)
    columns = la._point_columns(field, n)
    fs = [_random_element(rng, field, n, deg) for deg in (1, 2, 4) for _ in range(3)]
    fs += [
        la.parse_element(field, n, "Z[1,1]^5*W[1,1]^3 - 2*Z[1,1]"),
        la.lau_const(field, n, 3),
        la.lau_zero(field, n),
    ]
    rows = range(len(points))
    some_rows = list(rows)[::-3]
    for f in fs:
        want = [la.evaluate_at_point(f, *pt) for pt in points]
        assert f.evaluate_columns(columns, rows) == want
        assert f.evaluate_columns(columns, some_rows) == [want[r] for r in some_rows]


@pytest.mark.parametrize("field", [QQ, ExactField(101)], ids=str)
def test_cap0_refutation_ends_the_ladder(monkeypatch, field):
    """1 against trivial-gl1, (Z[1,1] - 1): its coset sum is 1, so the
    lattice shows it no member and no cap is solved; the cap-0 scan still
    makes the answer definitive."""
    solves = []
    solve = la._solve_cofactors

    def counting(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(la, "_solve_cofactors", counting)
    one = la.lau_const(field, 1, 1)
    res = la.ideal_membership_ascending(one, la.catalog(field)["trivial-gl1"].ideal, 4)
    assert len(solves) == 0
    assert res.status == "not_member_up_to" and res.definitive and res.cap == 0


_WORK_BUDGET = la._work_budget


def _over_budget_from(monkeypatch, I, cap):
    """Lower the work budget so that a solve against I is within it at
    caps below `cap` and over it from `cap` on; None keeps the real one."""
    if cap is None:
        monkeypatch.setattr(la, "_work_budget", _WORK_BUDGET)
        return
    _, kept, _, distinct = I.reduction
    top = max(r.degree() for _, r in distinct)
    budget = la._solve_work_estimate(len(kept), len(distinct), cap, top) - 1
    monkeypatch.setattr(la, "_work_budget", lambda field: budget)


def test_refutation_covers_an_answer_over_budget(monkeypatch):
    I = la.catalog(QQ)["diagonal-torus-gl2"].ideal
    f = la.parse_element(QQ, 2, "Z[1,1]^130 - Z[2,2]")
    _over_budget_from(monkeypatch, I, 0)
    assert la._capped_solves([f], I, 0) == []  # over the work budget
    res = la.ideal_membership(f, I, 0)
    assert res.status == "not_member_up_to" and res.definitive
    g, ginv = res.refutation_point
    assert la.evaluate_at_point(f, g, ginv) != QQ.zero()
    assert all(la.evaluate_at_point(h, g, ginv) == QQ.zero() for h in I.generators)


def test_budget_ignores_the_target_degree():
    """The budget test counts the solve, not the target: a target of degree
    above cap + the generators' top degree adds only right-hand-side rows.
    Z[1,1]^60 - Z[1,1]^58*Z[2,2] against torus-t-t2-gl2 over Q was
    estimated at 152,334,000 at cap 1 when its own degree counted, over the
    budget of 40,000,000; it is solved, and its ladder ends at the cap, not
    in `unknown`."""
    I = la.catalog(QQ)["torus-t-t2-gl2"].ideal
    f = la.parse_element(QQ, 2, "Z[1,1]^60 - Z[1,1]^58*Z[2,2]")
    _, kept, _, distinct = I.reduction
    per_target = la._solve_work_estimate(len(kept), len(distinct), 1, f.degree())
    assert per_target == 152_334_000 > la._work_budget(QQ)
    assert la._capped_solves([f], I, 1) == [None]
    res = la.ideal_membership_ascending(f, I, 3)
    assert (res.status, res.cap, res.definitive) == ("not_member_up_to", 3, False)


@pytest.mark.parametrize("field", [QQ, F5, ExactField(101)], ids=str)
def test_ladder_matches_reference_ladder(field):
    """The ladder gives the reference ladder's answers; only the cap of a
    definitive negative may differ, since the ladder stops at the cap after
    which its point was found."""
    outcomes = set()
    for name, I, fs in _scan_cases(field):
        for max_cap in range(4):
            for f in fs:
                got = la.ideal_membership_ascending(f, I, max_cap)
                want = reference_ascending(f, I, max_cap)
                case = (name, I.name, max_cap, la.format_element(f))
                assert got.status == want.status, case
                assert got.definitive == want.definitive, case
                assert got.refutation_point == want.refutation_point, case
                assert got.cofactors == want.cofactors, case
                if not (got.definitive and not got.is_member):
                    assert got.cap == want.cap, case
                outcomes.add((got.status, got.definitive))
    assert {("member", False), ("not_member_up_to", True)} <= outcomes


def _reference_relation_generators(field, n):
    """Entries of ZW - I and WZ - I as sums of products of variables."""
    gens = []
    for left, right in ((la.z_var, la.w_var), (la.w_var, la.z_var)):
        for i in range(n):
            for j in range(n):
                acc = la.lau_zero(field, n)
                for l in range(n):
                    acc = acc + left(field, n, i, l) * right(field, n, l, j)
                if i == j:
                    acc = acc - la.lau_const(field, n, 1)
                gens.append(acc)
    return gens


@pytest.mark.parametrize("n", [1, 2, 3])
def test_relation_generators_match_products(n):
    for field in (QQ, F5, ExactField(101)):
        assert la.relation_generators(field, n) == tuple(
            _reference_relation_generators(field, n)
        )


# (n, generators, elements, largest cap): ideals that hold only some
# off-diagonal variables, so only those are eliminated
_PARTIAL_CASES = [
    (
        2,
        ["Z[2,1]", "W[2,1]"],
        [
            "Z[1,1]*Z[2,2]*W[1,1]*W[2,2] - 1",
            "Z[1,1]*W[1,1] - 1",
            "Z[2,2]*W[2,2] - 1",
            "Z[1,2]*Z[2,1]",
            "Z[1,2] + Z[1,1]*Z[2,2]*W[1,2]",
            "Z[1,2]",
            "Z[1,1]*W[2,2] - 1",
        ],
        2,
    ),
    (
        3,
        ["Z[3,1]", "W[3,1]", "Z[3,2]", "W[3,2]"],
        [
            "Z[3,3]*W[3,3] - 1",
            "Z[3,1]*Z[1,2] + W[3,2]",
            "Z[1,1]*W[1,1] - 1",
            "Z[1,3]",
        ],
        1,
    ),
]


@pytest.mark.parametrize("field", [QQ, F5, ExactField(101)], ids=str)
def test_partial_elimination_matches_full_ring(field):
    """Eliminating only some variables finds every member the full-ring
    solve finds, at a cap no larger, and never calls a full-ring member a
    non-member; every witness re-verifies."""
    rng = random.Random(7)
    for n, gen_texts, texts, max_cap in _PARTIAL_CASES:
        I = la.LaurentIdeal(
            field, n, tuple(la.parse_element(field, n, t) for t in gen_texts)
        )
        full = [*I.generators, *la.relation_generators(field, n)]
        fs = [la.parse_element(field, n, t) for t in texts]
        fs += [_random_element(rng, field, n, deg=2) for _ in range(2)]
        for f in fs:
            new_cap = ref_cap = None
            for cap in range(max_cap + 1):
                res = la.ideal_membership(f, I, cap)
                ref_member = la._solve_cofactors(field, full, [f], cap)[0] is not None
                if res.is_member:
                    assert la.verify_membership_witness(f, res)
                    new_cap = cap if new_cap is None else new_cap
                else:
                    assert not ref_member, (n, la.format_element(f), cap)
                    if res.definitive:
                        g, ginv = res.refutation_point
                        assert la.evaluate_at_point(f, g, ginv) != field.zero()
                if ref_member and ref_cap is None:
                    ref_cap = cap
            if ref_cap is not None:
                assert new_cap is not None and new_cap <= ref_cap
    # over Q the full-ring path needs cap 3 here, which is over its work
    # budget; eliminating Z[2,1] and W[2,1] reaches it at cap 2
    I = la.LaurentIdeal(QQ, 2, (la.z_var(QQ, 2, 1, 0), la.w_var(QQ, 2, 1, 0)))
    f = la.parse_element(QQ, 2, "Z[1,1]*Z[2,2]*W[1,1]*W[2,2] - 1")
    assert la.ideal_membership(f, I, 2).is_member


def _truncation_cases(field):
    """(ideal, largest d, caps) for the slice comparisons: the catalog, the
    partial eliminations, a generator that reduces to 0 but carries the top
    degree (Z[1,2]^5 beside Z[1,2]), and two generators with one reduction
    but different degrees, whose multiples differ."""
    for G in la.catalog(field).values():
        yield G.ideal, 3, (3, 4)
    for n, gen_texts, _, _ in _PARTIAL_CASES:
        gens = tuple(la.parse_element(field, n, t) for t in gen_texts)
        yield la.LaurentIdeal(field, n, gens), 2, (2, 3)
    for gen_texts in (
        ["Z[1,2]", "Z[1,2]^5"],
        ["Z[1,1]^2 - 1 + Z[1,2]*Z[1,1]^3", "Z[1,1]^2 - 1", "Z[1,2]"],
    ):
        gens = tuple(la.parse_element(field, 2, t) for t in gen_texts)
        yield la.LaurentIdeal(field, 2, gens), 3, (3, 4)


@pytest.mark.parametrize("field", [QQ, F5, ExactField(101)], ids=str)
def test_truncation_matches_full_ring_reference(field):
    """Eliminating the single-variable generators leaves every slice as the
    full-ring multiples give it, at caps d and above."""
    checked = 0
    for I, d_max, caps in _truncation_cases(field):
        if I.n == 1:
            assert not I.reduction[0]  # GL_1: nothing is eliminated
        for d in range(d_max + 1):
            for cap in sorted({d, *caps}):
                got = la.truncated_ideal_part(I, d, cap)
                assert repr(got) == repr(reference_truncation(I, d, cap)), (I, d, cap)
                checked += 1
    assert checked == 8 * 11 + 2 * 8 + 2 * 11


def _count_builds(monkeypatch, name):
    """Record the ideal each time `LaurentIdeal.<name>` is built."""
    builds = []
    build = getattr(la.LaurentIdeal, name).func

    def counting(I):
        builds.append(I)
        return build(I)

    prop = functools.cached_property(counting)
    prop.__set_name__(la.LaurentIdeal, name)
    monkeypatch.setattr(la.LaurentIdeal, name, prop)
    return builds


def test_ladder_reduces_the_ideal_once(monkeypatch):
    """Each ideal object builds its reduction, lattice and point scan once:
    across a five-cap ladder (caps 0..4), which reads the reduction at every
    cap, and across two more `all_members` calls on that ideal. An equal
    ideal built apart builds its own."""
    field = ExactField(101)
    I = la.catalog(field)["mu2"].ideal
    f = la.parse_element(field, 1, "Z[1,1] - 1")
    member = la.parse_element(field, 1, "Z[1,1]^2 - 1")
    names = ("reduction", "lattice", "scan")
    builds = {name: _count_builds(monkeypatch, name) for name in names}
    with monkeypatch.context() as m:
        m.setattr(la, "find_refutation_point", lambda *args: None)
        res = la.ideal_membership_ascending(f, I, 4)
    assert res.status == "not_member_up_to" and res.cap == 4
    assert builds["reduction"] == builds["lattice"] == [I] and builds["scan"] == []
    witnesses, (g, res) = la.all_members([member, f], I, 4)
    assert witnesses[0][1].is_member and g is f and res.definitive
    assert la.all_members([f], I, 4)[1][1] == res
    for name in names:
        assert len(builds[name]) == 1 and builds[name][0] is I, name
    J = la.LaurentIdeal(I.field, I.n, I.generators, I.name)
    assert J == I and la.ideal_membership(member, J, 2).is_member
    assert len(builds["reduction"]) == 2 and builds["reduction"][1] is J


def _conjugated(I, g, ginv):
    """I moved by Z -> g^-1 Z g, W -> g^-1 W g: an automorphism of k[Z, W]
    that keeps degrees and fixes the relation ideal."""
    F, n = I.field, I.n
    ring = fm.PolyRing(la.lau_zero(F, n), la.lau_const(F, n, 1))

    def lift(m):
        return [[la.lau_const(F, n, x) for x in row] for row in m]

    images = []
    for var in (la.z_var, la.w_var):
        v = [[var(F, n, i, j) for j in range(n)] for i in range(n)]
        moved = fm.mat_mul(ring, fm.mat_mul(ring, lift(ginv), v), lift(g))
        images += [x for row in moved for x in row]
    gens = tuple(h.substitute(images) for h in I.generators)
    return la.LaurentIdeal(F, n, gens, I.name + "^g")


def _weight_free_ideals(field):
    """The two GL_2 catalog ideals, weights stripped, each also conjugated
    by [[1,1],[0,1]], so that no generator is a single variable."""
    g, ginv = [[1, 1], [0, 1]], [[1, -1], [0, 1]]
    for name in ("torus-t-t2-gl2", "diagonal-torus-gl2"):
        I = la.catalog(field)[name].ideal
        yield I
        yield _conjugated(I, [[field.of(x) for x in r] for r in g],
                          [[field.of(x) for x in r] for r in ginv])


@pytest.mark.parametrize("field", [QQ, ExactField(101)], ids=str)
def test_graded_truncation_matches_reference_at_every_degree(field):
    """One graded elimination gives, at every d <= cap and in any reading
    order, the basis and pruned generators of the full-ring reference."""
    rng = random.Random(3)
    cap = 3
    for I in _weight_free_ideals(field):
        read = la.graded_truncation(I, cap)
        order = list(range(cap + 1))
        rng.shuffle(order)
        for d in order + order[:1]:
            got, want = read(d), reference_truncation(I, d, cap)
            assert got.basis == want.basis, (I.name, d)
            assert got.generators == want.generators, (I.name, d)
            assert repr(got) == repr(want)
        with pytest.raises(ValueError):
            read(cap + 1)


def _members_cases(field):
    """(ideal, targets) for `all_members`: the weight-stripped
    torus-t-t2-gl2 ideal with targets that are zero, members at caps 0, 1
    and 2, refuted by a point (Z[1,1] - 1), and members of degree 200 and
    60 that need a cap far above 3, in lists that fail first, in the middle
    and not at all."""
    I = la.catalog(field)["torus-t-t2-gl2"].ideal

    def el(text):
        return la.parse_element(field, 2, text)

    zero = la.lau_zero(field, 2)
    cap0 = [el("Z[1,1]^2 - Z[2,2]"), el("Z[1,2]"), el("Z[1,1]*W[1,1] - 1")]
    cap1 = [el("Z[1,1]^3 - Z[1,1]*Z[2,2]"), el("W[2,2]*Z[1,1]^2 - 1")]
    cap2 = [el("Z[1,1]^4 - Z[2,2]^2")]
    refuted = el("Z[1,1] - 1")
    big = el("Z[1,1]^200 - Z[1,1]^198*Z[2,2]")
    mid = el("Z[1,1]^60 - Z[1,1]^58*Z[2,2]")
    lists = [
        [zero, *cap0, *cap1, zero, *cap2, refuted, *cap1],
        [*cap2, *cap0, big, *cap1],
        [refuted, *cap0, *cap2],
        [*cap1, zero, *cap2, *cap0, *cap1],
        [big, *cap0],
        [*cap0, mid, *cap1, *cap2],
    ]
    return I, lists


@pytest.mark.parametrize("field", [QQ, ExactField(101)], ids=str)
def test_all_members_matches_separate_ladders(monkeypatch, field):
    """The shared solves of `all_members` give each target the answer of
    its own ladder, cofactor for cofactor: the same as one
    `ideal_membership_ascending` per target, which is the one-target
    `all_members` call, and, but for the cap of a definitive negative, as
    the reference ladder. So they do with the real work budget and with a
    budget that the solves go over from cap 0, 1 or 2 on."""
    I, lists = _members_cases(field)
    outcomes = set()
    for over_from in (None, 0, 1, 2):
        _over_budget_from(monkeypatch, I, over_from)
        for fs in lists:
            for max_cap in range(4):
                witnesses, failure = la.all_members(fs, I, max_cap)
                got = [res for _, res in witnesses] + ([failure[1]] if failure else [])
                for f, res in zip(fs, got):
                    want = la.ideal_membership_ascending(f, I, max_cap)
                    ref = reference_ascending(f, I, max_cap)
                    case = (over_from, max_cap, la.format_element(f))
                    alone, failed = la.all_members([f], I, max_cap)
                    assert want == (failed[1] if failed else alone[0][1]), case
                    assert res == want, case
                    fields = ("status", "definitive", "cofactors", "refutation_point")
                    for name in fields:
                        assert getattr(res, name) == getattr(ref, name), (name, case)
                    if res.is_member:
                        assert la.verify_membership_witness(f, res)
                    outcomes.add((res.status, res.cap if res.is_member else res.definitive))
                if failure is None:
                    assert len(got) == len(fs)
                else:
                    assert failure[0] is fs[len(got) - 1]
    assert {("member", 0), ("member", 1), ("member", 2)} <= outcomes
    assert {("not_member_up_to", True), ("not_member_up_to", False)} <= outcomes
    assert ("unknown", False) in outcomes


@pytest.mark.parametrize("field", [QQ, ExactField(101)], ids=str)
def test_all_members_solves_nothing_behind_a_target_over_budget(monkeypatch, field):
    """From the cap at which the solve goes over the work budget, no target
    reaches `_solve_cofactors`: the first target left undecided there is no
    member, so the ladder ends with it, `unknown` at the ladder's cap unless
    a point refuted it."""
    solves = []
    solve = la._solve_cofactors

    def recording(field, gens, targets, cap):
        solves.append(cap)
        return solve(field, gens, targets, cap)

    I, lists = _members_cases(field)
    one = la.lau_const(field, 2, 1)
    monkeypatch.setattr(la, "_solve_cofactors", recording)
    for over_from in (0, 1, 2):
        _over_budget_from(monkeypatch, I, over_from)
        assert [bool(la._capped_solves([one], I, c)) for c in range(4)] == [
            c < over_from for c in range(4)
        ]
        for fs in lists:
            for max_cap in range(4):
                del solves[:]
                witnesses, failure = la.all_members(fs, I, max_cap)
                assert all(cap < over_from for cap in solves), (over_from, max_cap)
                assert all(res.cap < over_from for f, res in witnesses if not f.is_zero())
                if failure is not None and not failure[1].definitive:
                    assert failure[1].cap == max_cap
                    assert (failure[1].status == "unknown") == (max_cap >= over_from)
def test_all_members_checks_every_ring_before_any_solve(monkeypatch):
    """A target outside the ideal's ring raises ValueError wherever it
    stands, even behind a refuted target, before any solve."""
    calls = []
    monkeypatch.setattr(la, "_solve_cofactors", lambda *args: calls.append(args))
    I = la.catalog(QQ)["torus-t-t2-gl2"].ideal
    refuted = la.parse_element(QQ, 2, "Z[1,1] - 1")
    member = la.parse_element(QQ, 2, "Z[1,1]^2 - Z[2,2]")
    for wrong in (la.z_var(QQ, 1, 0, 0), la.z_var(ExactField(101), 2, 0, 0)):
        for fs in ([wrong, member], [member, refuted, wrong], [refuted, wrong]):
            with pytest.raises(ValueError):
                la.all_members(fs, I, 2)
    assert calls == []


@pytest.mark.parametrize("field", [QQ, ExactField(101)], ids=str)
def test_all_members_lifts_only_the_witnesses_it_returns(monkeypatch, field):
    """A shared solve lifts a later target's witness only when that target's
    own ladder reads it: one lift per member returned (a zero target's is
    the empty witness), none for the targets after the first failure."""
    lifts = []
    lift = la._lift_witness

    def counting(f, *args):
        lifts.append(f)
        return lift(f, *args)

    monkeypatch.setattr(la, "_lift_witness", counting)
    I, lists = _members_cases(field)
    for fs in lists:
        for max_cap in range(4):
            del lifts[:]
            witnesses, failure = la.all_members(fs, I, max_cap)
            got = [(f, res) for f, res in witnesses] + ([failure] if failure else [])
            read = [f for f, res in got if res.is_member]
            assert lifts == read, (max_cap, len(got))


def test_all_members_builds_nothing_over_budget(monkeypatch):
    """A cap at which the solve is over the work budget builds no matrix,
    whatever the targets; the caps below it build one each."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(la, "_solve_cofactors", counted("solve", la._solve_cofactors))
    monkeypatch.setattr(fm, "echelon", counted("echelon", fm.echelon))
    monkeypatch.setattr(la, "find_refutation_point", lambda *args: None)
    I = la.catalog(QQ)["torus-t-t2-gl2"].ideal
    big = [
        la.parse_element(QQ, 2, "Z[1,1]^200 - Z[1,1]^198*Z[2,2]"),
        la.parse_element(QQ, 2, "Z[1,1]^201 - Z[1,1]^199*Z[2,2]"),
    ]
    small = la.parse_element(QQ, 2, "Z[1,1]^2 - Z[2,2]")
    _over_budget_from(monkeypatch, I, 0)
    for fs in (big, [big[0], small], [small, *big]):
        witnesses, (f, res) = la.all_members(fs, I, 2)
        assert witnesses == () and f is fs[0] and res.status == "unknown"
    assert calls == []
    _over_budget_from(monkeypatch, I, 1)
    witnesses, failure = la.all_members([small, *big], I, 2)
    assert failure[0] is big[0] and failure[1].status == "unknown"
    assert calls == ["solve", "echelon"]


def test_zero_target_is_a_member_whatever_the_budget(monkeypatch):
    """A zero target is a member at cap 0 without a solve, before a target
    whose solve is over the work budget and alone."""
    calls = []
    monkeypatch.setattr(la, "_solve_cofactors", lambda *args: calls.append(args))
    I = la.catalog(QQ)["torus-t-t2-gl2"].ideal
    zero = la.lau_zero(QQ, 2)
    f = la.parse_element(QQ, 2, "Z[1,1]^2 - Z[2,2]")
    _over_budget_from(monkeypatch, I, 0)
    member = la.MembershipResult("member", 0, ())
    assert la._capped_solves([zero, zero, f, zero], I, 0) == [(), ()]
    witnesses, (g, res) = la.all_members([zero, f], I, 2)
    assert witnesses == ((zero, member),) and g is f and res.status == "unknown"
    assert la.all_members([zero], I, 2) == (((zero, member),), None)
    assert la.ideal_membership(zero, I, 2) == la.MembershipResult("member", 2, ())
    assert calls == []
