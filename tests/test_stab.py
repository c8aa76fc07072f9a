import itertools
import math
import random
import sys
from pathlib import Path

import pytest

from diagcat import abelian as ab
from diagcat import diagrep as dr
from diagcat import field as fm
from diagcat import laurent as la
from diagcat import stab
from diagcat.field import ExactField, QQ
from dense_reference import dense_echelon
from stab_reference import reference_stabilizer_polys
from test_laurent import _conjugated

F5 = ExactField(5)
Z = ab.parse_group("Z")


def test_parse_shape():
    p = stab.parse_shape("X*Y + 1")
    assert p.terms == (((0, 0), 1), ((1, 1), 1))
    p2 = stab.parse_shape("3*X^2*Y + X")
    assert dict(p2.terms) == {(2, 1): 3, (1, 0): 1}
    assert p2.degree == 3
    with pytest.raises(ValueError):
        stab.parse_shape("")
    with pytest.raises(ValueError):
        stab.parse_shape("X - Y")


def test_pd_polynomial():
    assert str(stab.pd_polynomial(1, 1)) == "1 + X + Y"
    p = stab.pd_polynomial(2, 1)
    assert dict(p.terms) == {(0, 0): 1, (1, 0): 2, (0, 1): 2}
    assert p.dimension(2) == 1 + 2 * 2 + 2 * 2
    assert str(stab.pd_polynomial(1, 0)) == "1"
    # binomial oracle for every coefficient
    for n in (1, 2, 3):
        for d in (0, 1, 2, 3):
            p = stab.pd_polynomial(n, d)
            terms = dict(p.terms)
            for a in range(d + 1):
                for b in range(d + 1 - a):
                    assert terms[(a, b)] == math.comb(a + n - 1, a) * math.comb(
                        b + n - 1, b
                    )


def test_canonical_basis():
    X = stab.parse_shape("X")
    Y = stab.parse_shape("Y")
    XY = stab.parse_shape("X*Y")
    assert [str(l) for l in stab.canonical_basis(X, 2)] == [
        "v1[1,0;0]",
        "v2[1,0;0]",
    ]
    assert [str(l) for l in stab.canonical_basis(Y, 2)] == [
        "v1*[0,1;0]",
        "v2*[0,1;0]",
    ]
    labels = stab.canonical_basis(XY, 2)
    assert [(l.vfactors, l.dualfactors) for l in labels] == [
        ((0,), (0,)),
        ((0,), (1,)),
        ((1,), (0,)),
        ((1,), (1,)),
    ]
    # length always matches the dimension formula
    for text in ("1", "X", "X+Y", "X*Y", "X^2+2*Y"):
        p = stab.parse_shape(text)
        for n in (1, 2, 3):
            assert len(stab.canonical_basis(p, n)) == p.dimension(n)


def test_action_matrix_small():
    X = stab.parse_shape("X")
    B = stab.action_matrix(QQ, X, 2)
    assert la.format_element(B[0][0]) == "Z[1,1]"
    assert la.format_element(B[0][1]) == "Z[1,2]"
    Y = stab.parse_shape("Y")
    BY = stab.action_matrix(QQ, Y, 1)
    assert la.format_element(BY[0][0]) == "W[1,1]"
    # dual block is W transpose
    BY2 = stab.action_matrix(QQ, Y, 2)
    assert la.format_element(BY2[0][1]) == "W[2,1]"
    # degree bound
    for text in ("X", "X+Y", "X*Y", "X^2"):
        P = stab.parse_shape(text)
        for row in stab.action_matrix(QQ, P, 2):
            for e in row:
                assert e.degree() <= P.degree


def test_action_matrix_diagonal_points():
    """Evaluated at a diagonal image point, the action matrix is diagonal
    with the character value of each label's weight."""
    Z4 = ab.parse_group("Z/4")
    weights = [Z4.element([1]), Z4.element([2])]
    P = stab.parse_shape("X*Y + X")
    labels = stab.canonical_basis(P, 2)
    B = stab.action_matrix(F5, P, 2)
    for chi in dr.all_characters(F5, Z4):
        vals = [chi.value(w) for w in weights]
        g = [[vals[0], 0], [0, vals[1]]]
        ginv = [[F5.inv(vals[0]), 0], [0, F5.inv(vals[1])]]
        s = len(labels)
        for i in range(s):
            for j in range(s):
                got = la.evaluate_at_point(B[i][j], g, ginv)
                if i == j:
                    assert got == chi.value(stab.label_weight(labels[i], weights))
                else:
                    assert got == F5.zero()


@pytest.mark.parametrize("shape", ["X*Y + X", "X^2"])
def test_action_matrix_matches_point_action_matrix(shape):
    """At every non-diagonal point of GL_2(F_5), the symbolic action matrix
    evaluates to the point action matrix."""
    P = stab.parse_shape(shape)
    B = stab.action_matrix(F5, P, 2)
    points = 0
    for a, b, c, d in itertools.product(range(5), repeat=4):
        if (b == 0 and c == 0) or (a * d - b * c) % 5 == 0:
            continue
        g = [[a, b], [c, d]]
        ginv = fm.inverse(F5, g)
        want = stab.point_action_matrix(F5, P, 2, g, ginv)
        got = [[la.evaluate_at_point(e, g, ginv) for e in row] for row in B]
        assert got == want
        points += 1
    assert points == 480 - 16


def test_stabilizer_polys_examples():
    X = stab.parse_shape("X")
    full = stab.StabilizerProblem(
        X, 2, (1, 2), tuple((QQ.of(a), QQ.of(b)) for a, b in ((1, 0), (0, 1))), QQ
    )
    assert stab.stabilizer_polys(full) == []

    span_v1 = stab.StabilizerProblem(X, 2, (1,), ((QQ.of(1),), (QQ.of(0),)), QQ)
    qs = stab.stabilizer_polys(span_v1)
    assert [la.format_element(q) for q in qs] == ["Z[2,1]"]

    span_sum = stab.StabilizerProblem(X, 2, (1,), ((QQ.of(1),), (QQ.of(1),)), QQ)
    qs = stab.stabilizer_polys(span_sum)
    assert len(qs) == 1
    expected = la.parse_element(QQ, 2, "Z[2,1] + Z[2,2] - Z[1,1] - Z[1,2]")
    assert qs[0] == expected

    with pytest.raises(ValueError):
        stab.StabilizerProblem(X, 2, (2,), ((QQ.of(1),), (QQ.of(0),)), QQ)


def test_stabilizer_polys_vanishing_vs_bruteforce():
    """Over a sample of GL_2(F_5) points, the polynomials vanish exactly on
    the brute-force stabilizer (full enumeration runs in acceptance)."""
    rng = random.Random(17)
    points = _gl2_f5_points()[:120]
    for text in ("X", "X+Y"):
        P = stab.parse_shape(text)
        s = P.dimension(2)
        for _ in range(6):
            A, pivots = _random_subspace(rng, F5, s)
            prob = stab.StabilizerProblem(P, 2, pivots, A, F5)
            qs = stab.stabilizer_polys(prob)
            for g, ginv in points:
                vanish = all(la.evaluate_at_point(q, g, ginv) == 0 for q in qs)
                brute = stab.point_stabilizes(F5, P, 2, g, ginv, [list(r) for r in A])
                assert vanish == brute


def _gl2_f5_points():
    import itertools

    pts = []
    for entries in itertools.product(range(5), repeat=4):
        g = [[entries[0], entries[1]], [entries[2], entries[3]]]
        if fm.rank(F5, g) == 2:
            pts.append((g, fm.inverse(F5, g)))
    return pts


def _random_subspace(rng, field, s):
    while True:
        r = rng.randint(1, s - 1) if s > 1 else 1
        A = [[field.of(rng.randint(0, 4)) for _ in range(r)] for _ in range(s)]
        red, piv = fm.rref(field, fm.transpose(A))
        if len(piv) == r:
            return tuple(tuple(row) for row in A), tuple(c + 1 for c in piv)


def test_is_stable_weight_path():
    b = dr.irreducible(Z, [Z.element([1]), Z.element([2])])
    X = stab.parse_shape("X")
    # single weight coordinate: stable
    assert stab.is_stable(QQ, b, X, [[1], [0]])
    # mixing distinct weights: not stable
    assert not stab.is_stable(QQ, b, X, [[1], [1]])
    # the whole space is stable
    assert stab.is_stable(QQ, b, X, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        stab.is_stable(QQ, b, X, [[1, 2], [2, 4]])  # dependent columns


def test_is_stable_agrees_with_point_stabilizers():
    """Weight-path stability equals vanishing on all image points."""
    rng = random.Random(23)
    Z4 = ab.parse_group("Z/4")
    weights = [Z4.element([1]), Z4.element([2])]
    b = dr.irreducible(Z4, weights)
    pts = la.image_points(F5, Z4, weights)
    for text in ("X", "X+Y", "X*Y"):
        P = stab.parse_shape(text)
        s = P.dimension(2)
        for _ in range(8):
            A, _ = _random_subspace(rng, F5, s)
            A_list = [list(r) for r in A]
            stable = stab.is_stable(F5, b, P, A_list)
            brute = all(
                stab.point_stabilizes(F5, P, 2, g, ginv, A_list) for g, ginv in pts
            )
            assert stable == brute


def test_is_stable_general_route_via_membership():
    """Without weight data on the object, stability goes through the
    stabilizer polynomials and capped ideal membership."""
    cat = la.catalog(QQ)
    torus = cat["diagonal-torus-gl2"]
    X = stab.parse_shape("X")
    b = dr.irreducible(Z, [Z.element([1]), Z.element([2])])
    assert stab.is_stable(QQ, b, X, [[1], [0]], presentation=torus) is True
    assert stab.is_stable(QQ, b, X, [[1], [1]], presentation=torus) is False

    # a weight-0 mixing subspace of V (x) V* is stable under diag(t, t^2)
    tt2 = cat["torus-t-t2-gl2"]
    XY = stab.parse_shape("X*Y")
    A = [[1], [0], [0], [1]]  # span{v1 (x) v1* + v2 (x) v2*}
    assert stab.is_stable(QQ, b, XY, A, presentation=tt2) is True
    # but mixing weight classes is not
    A2 = [[1], [1], [0], [0]]
    assert stab.is_stable(QQ, b, XY, A2, presentation=tt2) is False
    # both answers agree with the weight fast path for this object
    assert stab.is_stable(QQ, b, XY, A) is True
    assert stab.is_stable(QQ, b, XY, A2) is False


def test_group_le_d():
    cat = la.catalog(QQ)
    # degree 0 cuts out the whole group: no generators
    pres, trunc = stab.group_le_d(cat["mu2"], 0, 4)
    assert pres.ideal.generators == ()

    # mu2 at degree 1 is the full group: mutual membership
    pres1, _ = stab.group_le_d(cat["mu2"], 1, 4)
    for g in cat["mu2"].ideal.generators:
        assert la.ideal_membership_ascending(g, pres1.ideal, 3).is_member
    for g in pres1.ideal.generators:
        assert la.ideal_membership_ascending(g, cat["mu2"].ideal, 3).is_member

    # diag(t, t^2) at degree 1 is the diagonal torus: off-diagonals only
    presd, truncd = stab.group_le_d(cat["torus-t-t2-gl2"], 1, 4)
    texts = sorted(la.format_element(g) for g in presd.ideal.generators)
    assert texts == ["W[1,2]", "W[2,1]", "Z[1,2]", "Z[2,1]"]
    torus = la.catalog(QQ)["diagonal-torus-gl2"]
    for g in torus.ideal.generators:
        assert la.ideal_membership_ascending(g, presd.ideal, 2).is_member


def test_defining_degrees_catalog():
    cat = la.catalog(QQ)
    expected = {
        "trivial-gl1": 1,
        "mu2": 1,
        "mu3": 2,
        "mu5": 3,
        "gm-gl1": 0,
        "torus-t-t2-gl2": 2,
    }
    for name, want in expected.items():
        res = stab.defining_degree(cat[name], 4, 6)
        assert res.status == "found" and res.degree == want, name
        assert res.witness_ok()
        assert res.minimality_certified


@pytest.mark.parametrize("p", [None, 5, 101])
def test_catalog_minimality_is_certified(p):
    """At d_max 3 and cap 4 every catalog group has its minimality
    certified: each smaller degree refuted by a point. Over F_101 the GL_2
    groups need the stream's off-diagonal tail for d = 0. The one exception
    is mu4 over F_5, which is all of GL_1(F_5) (x^4 = 1 on every unit), so
    no F_5-point can refute its smaller degrees."""
    for name, G in la.catalog(ExactField(p)).items():
        res = stab.defining_degree(G, 3, 4)
        assert res.status == "found" and res.witness_ok(), name
        if (p, name) == (5, "mu4"):
            assert not res.minimality_certified
            assert all(r.point is None for r in res.refutations)
        else:
            assert res.minimality_certified, name
            assert len(res.refutations) == res.degree, name


def test_defining_degree_rejects_negative_dmax():
    with pytest.raises(ValueError):
        stab.defining_degree(la.catalog(QQ)["mu2"], -1, 4)


def test_defining_degree_generator_permutation_invariant():
    rng = random.Random(41)
    base = la.catalog(QQ)["torus-t-t2-gl2"]
    d0 = stab.defining_degree(base, 3, 5).degree
    for _ in range(3):
        gens = list(base.ideal.generators)
        rng.shuffle(gens)
        shuffled = la.SubgroupPresentation(
            base.field,
            base.n,
            la.LaurentIdeal(base.field, base.n, tuple(gens)),
            base.weights,
            base.name,
        )
        assert stab.defining_degree(shuffled, 3, 5).degree == d0


def test_degrees_equal():
    cat = la.catalog(QQ)
    assert stab.degrees_equal_check(cat["mu2"], 1, 5, 6).status == "equal"
    assert stab.degrees_equal_check(cat["torus-t-t2-gl2"], 1, 2, 4).status == "not_equal"
    assert stab.degrees_equal_check(cat["mu3"], 2, 2, 4).status == "equal"
    with pytest.raises(ValueError):
        stab.degrees_equal_check(cat["mu2"], 3, 1, 4)
    with pytest.raises(ValueError, match="d must be >= 0"):
        stab.degrees_equal_check(cat["mu2"], -1, 0, 4)


def _conjugated_group(field, name):
    """The catalog group moved by g = [[1,1],[0,1]] (`_conjugated`), with no
    weights: its generators are no binomials in the diagonal, so its ideal
    is no lattice ideal and its slices take the Macaulay route."""
    g = [[field.of(x) for x in row] for row in ([1, 1], [0, 1])]
    ginv = [[field.of(x) for x in row] for row in ([1, -1], [0, 1])]
    ideal = _conjugated(la.catalog(field)[name].ideal, g, ginv)
    assert ideal.lattice is None
    return la.SubgroupPresentation(field, ideal.n, ideal, None, "conjugated")


@pytest.mark.parametrize(
    "p, name, dmax, cap",
    [(101, "torus-t-t2-gl2", 2, 3), (None, "diagonal-torus-gl2", 1, 3)],
)
def test_general_path_degree_matches_dense_reference(monkeypatch, p, name, dmax, cap):
    """Defining degrees on the Macaulay path are the same through the sparse
    `echelon` core and through the dense reference loop."""
    moved = _conjugated_group(ExactField(p), name)
    sparse = repr(stab.defining_degree(moved, dmax, cap))
    monkeypatch.setattr(fm, "echelon", dense_echelon)
    assert repr(stab.defining_degree(moved, dmax, cap)) == sparse


@pytest.mark.parametrize("p", [101, None])
def test_general_path_torus_at_cap_6(p):
    res = stab.defining_degree(_conjugated_group(ExactField(p), "torus-t-t2-gl2"), 3, 6)
    assert res.status == "found" and res.degree == 2
    assert res.witness_ok() and not res.slices_exact


@pytest.mark.parametrize("p, cap", [(None, 3), (101, 4)])
def test_conjugated_catalog_groups_keep_their_degrees(p, cap):
    """Conjugation is an automorphism of k[Z, W] that keeps degrees, so the
    conjugated GL_2 catalog groups keep their defining degrees 2 and 1 on
    the Macaulay route."""
    for name, degree in (("torus-t-t2-gl2", 2), ("diagonal-torus-gl2", 1)):
        res = stab.defining_degree(_conjugated_group(ExactField(p), name), 3, cap)
        assert (res.status, res.degree) == ("found", degree), name
        assert res.witness_ok() and not res.slices_exact, name


def test_general_path_eliminates_once_per_call(monkeypatch):
    """`defining_degree` and `degrees_equal_check` read all their slices
    from one graded elimination, and a chain passed in is read again
    afterwards without a further elimination."""
    built = []
    graded = la.graded_truncation

    def counted(*args):
        built.append(args)
        return graded(*args)

    monkeypatch.setattr(la, "graded_truncation", counted)
    moved = _conjugated_group(ExactField(101), "torus-t-t2-gl2")
    res = stab.defining_degree(moved, 3, 4)
    assert res.degree == 2 and len(res.refutations) == 2 and len(built) == 1
    assert stab.degrees_equal_check(moved, 1, 2, 4).status == "unknown"
    assert len(built) == 2
    want = [la.truncated_ideal_part(moved.ideal, d, 4) for d in range(3)]
    chain = la.truncation_chain(moved, 4)
    res = stab.defining_degree(moved, 3, 4, chain)
    assert len(built) == 6
    monkeypatch.setattr(fm, "echelon", None)  # a further elimination raises
    assert [chain(d) for d in range(res.degree + 1)] == want


def test_stabilizer_polys_match_the_constant_polynomial_products(monkeypatch):
    """Scaling by field constants gives the polynomials of the lifted
    constant-polynomial products on every stability job of the
    `exact-queries` benchmark, seeds 1-3."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import jobs
    finally:
        sys.path.remove(perfbench)
    compared = []
    polys = stab.stabilizer_polys

    def checked(prob):
        got = polys(prob)
        assert got == reference_stabilizer_polys(prob), prob
        compared.append(prob)
        return got

    monkeypatch.setattr(stab, "stabilizer_polys", checked)
    for seed in (1, 2, 3):
        for job in jobs.exact_queries(random.Random(seed)):
            if job.id.startswith("stable:"):
                job.run()
    assert len(compared) == 192


def _stripped(G):
    """G without weights, its ideal rebuilt from the generators as a new
    `LaurentIdeal`, so it shares nothing that G's ideal built."""
    ideal = la.LaurentIdeal(G.field, G.n, G.ideal.generators)
    return la.SubgroupPresentation(G.field, G.n, ideal, None, "bare")


def test_weights_path_builds_a_slice_basis_only_when_read(monkeypatch):
    """A lattice-ideal chain reads its slices' generators without a basis;
    `basis` builds it on the first read, once, and it is the character
    slice. A weights presentation and its weight-stripped copy, a new
    `LaurentIdeal` of the same generators, build the same slices."""
    G = la.catalog(QQ)["torus-t-t2-gl2"]
    want = la.character_slice(QQ, G.weights, 2)
    built = []
    lattice_slice = la._lattice_slice

    def counted(I, d):
        built.append((I, d))
        return lattice_slice(I, d)

    monkeypatch.setattr(la, "_lattice_slice", counted)
    for H in (G, _stripped(G)):
        del built[:]
        assert stab.defining_degree(H, 3, 4).degree == 2
        chain = la.truncation_chain(H, 4)
        trunc = chain(2)
        assert built == []
        basis = trunc.basis
        assert len(built) == 1 and built[0][0] is H.ideal and built[0][1] == 2
        assert chain(2).basis is basis and basis == want
        assert len(built) == 1
        del built[:]
        assert stab.degrees_equal_check(H, 2, 3, 4).status == "equal"
        assert len(built) == 1 and built[0][0] is H.ideal and built[0][1] == 3


def _weights_files():
    groups = Path(__file__).resolve().parent / "data" / "groups"
    return sorted(groups.glob("weights-gl*.json"))


@pytest.mark.parametrize("p", [None, 2, 5, 101])
def test_weights_and_stripped_presentations_give_one_answer(p):
    """The slices come from the ideal, not from the weights: every catalog
    group and its weight-stripped copy, rebuilt from its generators as a new
    `LaurentIdeal`, have the same defining-degree result."""
    for name, G in la.catalog(ExactField(p)).items():
        want = repr(stab.defining_degree(G, 3, 4))
        assert repr(stab.defining_degree(_stripped(G), 3, 4)) == want, name


@pytest.mark.parametrize("path", _weights_files(), ids=lambda p: p.stem)
def test_weights_group_files_and_stripped_copies_give_one_answer(path):
    """The same for the six GL_3 and GL_4 group files with weights."""
    from diagcat import cli

    G = cli._load_group_file(str(path))
    assert G.weights is not None
    want = repr(stab.defining_degree(G, 3, 4))
    assert repr(stab.defining_degree(_stripped(G), 3, 4)) == want
