"""Acceptance suite: one test per criterion, exact tolerances, one summary
line per criterion printed on success (run with `pytest -v -s`).

All equality assertions are exact (integer/rational/mod-p arithmetic); the
only numeric thresholds are the stated runtime budgets.
"""

import itertools
import random
import time

from diagcat import abelian as ab
from diagcat import axioms as ax
from diagcat import diagrep as dr
from diagcat import field as fm
from diagcat import laurent as la
from diagcat import paren as pr
from diagcat import stab
from diagcat.field import ExactField, QQ

F5 = ExactField(5)
F7 = ExactField(7)

WORKED_PATTERN = "((( _ _ _ )( _ ))( _ _ ))"
WORKED_BITS = "10 10 10 00 00 00 01 10 00 01 01 10 00 00 01 01"


def _report(k, elapsed, text):
    print(f"[criterion {k:2d}] PASS ({elapsed:.2f}s): {text}")


def test_criterion_01_parenthesization_counts():
    t0 = time.time()

    def catalan_oracle(n):
        cs = [1]
        for k in range(1, n + 1):
            cs.append(sum(cs[i] * cs[k - 1 - i] for i in range(k)))
        return cs[n]

    expected = [1, 1, 2, 5, 14, 42]
    got = [len(pr.enumerate_shapes(m)) for m in range(1, 7)]
    assert got == expected
    assert got == [catalan_oracle(m - 1) for m in range(1, 7)]
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, elapsed, f"shape counts {got} match the recursive oracle")


def test_criterion_02_codec_fidelity():
    t0 = time.time()
    decoded = pr.decode_pattern(WORKED_BITS)
    assert pr.format_pattern(decoded) == "(((_ _ _)(_))(_ _))"
    assert pr.format_bits(pr.encode_pattern(decoded)) == WORKED_BITS

    rng = random.Random(20260808)
    trips = 0
    for _ in range(1000):
        groups = rng.randint(1, 6)
        shape = rng.choice(pr.enumerate_shapes(groups))
        slots = tuple(rng.randint(1, 6) for _ in range(groups))
        pattern = pr.SlotPattern(shape, slots)
        code = pr.encode_pattern(pattern)
        assert pr.decode_pattern(code) == pattern
        padded = pr.encode_pattern(pattern, len(code) + 2 * rng.randint(0, 3))
        assert pr.decode_pattern(padded) == pattern
        trips += 1
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(2, elapsed, f"worked 16-block code exact; {trips} seeded round trips")


def test_criterion_03_axiom_checker_and_mutations():
    t0 = time.time()
    Z4 = ab.parse_group("Z/4")
    report = ax.check_axioms(F5, Z4, ax.bounds(3, 2))
    assert report.passed == 27
    assert len(report.skipped) == 0

    mutation_bound = ax.bounds(2, 2)
    flipped = []
    for name, mut in ax.MUTATIONS.items():
        model = ax.mutated_model(F5, Z4, mutation_bound, name)
        mreport = ax.check_axioms(F5, Z4, mutation_bound, model)
        failed = sorted(r.index for r in mreport.failed)
        assert failed == [mut.axiom], (name, failed)
        flipped.append(mut.axiom)
    assert len(flipped) >= 10 and len(set(flipped)) == len(flipped)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(
        3,
        elapsed,
        f"27/27 pass at N=3, M=2 (0 skipped); {len(flipped)} mutations "
        "each flip exactly their axiom",
    )


def test_criterion_04_character_group_extraction():
    t0 = time.time()
    for text in ["Z/2", "Z/6", "Z/2 + Z/4"]:
        group = ab.parse_group(text)
        check = dr.character_group_check(group, group.elements())
        assert check.ok, (text, check.failures)
    Z = ab.parse_group("Z")
    bounded = [Z.element([k]) for k in range(-3, 4)]
    check = dr.character_group_check(Z, bounded)
    assert check.ok
    elapsed = time.time() - t0
    _report(
        4,
        elapsed,
        "extracted tables match Z/2, Z/6, Z/2+Z/4 exactly and Z on |k| <= 3",
    )


def test_criterion_05_hom_dimension_formula():
    t0 = time.time()
    Z6 = ab.parse_group("Z/6")
    chars = dr.all_characters(F7, Z6)
    assert len(chars) == 6  # all points of the diagonalizable group over F7
    rng = random.Random(55)
    elems = [Z6.element([k]) for k in range(6)]

    def random_object():
        leaves = [
            dr.irreducible(Z6, rng.choices(elems, k=rng.randint(1, 3)))
            for _ in range(rng.randint(1, 2))
        ]
        obj = leaves[0]
        for leaf in leaves[1:]:
            obj = dr.tensor_obj(obj, leaf)
        return obj

    pairs = 0
    for _ in range(200):
        src, tgt = random_object(), random_object()
        brute = 0
        for wi in dr.basis_weights(tgt):
            for wj in dr.basis_weights(src):
                if all(chi.value(wi) == chi.value(wj) for chi in chars):
                    brute += 1
        assert dr.hom_dimension(src, tgt) == brute
        pairs += 1
    elapsed = time.time() - t0
    _report(5, elapsed, f"{pairs} pairs: blockwise dimension == equivariant count")


def test_criterion_06_duality_and_biproducts():
    t0 = time.time()
    Z4 = ab.parse_group("Z/4")
    objects = list(dr.enumerate_objects(Z4, 3, 2))
    snakes = 0
    for field in (F5, QQ):
        for b in objects:
            s1, s2 = dr.snake_composites(field, b, dr.dual_data(field, b))
            assert s1 == dr.identity_morphism(field, b)
            assert s2 == dr.identity_morphism(field, dr.dual_data(field, b).dual)
            snakes += 1

    # the biproduct data is a function of the two basis weight sequences, so
    # one representative pair per sequence pair covers every object pair
    by_seq = {}
    for b in objects:
        by_seq.setdefault(dr.basis_weights(b), b)
    reps = list(by_seq.values())
    checked = 0
    for field in (F5, QQ):
        for b in reps:
            for c in reps:
                data = dr.direct_sum_data(field, b, c)
                idd = dr.identity_morphism(field, data.total)
                assert (
                    dr.add_morphisms(
                        dr.compose(data.inj1, data.proj1),
                        dr.compose(data.inj2, data.proj2),
                    )
                    == idd
                )
                assert dr.compose(data.proj1, data.inj1) == dr.identity_morphism(
                    field, b
                )
                assert dr.compose(data.proj2, data.inj2) == dr.identity_morphism(
                    field, c
                )
                assert dr.compose(data.proj2, data.inj1).is_zero_morphism()
                assert dr.compose(data.proj1, data.inj2).is_zero_morphism()
                checked += 1
    elapsed = time.time() - t0
    _report(
        6,
        elapsed,
        f"{snakes} snake identities and {checked} biproduct pairs "
        f"(all {len(objects)} objects of dim <= 3, len <= 2, over F5 and Q)",
    )


def test_criterion_07_coalgebra_and_hopf():
    t0 = time.time()
    from diagcat import sparsepoly as sp

    monomials = 0
    for n in (1, 2):
        for d in (0, 1, 2):
            for exps in sp.monomials_up_to(2 * n * n, d):
                d2 = la.comultiply(la.lau_monomial(QQ, n, exps))
                m = 2 * n * n  # the left factor's variables, then the right's
                dl = max(sum(e[:m]) for e, _ in d2.terms)
                dright = max(sum(e[m:]) for e, _ in d2.terms)
                assert dl <= d and dright <= d
                monomials += 1

    witnesses = 0
    for name, pres in la.catalog(QQ).items():
        for d in (1, 2):
            trunc = la.truncation_chain(pres, d + 2)(d)
            ideal = la.LaurentIdeal(pres.field, pres.n, trunc.generators)
            for f in trunc.basis:
                sf = la.antipode(f)
                res = la.ideal_membership_ascending(sf, ideal, 4)
                assert res.is_member, (name, d, la.format_element(f))
                assert la.verify_membership_witness(sf, res)
                witnesses += 1
    elapsed = time.time() - t0
    _report(
        7,
        elapsed,
        f"comultiplication filtered on {monomials} spanning monomials; "
        f"antipode stability certified by {witnesses} membership witnesses",
    )


def _gl2_f5_points():
    pts = []
    for entries in itertools.product(range(5), repeat=4):
        g = [[entries[0], entries[1]], [entries[2], entries[3]]]
        if fm.rank(F5, g) == 2:
            pts.append((g, fm.inverse(F5, g)))
    return pts


def test_criterion_08_stabilizer_polynomials():
    t0 = time.time()
    points = _gl2_f5_points()
    assert len(points) == 480
    rng = random.Random(88)
    total = 0
    for text in ("X", "X+Y", "X*Y"):
        P = stab.parse_shape(text)
        s = P.dimension(2)
        action = [stab.point_action_matrix(F5, P, 2, g, ginv) for g, ginv in points]
        for _ in range(50):
            while True:
                r = rng.randint(1, s - 1) if s > 1 else 1
                A = [[rng.randint(0, 4) for _ in range(r)] for _ in range(s)]
                red, piv = fm.rref(F5, fm.transpose(A))
                if len(piv) == r:
                    break
            prob = stab.StabilizerProblem(
                P, 2, tuple(c + 1 for c in piv), tuple(tuple(row) for row in A), F5
            )
            qs = stab.stabilizer_polys(prob)
            base_rank = r
            for (g, ginv), M in zip(points, action):
                vanish = all(la.evaluate_at_point(q, g, ginv) == F5.zero() for q in qs)
                MA = fm.mat_mul(F5, M, A)
                joint = [ra + rm for ra, rm in zip(A, MA)]
                brute = fm.rank(F5, joint) == base_rank
                assert vanish == brute
            total += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(
        8,
        elapsed,
        f"{total} subspaces x 480 points of GL2(F5): polynomial vanishing "
        "equals the brute-force stabilizer",
    )


def test_criterion_09_defining_degrees():
    t0 = time.time()
    cat = la.catalog(QQ)
    expected = {
        "trivial-gl1": 1,
        "mu2": 1,
        "mu3": 2,
        "mu5": 3,
        "torus-t-t2-gl2": 2,
    }
    for name, want in expected.items():
        pres = cat[name]
        res = stab.defining_degree(pres, 4, 6)
        assert res.status == "found" and res.degree == want, name
        assert res.witness_ok()  # cofactors re-expand to the generators
        assert res.minimality_certified  # smaller degrees refuted by points
        # two-way inclusion at the winning degree, both sides witnessed
        pres_d, _ = stab.group_le_d(pres, res.degree, 6)
        for g in pres.ideal.generators:
            r = la.ideal_membership_ascending(g, pres_d.ideal, 6)
            assert r.is_member and la.verify_membership_witness(g, r)
        for g in pres_d.ideal.generators:
            r = la.ideal_membership_ascending(g, pres.ideal, 6)
            assert r.is_member and la.verify_membership_witness(g, r)
    # mu_p follows the ceil(p/2) pattern
    for name, p in (("mu2", 2), ("mu3", 3), ("mu5", 5)):
        assert expected[name] == (p + 1) // 2

    # degree 1 for diag(t, t^2) yields exactly the diagonal torus
    pres1, _ = stab.group_le_d(cat["torus-t-t2-gl2"], 1, 4)
    torus = cat["diagonal-torus-gl2"]
    for g in torus.ideal.generators:
        r = la.ideal_membership_ascending(g, pres1.ideal, 3)
        assert r.is_member and la.verify_membership_witness(g, r)
    for g in pres1.ideal.generators:
        r = la.ideal_membership_ascending(g, torus.ideal, 3)
        assert r.is_member and la.verify_membership_witness(g, r)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(
        9,
        elapsed,
        "catalog degrees 1/1/2/3/2 with expandable two-way witnesses; "
        "degree-1 truncation of diag(t,t^2) is the diagonal torus",
    )


def test_criterion_10_truncation_chain():
    t0 = time.time()
    cat = la.catalog(QQ)
    certified = 0
    for name, pres in cat.items():
        res = stab.defining_degree(pres, 4, 6)
        assert res.status == "found", name
        dstar = res.degree
        previous = None
        for d in range(dstar + 1):
            trunc = la.truncation_chain(pres, 6)(d)
            ideal_d = la.LaurentIdeal(pres.field, pres.n, trunc.generators)
            if previous is not None:
                # ascending chain of ideals, certified by witnesses
                for g in previous:
                    r = la.ideal_membership_ascending(g, ideal_d, 5)
                    assert r.is_member and la.verify_membership_witness(g, r), (
                        name,
                        d,
                        la.format_element(g),
                    )
                    certified += 1
            previous = trunc.generators
        # the chain stabilizes at the presented ideal by degree d*
        final = la.LaurentIdeal(pres.field, pres.n, previous)
        for g in pres.ideal.generators:
            r = la.ideal_membership_ascending(g, final, 6)
            assert r.is_member and la.verify_membership_witness(g, r)
            certified += 1
        for g in previous:
            r = la.ideal_membership_ascending(g, pres.ideal, 6)
            assert r.is_member and la.verify_membership_witness(g, r)
            certified += 1
    elapsed = time.time() - t0
    _report(
        10,
        elapsed,
        f"nested truncation ideals for all {len(cat)} catalog groups, "
        f"{certified} memberships certified by expandable witnesses",
    )


def test_criterion_11_truncation_groups_on_points():
    t0 = time.time()
    Z4 = ab.parse_group("Z/4")
    weights = [Z4.element([1])]
    pres = la.diagonalizable_image_ideal(F5, weights, "mu4")
    b = dr.irreducible(Z4, weights)
    for d in (1, 2):
        trunc = la.truncation_chain(pres, d + 2)(d)
        cut_points = set()
        for u in F5.units():
            point = ([[u]], [[F5.inv(u)]])
            if all(
                la.evaluate_at_point(g, *point) == F5.zero()
                for g in trunc.generators
            ):
                cut_points.add(u)

        P = stab.pd_polynomial(1, d)
        labels = stab.canonical_basis(P, 1)
        wts = [stab.label_weight(lab, weights) for lab in labels]
        classes: dict = {}
        for idx, w in enumerate(wts):
            classes.setdefault(w.coords, []).append(idx)
        stab_points = set()
        s = len(labels)
        for u in F5.units():
            point = ([[u]], [[F5.inv(u)]])
            ok = True
            for k in range(1, len(classes) + 1):
                for subset in itertools.combinations(sorted(classes), k):
                    cols = [i for cls in subset for i in classes[cls]]
                    A = [
                        [F5.one() if i == c else F5.zero() for c in cols]
                        for i in range(s)
                    ]
                    if not stab.point_stabilizes(F5, P, 1, *point, A):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                stab_points.add(u)
        assert cut_points == stab_points, (d, cut_points, stab_points)
    elapsed = time.time() - t0
    _report(
        11,
        elapsed,
        "mu4 <= GL1 over F5: truncation-group points equal the stabilizer "
        "characterization for d = 1, 2 (exhaustive over F5)",
    )
