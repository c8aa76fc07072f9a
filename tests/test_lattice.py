"""The lattice verdict of a binomial presentation: `abelian.PartialCharacter`
and `laurent._lattice`, checked against the membership ladder, a sympy
Groebner oracle and hand cases, and the work it lets the ladder skip."""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from diagcat import abelian as ab
from diagcat import cli
from diagcat import field as fm
from diagcat import laurent as la
from diagcat import stab
from diagcat.field import QQ, ExactField
from test_laurent import _conjugated

F5, F101 = ExactField(5), ExactField(101)
ROOT = Path(__file__).resolve().parents[1]
GROUP_FILES = sorted((ROOT / "tests" / "data" / "groups").glob("*.json"))


# ---------------------------------------------------------------------------
# The type


def _in_lattice(basis, v) -> bool:
    """Is v an integer combination of the Hermite rows? (echelon: peel off
    each pivot in turn)"""
    v = list(v)
    for row in basis:
        c = next(j for j, a in enumerate(row) if a)
        if v[c] % row[c]:
            return False
        q = v[c] // row[c]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def _character_value(chi, l):
    """rho(l) for l in L, from the rows: rho is multiplicative."""
    k = chi.field
    x = k.one()
    l = list(l)
    for row, value in zip(chi.basis, chi.values):
        c = next(j for j, a in enumerate(row) if a)
        q = l[c] // row[c]
        l = [a - q * b for a, b in zip(l, row)]
        x = k.mul(x, k.pow(value, q))
    assert not any(l)
    return x


@pytest.mark.parametrize("field", [QQ, F5, F101], ids=str)
def test_reduce_gives_the_coset_representative_and_rho(field):
    rng = random.Random(5)
    cases = [
        {(2, -1): 1, (0, 3): 1},
        {(1, 1): 2, (2, -1): 3},
        {(4, 0, 2): 3, (0, 2, -2): 2, (2, 2, 0): 6},
        {(1,): 3},
        {(3,): 2},
    ]
    for rho in cases:
        rho = {u: field.of(x) for u, x in rho.items()}
        chi = ab.partial_character(field, rho)
        assert chi is not None
        assert [list(r) for r in chi.basis] == ab.row_hermite_basis(list(rho))
        # rho on the spanning vectors is the value given
        for u, x in rho.items():
            assert _character_value(chi, u) == x, (rho, u)
        n = len(next(iter(rho)))
        for _ in range(40):
            v = [rng.randint(-9, 9) for _ in range(n)]
            r, x = chi.reduce(v)
            l = [a - b for a, b in zip(v, r)]
            assert _in_lattice(chi.basis, l)
            assert x == _character_value(chi, l)
            assert chi.reduce(r) == (r, field.one())
            for row in chi.basis:
                c = next(j for j, a in enumerate(row) if a)
                assert 0 <= r[c] < row[c]
            # every vector of the coset has the same representative
            k = rng.randint(-2, 2)
            shift = [k * a for a in chi.basis[-1]]
            moved = [a + b for a, b in zip(v, shift)]
            r2, x2 = chi.reduce(moved)
            assert r2 == r
            assert x2 == field.mul(x, _character_value(chi, shift))


def test_partial_character_with_rho_not_one():
    # z - 2 over Q: L = Z, z^3 = 8 and z^-2 = 1/4
    chi = ab.partial_character(QQ, {(1,): Fraction(2)})
    assert chi.basis == ((1,),) and chi.values == (2,)
    assert chi.reduce([3]) == ((0,), 8)
    assert chi.reduce([-2]) == ((0,), Fraction(1, 4))
    # z^2 - 4 and z^3 - 8 span L = Z with rho(1) = 2
    chi = ab.partial_character(QQ, {(2,): Fraction(4), (3,): Fraction(8)})
    assert chi.basis == ((1,),) and chi.values == (2,)
    # over F_5, z1^2 - 3 and z2 - 4
    chi = ab.partial_character(F5, {(2, 0): 3, (0, 1): 4})
    assert chi.basis == ((2, 0), (0, 1)) and chi.values == (3, 4)
    assert chi.reduce([5, -1]) == ((1, 0), 3 * 3 * pow(4, -1, 5) % 5)


def test_partial_character_refuses_inconsistent_values():
    # z - 2 and z^2 - 3: 4 != 3, so the ideal holds 1
    assert ab.partial_character(QQ, {(1,): Fraction(2), (2,): Fraction(3)}) is None
    # the zero vector carries rho = 1 or nothing: z w - 2 is the unit 1 - 2
    assert ab.partial_character(F5, {(0, 0): 2}) is None
    chi = ab.partial_character(F5, {(0, 0): 1, (1, 1): 1})
    assert chi.basis == ((1, 1),) and chi.values == (1,)
    # a relation among the vectors must hold for the values too
    assert ab.partial_character(F5, {(1, 0): 2, (0, 1): 3, (1, 1): 2}) is None
    chi = ab.partial_character(F5, {(1, 0): 2, (0, 1): 3, (1, 1): 2 * 3 % 5})
    assert chi.basis == ((1, 0), (0, 1)) and chi.values == (2, 3)


# ---------------------------------------------------------------------------
# The recognizer


def _ideal(field, n, *texts):
    return la.LaurentIdeal(field, n, tuple(la.parse_element(field, n, t) for t in texts))


def _offdiag_texts(n):
    return [f"{v}[{i},{j}]" for i in range(1, n + 1) for j in range(1, n + 1) if i != j
            for v in "ZW"]


def test_recognizer_reads_the_catalog_as_lattice_ideals():
    for field in (QQ, F5, F101):
        for name, G in la.catalog(field).items():
            chi = la._lattice(G.ideal)
            assert chi is not None, (field, name)
    G = la.catalog(QQ)["torus-t-t2-gl2"]
    # Z[1,1]^2 - Z[2,2]: u = (2, -1), rho = 1
    assert la._lattice(G.ideal) == ab.PartialCharacter(QQ, ((2, -1),), (1,))
    # mu_4: Z^2 - W^2 is z^4 - 1
    assert la._lattice(la.catalog(F5)["mu4"].ideal).basis == ((4,),)


@pytest.mark.parametrize("field", [QQ, F101], ids=str)
def test_recognizer_declines_what_is_not_a_lattice_ideal(field):
    off = _offdiag_texts(2)
    torus = la.catalog(field)["torus-t-t2-gl2"].ideal
    one = field.one()
    g = [[one, one], [field.zero(), one]]
    ginv = [[one, field.neg(one)], [field.zero(), one]]
    declined = {
        # SO_2: not binomial, and its off-diagonal entries are not generators
        "SO_2": _ideal(field, 2, "Z[1,1] - Z[2,2]", "Z[1,2] + Z[2,1]",
                       "Z[1,1]^2 + Z[1,2]^2 - 1"),
        "conjugated torus": _conjugated(torus, g, ginv),
        "Z12*Z21 + Z11 - 1": _ideal(field, 2, "Z[1,2]*Z[2,1] + Z[1,1] - 1"),
        "d = 0 slice": stab.group_le_d(la.catalog(field)["diagonal-torus-gl2"], 0, 4)[0].ideal,
        "a monomial": _ideal(field, 2, *off, "Z[1,1]*Z[2,2]"),
        "a trinomial": _ideal(field, 2, *off, "Z[1,1]^2 - Z[2,2] + Z[1,1] - 1"),
        "inconsistent rho": _ideal(field, 1, "Z[1,1] - 2", "Z[1,1]^2 - 3"),
        "z w - 2": _ideal(field, 1, "Z[1,1]*W[1,1] - 2"),
        "a diagonal variable": _ideal(field, 2, *off, "Z[1,1]"),
        "an off-diagonal variable missing": _ideal(field, 2, *off[1:], "Z[1,1] - 1"),
    }
    assert declined["d = 0 slice"].generators == ()
    for name, I in declined.items():
        assert la._lattice(I) is None, name
    # the same shapes with their binomials are recognised
    assert la._lattice(_ideal(field, 2, *off, "Z[1,1]*Z[2,2] - 1")) is not None
    assert la._lattice(_ideal(field, 1, "Z[1,1] - 2", "Z[1,1]^2 - 4")) is not None


def test_ring_check_comes_before_any_verdict(monkeypatch):
    """A target outside the ideal's ring raises ValueError before a lattice
    is built or read, wherever the target stands."""
    calls = []
    monkeypatch.setattr(la, "_lattice", lambda I: calls.append(I))
    I = la.catalog(QQ)["torus-t-t2-gl2"].ideal
    member = la.parse_element(QQ, 2, "Z[1,1]^2 - Z[2,2]")
    for wrong in (la.z_var(QQ, 1, 0, 0), la.z_var(F101, 2, 0, 0)):
        for fs in ([wrong], [member, wrong]):
            with pytest.raises(ValueError):
                la.all_members(fs, I, 2)
            with pytest.raises(ValueError):
                la._capped_solves(fs, I, 0)
    assert calls == []


# ---------------------------------------------------------------------------
# Against the ladder and a Groebner basis


def _ladder_answers(monkeypatch, run):
    """(ideal, f, answer) of every target the ladder answered while `run`
    ran, with the lattice verdict switched off, so the ladder decides alone."""
    seen = []
    ladder = la.all_members

    def recording(fs, I, max_cap):
        witnesses, failure = ladder(fs, I, max_cap)
        seen.extend((I, f, res) for f, res in witnesses + ((failure,) if failure else ()))
        return witnesses, failure

    with monkeypatch.context() as m:
        m.setattr(la, "_lattice", lambda I: None)
        m.setattr(la, "all_members", recording)
        run()
    return seen


def _check_against_ladder(seen):
    """Member wherever the ladder found cofactors, no member wherever it
    found a refutation point; returns the counts of each."""
    members = refuted = 0
    for I, f, res in seen:
        chi = la._lattice(I)
        if chi is None:
            continue
        verdict = la._in_lattice_ideal(f, I.n, chi)
        if res.is_member:
            assert verdict, (I.name, la.format_element(f))
            members += 1
        elif res.refutation_point is not None:
            assert not verdict, (I.name, la.format_element(f))
            refuted += 1
    return members, refuted


def _bare(G):
    return la.SubgroupPresentation(G.field, G.n, G.ideal, None, G.name)


@pytest.mark.parametrize("field", [QQ, F5, F101], ids=str)
def test_verdict_agrees_with_the_ladder_on_the_catalog(monkeypatch, field):
    def run():
        for G in la.catalog(field).values():
            stab.defining_degree(G, 4, 4)
            stab.defining_degree(_bare(G), 3, 3 if G.n > 1 else 4)
            if G.n > 1:
                stab.degrees_equal_check(G, 1, 2, 4)

    members, refuted = _check_against_ladder(_ladder_answers(monkeypatch, run))
    assert members > 20 and refuted > 5


def test_verdict_agrees_with_the_ladder_on_the_group_files(monkeypatch):
    assert len(GROUP_FILES) == 10

    def run():
        for path in GROUP_FILES:
            G = cli._load_group_file(str(path))
            stab.defining_degree(G, 3, 4)

    members, refuted = _check_against_ladder(_ladder_answers(monkeypatch, run))
    assert members > 20 and refuted > 5


def test_verdict_agrees_with_the_ladder_on_the_benchmark_jobs(monkeypatch):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import jobs
    finally:
        sys.path.remove(str(ROOT / "perfbench"))

    def run():
        for workload in ("exact-queries", "degree-general"):
            for job in jobs.WORKLOADS[workload](random.Random(1)):
                job.run()

    seen = _ladder_answers(monkeypatch, run)
    recognised = {I for I, _, _ in seen if la._lattice(I) is not None}
    assert len(recognised) > 30
    members, refuted = _check_against_ladder(seen)
    assert members > 100 and refuted > 50


def _sympy_poly(sympy, gens, f):
    return sum(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[x**k for x, k in zip(gens, e)])
        if isinstance(c, Fraction)
        else c * sympy.Mul(*[x**k for x, k in zip(gens, e)])
        for e, c in f.terms
    )


def _groebner_member(sympy, I, f) -> bool:
    """f in I + relations by a Groebner basis in all 2n^2 variables."""
    gens = sympy.symbols(f"x0:{2 * I.n * I.n}")
    polys = [_sympy_poly(sympy, gens, g) for g in (*I.generators, *la.relation_generators(I.field, I.n))]
    opts = {"order": "grevlex"}
    if I.field.p is not None:
        opts["modulus"] = I.field.p
    basis = sympy.groebner(polys, *gens, **opts)
    return basis.contains(_sympy_poly(sympy, gens, f))


@pytest.mark.parametrize("field", [QQ, F5], ids=str)
def test_verdict_matches_a_groebner_basis(field):
    sympy = pytest.importorskip("sympy")
    off = _offdiag_texts(2)
    ideals = [
        la.catalog(field)["mu3"].ideal,
        _ideal(field, 1, "Z[1,1]^2 - 4"),  # the points 2 and -2
        _ideal(field, 1, "Z[1,1]^3 - 3*W[1,1]"),  # z^4 = 3
        la.catalog(field)["torus-t-t2-gl2"].ideal,
        _ideal(field, 2, *off, "Z[1,1]*Z[2,2] - 2", "Z[1,1]^2 - 3*Z[2,2]"),
        _ideal(field, 2, *off, "Z[1,1]^2 - 4*W[2,2]^2"),
    ]
    texts = {
        1: ["Z[1,1] - 1", "Z[1,1]^2 - 4", "Z[1,1]^4 - 9", "Z[1,1]^6 - 2*Z[1,1]^3 + 1",
            "Z[1,1]^5 - 3*Z[1,1]^2", "W[1,1]^2 - 1", "Z[1,1]^4*W[1,1] - 3"],
        2: ["Z[1,1]^2 - Z[2,2]", "Z[1,1]^3*Z[2,2] - 2*Z[1,1]^2", "Z[1,1]*Z[2,2] - 2",
            "Z[1,1]^4 - 9*W[2,2]^2", "Z[1,2] + Z[1,1]^2 - Z[2,2]", "Z[1,1] - 1",
            "Z[1,1]^2*W[2,2] - 1", "Z[1,1]^3 - 6*W[1,1]*Z[2,2]"],
    }
    outcomes = set()
    for I in ideals:
        chi = la._lattice(I)
        assert chi is not None, I.generators
        for text in texts[I.n]:
            f = la.parse_element(field, I.n, text)
            want = _groebner_member(sympy, I, f)
            assert la._in_lattice_ideal(f, I.n, chi) == want, (I.generators, text)
            outcomes.add(want)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# The work it skips


def _counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("field", [QQ, F101], ids=str)
def test_a_lone_non_member_builds_no_elimination(monkeypatch, field):
    """A target that the lattice shows no member is solved at no cap, even
    when no point refutes it, and the answer stays the ladder's."""
    I = la.catalog(field)["torus-t-t2-gl2"].ideal
    f = la.parse_element(field, 2, "Z[1,1]^3 - Z[2,2]")
    monkeypatch.setattr(la, "find_refutation_point", lambda *args: None)
    solves = _counting(monkeypatch, la, "_solve_cofactors")
    echelons = _counting(monkeypatch, fm, "echelon")
    res = la.ideal_membership_ascending(f, I, 4)
    assert res == la.MembershipResult("not_member_up_to", 4)
    assert la._capped_solves([f, la.lau_zero(field, 2)], I, 2) == [None, ()]
    assert solves == [] and echelons == []
    # next to a member, the member alone is solved
    member = la.parse_element(field, 2, "Z[1,1]^3 - Z[1,1]*Z[2,2]")
    assert la._capped_solves([f, member], I, 1)[0] is None
    assert len(solves) == 1 and solves[0][2] == [la._eliminate(member, la._reduction(I)[1])]


@pytest.mark.parametrize("field", [QQ, F101], ids=str)
def test_a_lattice_member_is_never_scanned(monkeypatch, field):
    """The cap-0 scan skips a member that cap 0 did not solve; a non-member
    is still scanned and refuted."""
    I = la.catalog(field)["torus-t-t2-gl2"].ideal
    cap1 = la.parse_element(field, 2, "Z[1,1]^3 - Z[1,1]*Z[2,2]")
    refuted = la.parse_element(field, 2, "Z[1,1] - 1")
    scans = _counting(monkeypatch, la, "find_refutation_point")
    res = la.ideal_membership_ascending(cap1, I, 3)
    assert res.is_member and res.cap == 1 and scans == []
    witnesses, (f, res) = la.all_members([cap1, refuted, cap1], I, 3)
    assert [w.cap for _, w in witnesses] == [1] and f is refuted and res.definitive
    assert [args[0] for args in scans] == [refuted]
