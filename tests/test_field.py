import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagcat import field as fm
from diagcat.field import ExactField, QQ, parse_field
from dense_reference import dense_rref


def mat_of(field, rows):
    return [[field.of(x) for x in row] for row in rows]


def mat_vec(field, a, v):
    """The product of matrix a and vector v."""
    out = []
    for row in a:
        acc = field.zero()
        for x, y in zip(row, v):
            acc = field.add(acc, field.mul(x, y))
        out.append(acc)
    return out


def test_parse_field():
    assert parse_field("Q") == QQ
    assert parse_field("F5").p == 5
    assert parse_field("GF(7)").p == 7
    with pytest.raises(ValueError):
        parse_field("F4")  # not prime
    with pytest.raises(ValueError):
        parse_field("R")


def test_rref_examples():
    ident = fm.identity(QQ, 3)
    r, piv = fm.rref(QQ, ident)
    assert r == ident and piv == [0, 1, 2]

    m = mat_of(QQ, [[1, 2], [2, 4]])
    r, piv = fm.rref(QQ, m)
    assert r == mat_of(QQ, [[1, 2], [0, 0]]) and piv == [0]

    # rank oracle via determinant: det = 1*2 - 1*1 = 1, nonzero mod 2
    F2 = ExactField(2)
    m = mat_of(F2, [[1, 1], [1, 2]])
    assert fm.det(F2, m) == 1
    assert fm.rank(F2, m) == 2


def test_kernel_examples():
    assert fm.kernel(QQ, fm.identity(QQ, 3)) == []
    assert len(fm.kernel(QQ, fm.zeros(QQ, 4, 4))) == 4
    basis = fm.kernel(QQ, mat_of(QQ, [[1, 2]]))
    assert len(basis) == 1
    x = basis[0]
    assert x[0] + 2 * x[1] == 0 and x != [0, 0]


def test_solve_examples():
    b = [QQ.of(3), QQ.of(-1)]
    assert fm.solve_linear(QQ, fm.identity(QQ, 2), b) == b

    sol = fm.solve_linear(QQ, mat_of(QQ, [[1, 1]]), [QQ.of(3)])
    assert sol is not None and sol[0] + sol[1] == 3

    assert fm.solve_linear(QQ, mat_of(QQ, [[0]]), [QQ.of(1)]) is None

    with pytest.raises(ValueError):
        fm.solve_linear(QQ, fm.identity(QQ, 2), [QQ.of(1)])


def _random_matrix(field, rng, rows, cols):
    return [[field.of(rng.randint(-5, 5)) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([None, 5, 2]))
def test_rref_idempotent_and_rank_nullity(seed, p):
    rng = random.Random(seed)
    field = ExactField(p)
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    m = _random_matrix(field, rng, rows, cols)
    r, piv = fm.rref(field, m)
    r2, piv2 = fm.rref(field, r)
    assert r == r2 and piv == piv2
    assert len(piv) + len(fm.kernel(field, m)) == cols
    for v in fm.kernel(field, m):
        assert all(x == field.zero() for x in mat_vec(field, m, v))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([None, 5, 3]))
def test_solve_substitutes_exactly(seed, p):
    rng = random.Random(seed)
    field = ExactField(p)
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    m = _random_matrix(field, rng, rows, cols)
    x = [field.of(rng.randint(-4, 4)) for _ in range(cols)]
    b = mat_vec(field, m, x)
    sol = fm.solve_linear(field, m, b)
    assert sol is not None
    assert mat_vec(field, m, sol) == b


def test_inverse_and_det():
    m = mat_of(QQ, [[2, 1], [1, 1]])
    inv = fm.inverse(QQ, m)
    assert fm.mat_mul(QQ, m, inv) == fm.identity(QQ, 2)
    assert fm.det(QQ, m) == Fraction(1)
    with pytest.raises(ValueError):
        fm.inverse(QQ, mat_of(QQ, [[1, 2], [2, 4]]))


def test_finite_field_ops():
    F7 = ExactField(7)
    assert F7.inv(3) == 5  # 3*5 = 15 = 1 mod 7
    assert F7.of(Fraction(1, 2)) == 4  # 2*4 = 1 mod 7
    g = F7.multiplicative_generator()
    assert sorted(pow(g, k, 7) for k in range(6)) == [1, 2, 3, 4, 5, 6]


def test_mat_mul_shape_mismatch_raises():
    a = mat_of(QQ, [[1, 2, 3]])
    b = mat_of(QQ, [[1], [2]])
    with pytest.raises(ValueError):
        fm.mat_mul(QQ, a, b)


@pytest.mark.parametrize("p", [5, None])
def test_kron_mixed_product(p):
    """(A (x) B)(C (x) D) = (AC) (x) (BD) for the shared kron and mat_mul."""
    field = ExactField(p)
    rng = random.Random(7)
    for _ in range(25):
        m, n, k, q, r, s = (rng.randint(1, 3) for _ in range(6))
        a = _random_matrix(field, rng, m, n)
        b = _random_matrix(field, rng, k, q)
        c = _random_matrix(field, rng, n, r)
        d = _random_matrix(field, rng, q, s)
        lhs = fm.mat_mul(field, fm.kron(field, [a, b]), fm.kron(field, [c, d]))
        rhs = fm.kron(field, [fm.mat_mul(field, a, c), fm.mat_mul(field, b, d)])
        assert lhs == rhs
    assert fm.kron(field, []) == [[field.one()]]


SPARSE_FIELDS = [ExactField(2), ExactField(5), ExactField(101), QQ]


@st.composite
def sparse_matrices(draw, fields=SPARSE_FIELDS):
    """(field, m): mostly-zero matrices, empty, zero-column and all-zero rows
    included; rational entries over Q."""
    field = draw(st.sampled_from(fields))
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    zero_weight = draw(st.sampled_from([1, 3, 8]))
    entry = st.sampled_from([0] * zero_weight + [1, -1, 2, 3, -7])
    den = st.sampled_from([1, 2, 3] if field.p is None else [1])
    m = [
        [field.of(Fraction(draw(entry), draw(den))) for _ in range(cols)]
        for _ in range(rows)
    ]
    return field, m


def _as_dict_rows(field, m):
    return [{j: x for j, x in enumerate(row) if x != field.zero()} for row in m]


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=str)
def test_rref_edge_shapes(field):
    z = field.zero()
    assert fm.rref(field, []) == ([], [])
    assert fm.rref(field, [[], []]) == ([[], []], [])
    assert fm.rref(field, [[z, z], [z, z]]) == ([[z, z], [z, z]], [])
    assert fm.echelon(field, []) == []
    assert fm.echelon(field, [{}, {}]) == []
    assert fm.kernel(field, [[z, z]]) == [[field.one(), z], [z, field.one()]]


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_rref_matches_dense_reference(case):
    field, m = case
    assert fm.rref(field, m) == dense_rref(field, m)


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_echelon_matches_rref(case):
    field, m = case
    red = fm.echelon(field, _as_dict_rows(field, m))
    r, piv = fm.rref(field, m)
    assert [c for c, _ in red] == piv
    assert [row for _, row in red] == _as_dict_rows(field, r[: len(piv)])
    for c, row in red:
        assert min(row) == c and row[c] == field.one()
        assert all(x != field.zero() for x in row.values())


@settings(max_examples=300, deadline=None)
@given(sparse_matrices(), st.booleans(), st.integers(0, 10**6))
def test_solve_linear_exact_or_inconsistent(case, consistent, seed):
    field, m = case
    rng = random.Random(seed)
    cols = len(m[0]) if m else 0
    if consistent:
        b = mat_vec(field, m, [field.of(rng.randint(-3, 3)) for _ in range(cols)])
    else:
        b = [field.of(rng.randint(-3, 3)) for _ in m]
    aug = [row + [x] for row, x in zip(m, b)]
    solvable = len(dense_rref(field, m)[1]) == len(dense_rref(field, aug)[1])
    sol = fm.solve_linear(field, m, b)
    assert (sol is not None) == solvable
    if sol is not None:
        assert len(sol) == cols and mat_vec(field, m, sol) == b


@settings(max_examples=150, deadline=None)
@given(sparse_matrices(fields=[QQ]))
def test_rref_matches_sympy_over_q(case):
    sympy = pytest.importorskip("sympy")
    _, m = case
    if not m or not m[0]:
        return
    red, piv = sympy.Matrix(m).rref()
    expected = [
        [Fraction(int(x.p), int(x.q)) for x in red.row(i)] for i in range(len(m))
    ]
    assert fm.rref(QQ, m) == (expected, list(piv))


def test_rational_results_stay_fractions_on_int_input():
    def fractions_only(xs):
        return all(type(x) is Fraction for x in xs)

    m = [[2, 1], [1, 1]]
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction
    assert fm.det(QQ, m) == 1 and type(fm.det(QQ, m)) is Fraction
    assert fm.inverse(QQ, m) == [[1, -1], [-1, 2]]
    assert fractions_only(x for row in fm.inverse(QQ, m) for x in row)
    r, _ = fm.rref(QQ, [[2, 1, 3], [4, 2, 5]])
    assert fractions_only(x for row in r for x in row)
    x = fm.solve_linear(QQ, [[3, 1], [1, 2]], [1, 1])
    assert x == [Fraction(1, 5), Fraction(2, 5)] and fractions_only(x)
    basis = fm.kernel(QQ, [[3, 1, 2]])
    assert len(basis) == 2 and fractions_only(x for v in basis for x in v)


@pytest.mark.parametrize("field", [ExactField(5), QQ], ids=str)
def test_limited_echelon_solves_each_right_hand_side(field):
    """Seeded systems A x = b_t with several right-hand sides after a pivot
    limit: the pivot rows left of the limit are A's reduced form, and each
    b_t gets the answer `solve_echelon` gives it alone, None included."""
    rng = random.Random(23)
    entries = [0, 0, 0, 1, -1, 2, 3] + ([Fraction(1, 2)] if field.p is None else [])
    answers = set()
    for _ in range(300):
        rows, cols = rng.randint(0, 7), rng.randint(1, 6)
        a = [[field.of(rng.choice(entries)) for _ in range(cols)] for _ in range(rows)]
        bs = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:  # consistent: b = A x
                x = [field.of(rng.choice(entries)) for _ in range(cols)]
                bs.append(mat_vec(field, a, x))
            else:
                bs.append([field.of(rng.choice(entries)) for _ in range(rows)])
        wide = _as_dict_rows(field, [row + [b[i] for b in bs] for i, row in enumerate(a)])
        red, residual = fm.echelon(field, wide, cols)
        left = [(c, {k: v for k, v in row.items() if k < cols}) for c, row in red]
        assert left == fm.echelon(field, _as_dict_rows(field, a))
        assert all(residual) and all(min(row) >= cols for row in residual)
        for t, b in enumerate(bs):
            alone = _as_dict_rows(field, [row + [b[i]] for i, row in enumerate(a)])
            want = fm.solve_echelon(field, fm.echelon(field, alone), cols)
            assert fm.solve_echelon(field, red, cols, cols + t, residual) == want
            answers.add(want is None)
    assert answers == {True, False}
