"""Scalars, polynomials, matrices, elimination, and the char-poly oracle."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import identity, matrix, naive_matmul
from lpkit.errors import DivisionByZero, FieldMismatch, ParseError, ShapeMismatch
from lpkit.exactmath import (GF, RATIONALS, Matrix, Poly, char_poly_oracle, poly_roots_in_field,
                             rank, solve_affine)
from lpkit.modular import divmod_residues
from root_oracles import poly_roots

GF7 = GF(7)
GF101 = GF(101)


def P(field, *coeffs):
    """Polynomial from integer coefficients, low degree first."""
    return Poly(field, [field.scalar(c) for c in coeffs])


def test_rational_arithmetic():
    half = RATIONALS.scalar(Fraction(1, 2))
    third = RATIONALS.scalar(Fraction(1, 3))
    assert (half + third).value == Fraction(5, 6)
    assert (half * third).value == Fraction(1, 6)
    assert (half - half).is_zero()


def test_prime_field_arithmetic():
    three, five = GF7.scalar(3), GF7.scalar(5)
    assert (three * five).value == 1
    assert (three + five).value == 1
    assert three.inverse().value == 5


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        RATIONALS.zero().inverse()
    with pytest.raises(DivisionByZero):
        GF7.scalar(5) / GF7.zero()


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatch):
        RATIONALS.one() + GF7.one()


def test_equal_fields_built_apart_mix():
    # the identity shortcut must not reject an equal FieldSpec that is another object
    first, second = GF(101), GF(101)
    assert first is not second
    x, y = first.scalar(40), second.scalar(40)
    assert (x + y).value == 80 and (y * x).value == 1600 % 101 and (x - y).is_zero()
    assert x == y and hash(x) == hash(y)
    assert x / y == first.one() and second.scalar(x) is x


def test_distinct_fields_never_mix():
    pairs = [(GF7.scalar(3), GF(11).scalar(3)), (RATIONALS.scalar(3), GF7.scalar(3)),
             (GF7.scalar(3), RATIONALS.scalar(3))]
    for x, y in pairs:
        for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
            with pytest.raises(FieldMismatch):
                op()
        assert x != y
    with pytest.raises(FieldMismatch):
        GF(11).scalar(GF7.scalar(3))


def test_parse_scalar_rejects_floats():
    for bad in ("0.5", "1e3", "2.0", ".7"):
        with pytest.raises(ParseError):
            RATIONALS.parse_scalar(bad)
    assert RATIONALS.parse_scalar("1/2").value == Fraction(1, 2)
    assert RATIONALS.parse_scalar("-7/3").value == Fraction(-7, 3)
    assert GF7.parse_scalar("-1").value == 6


def test_matrix_basics():
    x = matrix(RATIONALS, [[1, 2], [3, 4]])
    eye = identity(RATIONALS, 2)
    assert eye @ x == x
    diag = Matrix.diagonal(RATIONALS, [RATIONALS.scalar(v) for v in (2, 0, -2)])
    assert diag @ diag == matrix(RATIONALS, [[4, 0, 0], [0, 0, 0], [0, 0, 4]])


def test_matrix_shape_mismatch():
    x = matrix(RATIONALS, [[1, 2], [3, 4]])
    y = matrix(RATIONALS, [[1, 2, 3]])
    with pytest.raises(ShapeMismatch):
        x @ y


_FIELDS = [RATIONALS, GF(2), GF101, GF(2**61 - 1)]


@st.composite
def _products(draw):
    field = draw(st.sampled_from(_FIELDS))
    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))
    values = st.just(0) | st.integers(-10**20, 10**20) | st.fractions(max_denominator=50)
    if field.is_prime_field:  # a Fraction whose denominator vanishes mod p has no image
        values = values.filter(lambda v: Fraction(v).denominator % field.modulus)

    def entries(n, m):
        return Matrix(field, n, m, [field.scalar(v) for v in draw(st.lists(values, min_size=n * m,
                                                                             max_size=n * m))])

    return entries(rows, inner), entries(inner, cols)


@settings(max_examples=150, deadline=None)
@given(_products())
def test_matmul_matches_the_textbook_product(pair):
    # zero entries, empty and non-square shapes over Q and GF(p); exact values, exact types
    x, y = pair
    product, expected = x @ y, naive_matmul(x, y)
    assert product == expected
    assert [type(e.value) for e in product.entries] == [type(e.value) for e in expected.entries]
    assert [str(e) for e in product.entries] == [str(e) for e in expected.entries]
    if x.cols != x.rows:
        with pytest.raises(ShapeMismatch):
            x @ x
    other = GF7 if x.field != GF7 else RATIONALS
    with pytest.raises(FieldMismatch):
        x @ Matrix(other, y.rows, y.cols, [other.zero()] * (y.rows * y.cols))


def test_field_spec_compares_and_hashes_on_kind_and_modulus():
    # is_prime_field is derived once and stays out of ==, hash and repr
    assert GF(7) == GF7 and hash(GF7) == hash(("prime", 7)) and GF7 != RATIONALS
    assert GF7.is_prime_field and not RATIONALS.is_prime_field
    assert repr(GF7) == "FieldSpec(kind='prime', modulus=7)"


def test_k2_matrix_square():
    # hand-checked product of the d=2 positive-control tridiagonal matrix
    a = matrix(RATIONALS, [[0, 2, 0], [1, 0, 1], [0, 2, 0]])
    sq = matrix(RATIONALS, [[2, 0, 2], [0, 4, 0], [2, 0, 2]])
    assert a @ a == sq


def test_rank_examples():
    assert rank(matrix(RATIONALS, [[0] * 3] * 3)) == 0
    assert rank(identity(RATIONALS, 4)) == 4
    e0 = matrix(RATIONALS, [[Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]] * 3)
    assert rank(e0) == 1


def test_solve_affine_identity():
    eye = identity(RATIONALS, 3)
    v = [RATIONALS.scalar(k) for k in (1, 2, 3)]
    particular, null = solve_affine(eye, v)
    assert list(particular) == v
    assert null == []


def test_solve_affine_inconsistent():
    zero = matrix(RATIONALS, [[0] * 2] * 2)
    b = [RATIONALS.one(), RATIONALS.zero()]
    assert solve_affine(zero, b) is None


def test_solve_affine_two_by_two():
    # beta + gamma* = 2; -beta + gamma* = -2  =>  beta = 2, gamma* = 0
    m = matrix(RATIONALS, [[1, 1], [-1, 1]])
    b = [RATIONALS.scalar(2), RATIONALS.scalar(-2)]
    particular, null = solve_affine(m, b)
    assert [x.value for x in particular] == [2, 0]
    assert null == []


def test_char_poly_oracle_examples():
    diag = Matrix.diagonal(RATIONALS, [RATIONALS.scalar(v) for v in (2, 0, -2)])
    cp = char_poly_oracle(diag)
    assert cp == P(RATIONALS, 0, -4, 0, 1)
    single = matrix(RATIONALS, [[9]])
    assert char_poly_oracle(single) == P(RATIONALS, -9, 1)
    a = matrix(RATIONALS, [[0, 2, 0], [1, 0, 1], [0, 2, 0]])
    assert char_poly_oracle(a) == P(RATIONALS, 0, -4, 0, 1)


def test_char_poly_oracle_gf2():
    # the division-free algorithm must work over GF(2)
    gf2 = GF(2)
    a = matrix(gf2, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    assert char_poly_oracle(a) == P(gf2, 0, 0, 0, 1)


def test_poly_roots_rationals():
    cubic = P(RATIONALS, 0, -4, 0, 1)  # x^3 - 4x
    roots = poly_roots(cubic)
    assert [(r.value, m) for r, m in roots] == [(-2, 1), (0, 1), (2, 1)]
    assert poly_roots(P(RATIONALS, 1, 0, 1)) == []


def test_poly_roots_in_field_takes_coefficient_values():
    # ints and Fractions low degree first, reduced mod p; trailing zeros are trimmed, all zeros refused
    roots = poly_roots_in_field([Fraction(-4, 9), 0, 1, 0], RATIONALS)
    assert [(r.value, m) for r, m in roots] == [(Fraction(-2, 3), 1), (Fraction(2, 3), 1)]
    assert poly_roots_in_field([-1, 7, 1], GF7) == poly_roots(P(GF7, -1, 0, 1))  # x^2 - 1 mod 7
    for zero in ([], [0, 0]):
        with pytest.raises(ValueError, match="zero polynomial"):
            poly_roots_in_field(zero, RATIONALS)


def test_poly_roots_gf7():
    sq = P(GF7, -1, 0, 1)  # x^2 - 1
    roots = poly_roots(sq)
    assert sorted(r.value for r, _ in roots) == [1, 6]


def test_poly_division_and_deflation():
    p = [10, -7 % 101, 1]  # (x - 2)(x - 5) over GF(101), low degree first
    q, r = divmod_residues(p, [-2 % 101, 1], 101)
    assert r == []
    assert q == [-5 % 101, 1]


_rat = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


@settings(max_examples=60, deadline=None)
@given(_rat, _rat, _rat)
def test_field_axioms_rationals(x, y, z):
    a, b, c = (RATIONALS.scalar(v) for v in (x, y, z))
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == RATIONALS.zero()
    if not a.is_zero():
        assert a * a.inverse() == RATIONALS.one()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
def test_field_axioms_gf101(x, y, z):
    a, b, c = (GF101.scalar(v) for v in (x, y, z))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inverse() == GF101.one()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_rank_submultiplicative(seed):
    import random
    rng = random.Random(seed)
    x = matrix(GF101, [[rng.randrange(101) for _ in range(4)] for _ in range(4)])
    y = matrix(GF101, [[rng.randrange(101) for _ in range(4)] for _ in range(4)])
    assert rank(x @ y) <= min(rank(x), rank(y))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_char_poly_roots_vanish(seed):
    import random
    rng = random.Random(seed)
    n = rng.randrange(2, 7)
    m = matrix(GF101, [[rng.randrange(101) for _ in range(n)] for _ in range(n)])
    cp = char_poly_oracle(m)
    assert cp.coeffs[-1] == GF101.one() and cp.degree == n
    for root, mult in poly_roots(cp):
        assert cp(root).is_zero() and mult >= 1
