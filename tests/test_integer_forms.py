"""Integer forms: the product, the elimination, the norms and a*_r against running field sums.

Each kernel clears the denominators of a row, column or vector once and
works on plain integers; the references in ``dense_oracles`` add up field
values one at a time.  They must agree exactly, over Q and GF(p), on
negative and large denominators, zero entries, all-zero rows, rank-deficient
and inconsistent systems, and empty and one-column shapes.
"""
from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import (raw_matmul, scalar_dual_a, scalar_norm, scalar_rank,
                           scalar_solve_affine)
from lpkit.exactmath import GF, RATIONALS, Matrix, rank, solve_affine
from lpkit.instances import affine_transform, gen_krawtchouk, gen_random
from lpkit.system import Spectrum, TridiagonalSystem, _norm_and_dual_a, compute_spectrum, dual_a

_FIELDS = [RATIONALS, GF(2), GF(101), GF(2**61 - 1)]
_BIG = 10**30


def _values(field):
    """Field values: zero, large integers, and fractions with negative or large denominators."""
    raw = (st.just(0) | st.integers(-_BIG, _BIG) | st.fractions(max_denominator=50)
           | st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG) | st.integers(-_BIG, -1)))
    if field.is_prime_field:  # a Fraction whose denominator vanishes mod p has no image
        raw = raw.filter(lambda v: Fraction(v).denominator % field.modulus)
    return raw.map(field.scalar)


@st.composite
def _rows(draw, field, nrows, ncols):
    """Rows that are fresh, all zero, or a combination of two earlier rows (rank deficiency)."""
    values = _values(field)
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "combination")))
        if kind == "zero" or (kind == "combination" and not rows):
            rows.append([field.zero()] * ncols)
        elif kind == "combination":
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(values), draw(values)
            rows.append([s * a + t * b for a, b in zip(x, y)])
        else:
            rows.append([draw(values) for _ in range(ncols)])
    return rows


def _matrix(field, rows, ncols):
    return Matrix(field, len(rows), ncols, [x for row in rows for x in row])


@st.composite
def _products(draw):
    field = draw(st.sampled_from(_FIELDS))
    n, k, m = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return (_matrix(field, draw(_rows(field, n, k)), k),
            _matrix(field, [list(c) for c in zip(*draw(_rows(field, m, k)))] or [[]] * k, m))


@settings(max_examples=200, deadline=None)
@given(_products())
def test_product_matches_the_raw_sum_product(pair):
    x, y = pair
    product, expected = x @ y, raw_matmul(x, y)
    assert product == expected
    assert [type(e.value) for e in product.entries] == [type(e.value) for e in expected.entries]
    assert [str(e) for e in product.entries] == [str(e) for e in expected.entries]


@st.composite
def _systems(draw):
    """(M, b): b is M x for a drawn x (consistent) or drawn freely (often inconsistent)."""
    field = draw(st.sampled_from(_FIELDS))
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    rows = draw(_rows(field, nrows, ncols))
    m = _matrix(field, rows, ncols)
    values = _values(field)
    if draw(st.booleans()):
        x = Matrix(field, ncols, 1, [draw(values) for _ in range(ncols)])
        b = list(raw_matmul(m, x).entries)
    else:
        b = [draw(values) for _ in range(nrows)]
    return m, b


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_elimination_matches_the_scalar_elimination(system):
    m, b = system
    assert rank(m) == scalar_rank(m)
    got, expected = solve_affine(m, b), scalar_solve_affine(m, b)
    assert got == expected
    if got is not None:
        particular, basis = got
        assert [type(e.value) for e in particular] == [type(e.value) for e in expected[0]]
        assert [str(e) for vec in basis for e in vec] == [str(e) for vec in expected[1] for e in vec]


def test_elimination_shapes_and_inconsistency():
    for field in _FIELDS:
        zero, one = field.zero(), field.one()
        empty = Matrix(field, 0, 3, [])
        assert rank(empty) == 0 and solve_affine(empty, []) == scalar_solve_affine(empty, [])
        column = Matrix(field, 3, 1, [one, zero, one])
        assert rank(column) == 1
        assert solve_affine(column, [one, zero, one]) == ([one], [])
        assert solve_affine(column, [one, one, zero]) is None
        zeros = Matrix(field, 2, 2, [zero] * 4)
        assert rank(zeros) == 0 and solve_affine(zeros, [zero, one]) is None
        assert solve_affine(zeros, [zero, zero]) == scalar_solve_affine(zeros, [zero, zero])


def _rescaled(sys_, scales):
    """A diagonal similarity of A (b_h -> s_h b_h, c_{h+1} -> c_{h+1}/s_h): same spectrum, new K."""
    return TridiagonalSystem(sys_.d, sys_.a, tuple(s * x for s, x in zip(scales, sys_.b)),
                             tuple(x / s for s, x in zip(scales, sys_.c)), sys_.theta_star, sys_.field)


def _nonzero(field):
    return _values(field).filter(lambda x: not x.is_zero())


@st.composite
def _instances(draw):
    """Krawtchouk images over Q and GF(p) with rescaled K and free theta*, or random GF(p) pairs."""
    d = draw(st.integers(1, 8))
    if draw(st.booleans()):
        field = GF(draw(st.sampled_from((10007, 2**61 - 1))))
        sys_ = gen_random(d, field, draw(st.integers(0, 10**6)))
        return sys_, compute_spectrum(sys_)
    field = draw(st.sampled_from((RATIONALS, GF(10007), GF(2**61 - 1))))
    sys_, theta = gen_krawtchouk(d, field)
    u, v = draw(_nonzero(field)), draw(_values(field))
    sys_ = affine_transform(sys_, u, v, 1, 0)
    sys_ = _rescaled(sys_, [draw(_nonzero(field)) for _ in range(d)])
    theta_star = tuple(draw(_values(field)) for _ in range(d + 1))
    sys_ = TridiagonalSystem(d, sys_.a, sys_.b, sys_.c, theta_star, field)
    return sys_, compute_spectrum(sys_, theta_hint=[u * t + v for t in theta])


@settings(max_examples=80, deadline=None)
@given(_instances())
def test_norms_and_dual_a_match_the_running_sums(instance):
    sys_, spec = instance
    for i, v in enumerate(spec.v):
        assert spec.norm[i] == scalar_norm(spec.k, v)
        assert str(spec.norm[i]) == str(scalar_norm(spec.k, v))
    for r in range(sys_.d + 1):
        got, expected = dual_a(sys_, spec, r), scalar_dual_a(sys_, spec, r)
        assert got == expected and type(got.value) is type(expected.value) and str(got) == str(expected)


@st.composite
def _vectors(draw):
    """A Spectrum whose vectors, K and theta* are free field values, with zero entries and nonzero norms."""
    field = draw(st.sampled_from(_FIELDS))
    n = draw(st.integers(1, 5))
    k = [draw(_nonzero(field)) for _ in range(n)]
    vectors, norms = [], []
    for _ in range(n):
        v = [draw(_values(field)) for _ in range(n)]
        norm = scalar_norm(k, v)
        if not norm.is_zero():
            vectors.append(tuple(v))
            norms.append(norm)
    theta_star = tuple(draw(_values(field)) for _ in range(n))
    sys_ = TridiagonalSystem(n - 1, theta_star, (field.one(),) * (n - 1), (field.one(),) * (n - 1),
                             theta_star, field)
    theta = tuple(field.scalar(i) for i in range(len(vectors)))
    # a*_r from compute_spectrum's own kernel, on K and theta* cleared once
    k_form = field.cleared([x.value for x in k])
    ts_form = field.cleared([x.value for x in theta_star])
    astar = tuple(_norm_and_dual_a(field, k_form, ts_form, t, v)[1] for t, v in zip(theta, vectors))
    return sys_, Spectrum(theta, tuple(vectors), tuple(norms), tuple(k), theta_star, astar)


@settings(max_examples=60, deadline=None)
@given(_vectors())
def test_dual_a_on_free_vectors(instance):
    sys_, spec = instance
    for r in range(len(spec.v)):
        got, expected = dual_a(sys_, spec, r), scalar_dual_a(sys_, spec, r)
        assert got == expected and str(got) == str(expected)
