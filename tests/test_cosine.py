"""Polynomial sequences, cosines, rescaling, and row-sum propositions."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import char_poly, monic_polys, scale
from lpkit.cosine import (constant_row_sum, cosine_sequence, rebase_to_row_sum, rescale_superdiagonal,
                          u_polys)
from lpkit.errors import CosineVanishes, NotAnEigenvalue, ZeroTarget
from lpkit.exactmath import GF, RATIONALS, Matrix, Poly
from lpkit.instances import gen_random
from lpkit.system import make_system, realize_matrices

GF101 = GF(101)


def P(field, *coeffs):
    return Poly(field, [field.scalar(c) for c in coeffs])


def _k2():
    return make_system(RATIONALS, [0, 0, 0], [2, 1], [1, 2], [2, 0, -2])


def test_u_polys_k3(k3):
    sys_, _ = k3
    u = u_polys(sys_)
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    assert u[0] == P(RATIONALS, 1)
    assert u[1] == P(RATIONALS, 0, third)
    assert u[2] == P(RATIONALS, -Fraction(1, 2), 0, sixth)
    assert u[3] == P(RATIONALS, 0, -Fraction(7, 6), 0, sixth)
    assert u[4] == P(RATIONALS, 9, 0, -10, 0, 1)


def test_u_polys_small():
    sys_ = make_system(RATIONALS, [0, 0], [1], [1], [1, -1])
    u = u_polys(sys_)
    assert u[1] == P(RATIONALS, 0, 1)
    assert u[2] == P(RATIONALS, -1, 0, 1)


def test_p_polys_k3(k3):
    sys_, _ = k3
    p, u = monic_polys(sys_), u_polys(sys_)
    assert p[1] == P(RATIONALS, 0, 1)
    assert p[2] == P(RATIONALS, -3, 0, 1)
    # p_i = u_i b_0...b_{i-1} is monic, and both sequences end in the same polynomial
    b_prod = RATIONALS.one()
    for i in range(sys_.d + 1):
        assert p[i] == u[i] * b_prod and p[i].coeffs[-1] == RATIONALS.one()
        b_prod = b_prod * sys_.sup(i)
    assert p[sys_.d + 1] == u[sys_.d + 1]


def test_char_poly_examples(k3):
    assert char_poly(_k2()) == P(RATIONALS, 0, -4, 0, 1)
    assert char_poly(k3[0]) == P(RATIONALS, 9, 0, -10, 0, 1)
    small = make_system(RATIONALS, [5, 7], [1], [1], [0, 1])
    assert char_poly(small) == P(RATIONALS, 34, -12, 1)


def test_cosine_sequences_k3(k3):
    sys_, _ = k3
    ones = cosine_sequence(sys_, RATIONALS.scalar(3))
    assert [x.value for x in ones] == [1, 1, 1, 1]
    at_one = cosine_sequence(sys_, RATIONALS.scalar(1))
    assert [x.value for x in at_one] == [1, Fraction(1, 3), Fraction(-1, 3), -1]


def test_cosine_rejects_non_eigenvalue():
    with pytest.raises(NotAnEigenvalue):
        cosine_sequence(_k2(), RATIONALS.scalar(5))


def test_cosines_are_eigenvector_coordinates(random_corpus):
    for sys_, spec in random_corpus[:15]:
        a_mat, _ = realize_matrices(sys_)
        for theta in spec.theta:
            alpha = cosine_sequence(sys_, theta)
            v = Matrix(sys_.field, sys_.d + 1, 1, alpha)
            assert a_mat @ v == scale(v, theta)
            assert alpha[0] == sys_.field.one()


def test_rescale_superdiagonal():
    sys_ = _k2()
    same = rescale_superdiagonal(sys_, list(sys_.b))
    assert same == sys_
    normed = rescale_superdiagonal(sys_, [1, 1])
    assert [x.value for x in normed.b] == [1, 1]
    assert [x.value for x in normed.c] == [2, 2]
    assert rescale_superdiagonal(normed, [1, 1]) == normed
    with pytest.raises(ZeroTarget):
        rescale_superdiagonal(sys_, [RATIONALS.one(), RATIONALS.zero()])


def test_constant_row_sum(k3):
    assert constant_row_sum(k3[0]).value == 3
    assert constant_row_sum(rescale_superdiagonal(_k2(), [1, 1])) is None
    small = make_system(RATIONALS, [5, 7], [1], [1], [0, 1])
    assert constant_row_sum(small) is None


def test_rebase_to_row_sum(k3):
    sys_, _ = k3
    assert rebase_to_row_sum(sys_, RATIONALS.scalar(3)) == sys_  # fixed point
    rebased = rebase_to_row_sum(sys_, RATIONALS.scalar(1))
    assert constant_row_sum(rebased).value == 1
    # normalized K2 rebased at theta = 2 recovers the original superdiagonal
    back = rebase_to_row_sum(rescale_superdiagonal(_k2(), [1, 1]), RATIONALS.scalar(2))
    assert [x.value for x in back.b] == [2, 1]
    assert [x.value for x in back.c] == [1, 2]


def test_rebase_cosine_vanishes():
    # theta = 0 for K2 has cosines (1, 0, -1): index 1 vanishes
    with pytest.raises(CosineVanishes) as exc:
        rebase_to_row_sum(_k2(), RATIONALS.zero())
    assert exc.value.index == 1


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_rescale_preserves_invariants(seed):
    rng = random.Random(seed)
    sys_ = gen_random(rng.randrange(2, 6), GF101, seed)
    targets = [GF101.scalar(rng.randrange(1, 101)) for _ in range(sys_.d)]
    out = rescale_superdiagonal(sys_, targets)
    assert out.a == sys_.a and out.theta_star == sys_.theta_star
    for k in range(sys_.d):
        assert out.b[k] * out.c[k] == sys_.b[k] * sys_.c[k]
    assert char_poly(out) == char_poly(sys_)


def test_row_sum_iff_all_cosines_one(random_corpus):
    for sys_, spec in random_corpus[:10]:
        rs = constant_row_sum(sys_)
        for theta in spec.theta:
            alpha = cosine_sequence(sys_, theta)
            all_ones = all(x == sys_.field.one() for x in alpha)
            assert all_ones == (rs == theta)
