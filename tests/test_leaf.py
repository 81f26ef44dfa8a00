"""The five leaf deciders: golden K3 verdicts, errors, and corpus agreement."""
from __future__ import annotations

import pytest

from lpkit.cosine import constant_row_sum, rescale_superdiagonal
from lpkit.delta import build_delta
from lpkit.errors import EqualIndices, IndexOutOfRange, PreconditionViolated
from lpkit.exactmath import GF, RATIONALS
from lpkit.leaf import (appendix_a, appendix_b, leaf_by_ratio,
                        leaf_by_recurrence, leaf_by_subspace)
from lpkit.system import compute_spectrum, dual_a, make_system

ALL_METHODS = (leaf_by_subspace, leaf_by_recurrence, leaf_by_ratio)


def _pair_truth(sys_, spec):
    g = build_delta(sys_, spec)
    return {(r, s): g.degree(r) == 1 and g.adj[r][s]
            for r in range(g.n) for s in range(g.n) if r != s}


def test_index_errors(k3):
    sys_, spec = k3
    with pytest.raises(EqualIndices):
        leaf_by_subspace(sys_, spec, 1, 1)
    with pytest.raises(IndexOutOfRange):
        leaf_by_ratio(sys_, spec, 0, 9)


def test_k3_golden_pairs(k3):
    sys_, spec = k3
    r0s1 = leaf_by_subspace(sys_, spec, 0, 1)
    assert r0s1.confirmed and r0s1.kappa.is_zero()  # kappa = a*_0 = 0
    assert not leaf_by_subspace(sys_, spec, 0, 2).confirmed
    assert not leaf_by_subspace(sys_, spec, 1, 0).confirmed  # interior vertex
    assert leaf_by_recurrence(sys_, spec, 0, 1).confirmed
    denied = leaf_by_recurrence(sys_, spec, 0, 3)
    assert not denied.confirmed and denied.failing_index == 0
    assert leaf_by_ratio(sys_, spec, 0, 1).confirmed
    assert leaf_by_ratio(sys_, spec, 0, 2).failing_index == 1


def test_recurrence_all_rhs_zero_clause():
    # constant theta*: Astar is scalar, every equation holds trivially but
    # the nonvanishing clause must still deny
    sys_ = make_system(RATIONALS, [0, 0, 0], [2, 1], [1, 2], [5, 5, 5])
    spec = compute_spectrum(sys_)
    v = leaf_by_recurrence(sys_, spec, 0, 1)
    assert not v.confirmed and v.failing_index is None
    assert not leaf_by_subspace(sys_, spec, 0, 1).confirmed  # the image of E_0 V is zero


def test_ratio_denies_when_dual_a_hits_theta_star_0():
    sys_ = make_system(RATIONALS, [0, 0, 0], [2, 1], [1, 2], [5, 5, 5])
    spec = compute_spectrum(sys_)
    assert dual_a(sys_, spec, 0) == sys_.theta_star[0]
    assert not leaf_by_ratio(sys_, spec, 0, 1).confirmed


def test_appendix_a_golden(k3):
    sys_, spec = k3
    ok = appendix_a(sys_, spec, 0, 1, paranoid=True)
    assert ok.confirmed and ok.kappa.is_zero()
    other_end = appendix_a(sys_, spec, 3, 2, paranoid=True)
    assert other_end.confirmed and other_end.kappa == dual_a(sys_, spec, 3)
    assert not appendix_a(sys_, spec, 1, 0).confirmed


def test_appendix_preconditions(k3):
    sys_, spec = k3
    # d = 1 with rational spectrum: (x-5)(x-7) - 3 = (x-4)(x-8)
    small = make_system(RATIONALS, [5, 7], [1], [3], [0, 1])
    small_spec = compute_spectrum(small)
    with pytest.raises(PreconditionViolated):
        appendix_a(small, small_spec, 0, 1)  # d < 2
    collided = make_system(RATIONALS, [0, 0, 0, 0], [3, 2, 1], [1, 2, 3], [3, 1, -1, 3])
    with pytest.raises(PreconditionViolated):
        appendix_a(collided, compute_spectrum(collided), 0, 1)  # theta*_3 = theta*_0


def test_appendix_b_golden(k3):
    sys_, spec = k3
    r = spec.theta.index(RATIONALS.scalar(3))  # row sum of K3 is 3
    s1 = spec.theta.index(RATIONALS.scalar(1))
    s2 = spec.theta.index(RATIONALS.scalar(-1))
    ok = appendix_b(sys_, spec, r, s1)
    assert ok.confirmed and ok.kappa.is_zero()
    denied = appendix_b(sys_, spec, r, s2)
    assert not denied.confirmed and denied.failing_index == 1


def test_appendix_b_preconditions(k3):
    sys_, spec = k3
    # theta_r differs from the row sum
    wrong_r = spec.theta.index(RATIONALS.scalar(1))
    with pytest.raises(PreconditionViolated):
        appendix_b(sys_, spec, wrong_r, 0)
    # no constant row sum at all
    k2 = make_system(RATIONALS, [0, 0, 0], [2, 1], [1, 2], [2, 0, -2])
    normed = rescale_superdiagonal(k2, [1, 1])
    with pytest.raises(PreconditionViolated):
        appendix_b(normed, compute_spectrum(normed), 0, 1)


def test_confirmed_kappa_equals_dual_a(full_corpus):
    for sys_, spec in full_corpus[:25]:
        truth = _pair_truth(sys_, spec)
        for (r, s), expected in truth.items():
            if not expected:
                continue
            for method in ALL_METHODS:
                v = method(sys_, spec, r, s)
                assert v.confirmed and v.kappa == dual_a(sys_, spec, r)
                assert v.kappa != sys_.theta_star[0]


def test_method_agreement_sample(full_corpus):
    for sys_, spec in full_corpus[:15]:
        truth = _pair_truth(sys_, spec)
        rs = constant_row_sum(sys_)
        for (r, s), expected in truth.items():
            for method in ALL_METHODS:
                assert method(sys_, spec, r, s).confirmed == expected
            if sys_.d >= 2 and spec.theta[r] != spec.theta[s]:
                assert appendix_a(sys_, spec, r, s, paranoid=True).confirmed == expected
                if rs is not None and rs == spec.theta[r]:
                    assert appendix_b(sys_, spec, r, s).confirmed == expected


def test_basis_independence(k3):
    import random
    sys_, spec = k3
    rng = random.Random(7)
    targets = [RATIONALS.scalar(rng.randrange(1, 9)) for _ in range(sys_.d)]
    rescaled = rescale_superdiagonal(sys_, targets)
    rspec = compute_spectrum(rescaled, theta_hint=spec.theta)
    for r in range(4):
        for s in range(4):
            if r == s:
                continue
            for method in ALL_METHODS:
                assert (method(sys_, spec, r, s).confirmed
                        == method(rescaled, rspec, r, s).confirmed)
