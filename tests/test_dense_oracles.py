"""The rank-one spectral core and the entrywise cubic identity equal the dense constructions."""
from __future__ import annotations

import pytest

from dense_oracles import (bumped_witnesses, dense_aw2, dense_dual_a, dense_edges,
                           lagrange_idempotents, rank_one_idempotents, spectral_sum)
from lpkit.delta import build_delta
from lpkit.exactmath import RATIONALS
from lpkit.instances import affine_transform, gen_krawtchouk
from lpkit.qpoly import solve_witness, verify_aw2
from lpkit.system import compute_spectrum, dual_a, make_system, realize_matrices


@pytest.fixture(scope="module")
def dense_corpus(full_corpus):
    """(system, spectrum, Lagrange idempotents) for every corpus instance."""
    return [(sys_, spec, lagrange_idempotents(sys_, spec.theta)) for sys_, spec in full_corpus]


def test_idempotents_match_lagrange_products(dense_corpus):
    for _, spec, idempotents in dense_corpus:
        assert rank_one_idempotents(spec) == idempotents


def test_adjacency_matches_dense_products(dense_corpus):
    for sys_, spec, idempotents in dense_corpus:
        assert build_delta(sys_, spec).edges() == dense_edges(sys_, idempotents)


def test_dual_a_matches_dense_trace(dense_corpus):
    for sys_, spec, idempotents in dense_corpus:
        for r in range(sys_.d + 1):
            assert dual_a(sys_, spec, r) == dense_dual_a(sys_, idempotents, r)


def test_spectral_sum_rejects_a_spectrum_of_another_operator():
    # the affine image keeps the cosine vectors but has the eigenvalues 3 theta + 7
    k4, theta = gen_krawtchouk(4)
    a_mat, _ = realize_matrices(k4)
    assert spectral_sum(compute_spectrum(k4, theta_hint=theta)) == a_mat
    assert spectral_sum(compute_spectrum(affine_transform(k4, 3, 7, 1, 0))) != a_mat


def test_entrywise_aw2_matches_dense_identity(full_corpus, k3):
    # the corpus and the affine images of criterion 5, with their own witnesses; and the k3
    # witness, P(x, y) = (x - y)^2 - 4, on theta* = (3, 1, 10, 8): P(1, 10) != 0, so there
    # the identity holds exactly when b_1 = c_2 = 0 (unvalidated systems)
    systems = [sys_ for sys_, _ in full_corpus]
    systems += [affine_transform(sys_, *params) for sys_ in systems if sys_.field == RATIONALS
                for params in ((1, 5, 1, 0), (2, 0, 3, 1))]
    reducible = [make_system(RATIONALS, [0] * 4, b, c, [3, 1, 10, 8]) for b, c in
                 (([3, 0, 1], [1, 0, 3]), ([3, 0, 1], [1, 2, 3]), ([3, 2, 1], [1, 0, 3]))]
    k3_witness = solve_witness(k3[0])
    cases = [(sys_, solve_witness(sys_)) for sys_ in systems] + [(s, k3_witness) for s in reducible]
    compared = [verify_aw2(sys_, w) == dense_aw2(sys_, w)
                for sys_, witness in cases if witness is not None for w in bumped_witnesses(witness)]
    assert all(compared) and len(compared) >= 7 * (7 + 14 + 3)  # rational and reducible cases
    assert [verify_aw2(sys_, k3_witness) for sys_ in reducible] == [True, False, False]
