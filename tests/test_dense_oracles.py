"""The rank-one spectral core equals the dense constructions on the full corpus."""
from __future__ import annotations

import pytest

from dense_oracles import dense_dual_a, dense_edges, lagrange_idempotents, rank_one_idempotents
from lpkit.delta import build_delta
from lpkit.system import dual_a


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
