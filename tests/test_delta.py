"""Adjacency graph construction, path detection, leaves, invariant subspaces."""
from __future__ import annotations

from itertools import combinations

import pytest

from dense_oracles import hstack, is_connected, is_zero_matrix, rank_one_idempotents
from lpkit.delta import DeltaGraph, astar_invariance, build_delta, path_order
from lpkit.errors import IndexOutOfRange
from lpkit.exactmath import RATIONALS, rank
from lpkit.system import compute_spectrum, make_system


def _graph(n, edges):
    adj = [[False] * n for _ in range(n)]
    for i, j in edges:
        adj[i][j] = adj[j][i] = True
    return DeltaGraph(n, tuple(tuple(row) for row in adj))


def test_delta_graph_rejects_asymmetry():
    adj = ((False, True), (False, False))
    with pytest.raises(ValueError):
        DeltaGraph(2, adj)


def test_delta_graph_rejects_loops():
    adj = ((True,),)
    with pytest.raises(ValueError):
        DeltaGraph(1, adj)


def test_build_delta_k2():
    sys_ = make_system(RATIONALS, [0, 0, 0], [2, 1], [1, 2], [2, 0, -2])
    g = build_delta(sys_, compute_spectrum(sys_))
    assert g.edges() == [(0, 1), (1, 2)]


def test_build_delta_k3(k3):
    sys_, spec = k3
    g = build_delta(sys_, spec)
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert is_connected(g)
    assert [g.degree(i) for i in range(g.n)] == [1, 2, 2, 1]


def test_build_delta_scalar_astar():
    # theta* constant: Astar is scalar, so every product E_i Astar E_j vanishes
    sys_ = make_system(RATIONALS, [0, 0, 0], [2, 1], [1, 2], [5, 5, 5])
    g = build_delta(sys_, compute_spectrum(sys_))
    assert g.edges() == []
    assert not is_connected(g)
    assert [g.degree(i) for i in range(g.n)] == [0, 0, 0]


def test_path_order_examples():
    assert path_order(_graph(3, [(0, 1), (1, 2)])) == (0, 1, 2)
    assert path_order(_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])) is None  # cycle
    assert path_order(_graph(4, [(0, 1), (0, 2), (0, 3)])) is None  # star
    assert path_order(_graph(1, [])) == (0,)
    # tie-break: starts at the smaller endpoint
    assert path_order(_graph(3, [(2, 1), (1, 0)])) == (0, 1, 2)


def test_adjacency_matches_rank_one_products(random_corpus):
    # adjacency <=> E_i Astar E_j has rank 1 with column space equal to E_i's
    from lpkit.system import realize_matrices
    for sys_, spec in random_corpus[:15]:
        _, astar = realize_matrices(sys_)
        idempotents = rank_one_idempotents(spec)
        g = build_delta(sys_, spec)
        for i in range(g.n):
            for j in range(g.n):
                if i == j:
                    continue
                prod = idempotents[i] @ astar @ idempotents[j]
                if g.adj[i][j]:
                    assert rank(prod) == 1
                    assert rank(hstack(idempotents[i], prod)) == 1
                else:
                    assert is_zero_matrix(prod)


def test_connectivity_when_theta_star_distinct(random_corpus):
    # generated instances have distinct theta*, hence theta*_i != theta*_0
    for sys_, spec in random_corpus[:30]:
        assert is_connected(build_delta(sys_, spec))


def test_astar_invariance_trivial(k2):
    sys_, spec = k2
    assert astar_invariance(sys_, spec, range(sys_.d + 1))
    assert astar_invariance(sys_, spec, [])
    assert not astar_invariance(sys_, spec, [0])  # edge 0-1 crosses the cut
    for bad in ([-1, 0, 1], [3], [0, 3]):  # -1 must not wrap around to vertex 2
        with pytest.raises(IndexOutOfRange):
            astar_invariance(sys_, spec, bad)


def test_astar_invariance_cut_characterization(random_corpus):
    # exhaustive over subsets on small instances: invariance <=> no crossing edge
    small = [(s, sp) for s, sp in random_corpus if s.d <= 4][:6]
    for sys_, spec in small:
        g = build_delta(sys_, spec)
        verts = range(g.n)
        for size in range(g.n + 1):
            for subset in combinations(verts, size):
                inside = set(subset)
                crossing = any(g.adj[i][j] for i in inside for j in verts
                               if j not in inside)
                assert astar_invariance(sys_, spec, subset) == (not crossing)
