"""Dense reference computations for the rank-one spectral core.

These are the textbook constructions, independent of the cosine vectors and
the dagger diagonal: Lagrange-product idempotents, adjacency from the dense
products E_i Astar E_j, and a*_r as the trace of E_r Astar.  The tests compare
the production code against them exactly.  The dense E_i built from the
production factors, and the conjugation by K, let the tests check their algebra.
"""
from __future__ import annotations

from lpkit.exactmath import Matrix
from lpkit.system import _dagger_diagonal, realize_matrices


def rank_one_idempotents(spec):
    """The dense E_i = v_i (K v_i)^T / n_i, from the spectrum's factors."""
    n = len(spec.theta)
    return tuple(Matrix(spec.theta[0].field, n, n,
                        [x / norm * kk * y for x in v for kk, y in zip(spec.k, v)])
                 for v, norm in zip(spec.v, spec.norm))


def dagger(sys_, x):
    """K^{-1} X^T K with K the dagger diagonal: the unique antiautomorphism
    fixing A and the 0-th coordinate projector (K_{i+1}/K_i = b_i/c_{i+1})."""
    k = _dagger_diagonal(sys_)
    return (Matrix.diagonal(sys_.field, [kk.inverse() for kk in k]) @ x.transpose()
            @ Matrix.diagonal(sys_.field, list(k)))


def lagrange_idempotents(sys_, theta):
    """E_i = prod_{j != i} (A - theta_j I) / (theta_i - theta_j)."""
    a_mat, _ = realize_matrices(sys_)
    n = sys_.d + 1
    identity = Matrix.identity(sys_.field, n)
    out = []
    for i in range(n):
        acc = identity
        denom = sys_.field.one()
        for j in range(n):
            if j != i:
                acc = acc @ (a_mat - identity.scale(theta[j]))
                denom = denom * (theta[i] - theta[j])
        out.append(acc.scale(denom.inverse()))
    return tuple(out)


def dense_edges(sys_, idempotents):
    """Edges (i, j), i < j, with E_i Astar E_j != 0."""
    _, astar = realize_matrices(sys_)
    n = len(idempotents)
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if not (idempotents[i] @ astar @ idempotents[j]).is_zero()]


def dense_dual_a(sys_, idempotents, r):
    """a*_r = tr(E_r Astar)."""
    _, astar = realize_matrices(sys_)
    return (idempotents[r] @ astar).trace()
