"""Dense reference computations for the rank-one spectral core.

These are the textbook constructions, independent of the cosine vectors and
the dagger diagonal: Lagrange-product idempotents, adjacency from the dense
products E_i Astar E_j, and a*_r as the trace of E_r Astar.  The tests compare
the production code against them exactly.
"""
from __future__ import annotations

from lpkit.exactmath import Matrix
from lpkit.system import realize_matrices


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
