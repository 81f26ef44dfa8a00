"""Dense reference computations for the rank-one spectral core and the cubic identity.

These are the textbook constructions, independent of the cosine vectors and
the dagger diagonal: Lagrange-product idempotents, adjacency from the dense
products E_i Astar E_j, a*_r as the trace of E_r Astar, and the cubic
operator identity as n x n products.  The tests compare the production code
against them exactly.  The dense E_i and the sum A = sum theta_i E_i built from
the production factors, and the conjugation by K, let the tests check their
algebra.  The small matrix helpers at the top are for the tests only.
"""
from __future__ import annotations

from dataclasses import replace

from lpkit.exactmath import Matrix
from lpkit.system import _dagger_diagonal, realize_matrices


def matrix(field, rows):
    """A matrix from a list of rows of integers, Fractions or Scalars."""
    return Matrix(field, len(rows), len(rows[0]), [field.scalar(x) for row in rows for x in row])


def transpose(m):
    return Matrix(m.field, m.cols, m.rows, [m.at(i, j) for j in range(m.cols) for i in range(m.rows)])


def trace(m):
    return sum((m.at(i, i) for i in range(m.rows)), m.field.zero())


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
    return (Matrix.diagonal(sys_.field, [kk.inverse() for kk in k]) @ transpose(x)
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
    return trace(idempotents[r] @ astar)


def spectral_sum(spec):
    """sum_i theta_i E_i as one product L R, L[a][i] = theta_i v_i[a]/n_i, R[i][b] = K_b v_i[b].

    It equals A exactly when the spectrum belongs to A.
    """
    n = len(spec.theta)
    scaled = [t / norm for t, norm in zip(spec.theta, spec.norm)]
    left = Matrix(spec.theta[0].field, n, n, [c * v[a] for a in range(n) for c, v in zip(scaled, spec.v)])
    right = Matrix(spec.theta[0].field, n, n, [kk * x for v in spec.v for kk, x in zip(spec.k, v)])
    return left @ right


def bumped_witnesses(w):
    """The witness, then six copies of it, each with one field increased by 1."""
    one = w.beta.field.one()
    return [w] + [replace(w, **{name: getattr(w, name) + one}) for name in
                  ("beta", "gamma_star", "gamma", "omega", "eta_star", "delta_star")]


def dense_aw2(sys_, w):
    """The cubic identity As^2 A - beta As A As + A As^2 - gamma*(A As + As A) - delta* A
    = gamma As^2 + omega As + eta* I, as n x n matrix products."""
    a_mat, astar = realize_matrices(sys_)
    as2 = astar @ astar
    lhs = (as2 @ a_mat - (astar @ a_mat @ astar).scale(w.beta) + a_mat @ as2
           - (a_mat @ astar + astar @ a_mat).scale(w.gamma_star) - a_mat.scale(w.delta_star))
    rhs = (as2.scale(w.gamma) + astar.scale(w.omega)
           + Matrix.identity(sys_.field, sys_.d + 1).scale(w.eta_star))
    return lhs == rhs
