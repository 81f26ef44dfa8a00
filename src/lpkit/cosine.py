"""Three-term-recurrence polynomial sequences, cosine sequences, and rescaling.

The u_i sequence satisfies lambda*u_i = c_i u_{i-1} + a_i u_i + b_i u_{i+1}
with u_0 = 1; times b_0...b_{i-1} it is the monic sequence of the same
recurrence in the normalized basis (all superdiagonal entries 1).  The top
polynomial u_{d+1} is scaled back to that monic form: it is the
characteristic polynomial of A, and the evaluations u_i(theta) at an
eigenvalue theta are the coordinates of the corresponding eigenvector.
"""
from __future__ import annotations

from typing import Optional, Sequence

from .errors import CosineVanishes, InternalInconsistency, NotAnEigenvalue, ZeroTarget
from .exactmath import Poly, Scalar
from .system import TridiagonalSystem, cosine_recurrence

__all__ = [
    "u_polys",
    "cosine_sequence",
    "rescale_superdiagonal",
    "constant_row_sum",
    "rebase_to_row_sum",
]


def u_polys(sys: TridiagonalSystem) -> tuple[Poly, ...]:
    """u_0..u_{d+1}: b_i u_{i+1} = (x - a_i) u_i - c_i u_{i-1}, u_0 = 1; u_{d+1} = det(x I - A), monic."""
    field = sys.field
    u, prev = [Poly.constant(field, 1)], Poly(field, [])
    for i in range(sys.d + 1):
        prev, step = u[i], Poly.x(field) * u[i] - u[i] * sys.a[i] - prev * sys.sub(i)
        u.append(step * (sys.b[i].inverse() if i < sys.d else step.coeffs[-1].inverse()))
    return tuple(u)


def cosine_sequence(sys: TridiagonalSystem, theta: Scalar) -> tuple[Scalar, ...]:
    """Evaluations (u_0(theta), ..., u_d(theta)); theta must be an eigenvalue."""
    alpha, residual = cosine_recurrence(sys, theta)
    if not residual.is_zero():
        raise NotAnEigenvalue(f"{theta} is not an eigenvalue of A")
    return alpha


def rescale_superdiagonal(sys: TridiagonalSystem, targets: Sequence[Scalar]) -> TridiagonalSystem:
    """Change feasible basis so that the superdiagonal becomes ``targets``.

    The diagonal, theta_star, and the products b_{i-1} c_i are unchanged.
    """
    targets = [sys.field.scalar(t) for t in targets]
    if len(targets) != sys.d:
        raise ZeroTarget(f"need {sys.d} targets, got {len(targets)}")
    if any(t.is_zero() for t in targets):
        raise ZeroTarget("superdiagonal targets must be nonzero")
    new_c = tuple(sys.b[k] * sys.c[k] / targets[k] for k in range(sys.d))
    return TridiagonalSystem(sys.d, sys.a, tuple(targets), new_c, sys.theta_star, sys.field)


def constant_row_sum(sys: TridiagonalSystem) -> Optional[Scalar]:
    """The common row sum theta of A when it exists, else None.

    When present, theta is an eigenvalue and every cosine u_i(theta) is 1;
    both facts are checked.
    """
    sums = [sys.sub(i) + sys.a[i] + sys.sup(i) for i in range(sys.d + 1)]
    if any(s != sums[0] for s in sums):
        return None
    theta = sums[0]
    alpha = cosine_sequence(sys, theta)  # raises if not an eigenvalue
    if any(x != sys.field.one() for x in alpha):
        raise InternalInconsistency("row-sum cosines must be all ones")
    return theta


def rebase_to_row_sum(sys: TridiagonalSystem, theta: Scalar) -> TridiagonalSystem:
    """Rescale to a feasible basis in which A has constant row sum theta.

    Possible exactly when no cosine u_i(theta) vanishes; the construction
    uses superdiagonal targets b_{i-1} * u_i(theta)/u_{i-1}(theta).
    """
    alpha = cosine_sequence(sys, theta)
    for i, x in enumerate(alpha):
        if x.is_zero():
            raise CosineVanishes(i)
    targets = [sys.b[k] * alpha[k + 1] / alpha[k] for k in range(sys.d)]
    out = rescale_superdiagonal(sys, targets)
    if constant_row_sum(out) != theta:
        raise InternalInconsistency("rebased matrix must have row sum theta")
    return out
