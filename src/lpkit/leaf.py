"""Five independent deciders for "vertex r is adjacent to vertex s and nothing else".

Each method confirms or denies the ordered pair (r, s) against the adjacency
graph's ground truth, through a different algebraic lens: a subspace image
test, a weighted three-term recurrence, a cosine-ratio identity, and two
printed loop algorithms (the second specialized to constant row sum).
All five must always agree; the test suite enforces this on the whole corpus.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cosine import constant_row_sum
from .errors import EqualIndices, IndexOutOfRange, PreconditionViolated
from .exactmath import Scalar
from .system import Spectrum, TridiagonalSystem, dual_a

__all__ = [
    "LeafVerdict",
    "leaf_by_subspace",
    "leaf_by_recurrence",
    "leaf_by_ratio",
    "appendix_a",
    "appendix_b",
]

@dataclass(frozen=True)
class LeafVerdict:
    confirmed: bool
    method: str
    kappa: Optional[Scalar] = None
    failing_index: Optional[int] = None


def _check_pair(sys: TridiagonalSystem, r: int, s: int):
    if not (0 <= r <= sys.d and 0 <= s <= sys.d):
        raise IndexOutOfRange(f"(r, s) = ({r}, {s}) out of 0..{sys.d}")
    if r == s:
        raise EqualIndices("r and s must differ")


def leaf_by_subspace(sys: TridiagonalSystem, spec: Spectrum, r: int, s: int) -> LeafVerdict:
    """Image test: (Astar - a*_r I) maps E_r V onto E_s V exactly when confirmed.

    E_r V is spanned by v_r, so this tests w = (Astar - a*_r I) v_r != 0 and A w = theta_s w.
    """
    _check_pair(sys, r, s)
    astar_r = dual_a(sys, spec, r)
    w = [(t - astar_r) * x for t, x in zip(sys.theta_star, spec.v[r])]
    padded = [sys.field.zero(), *w, sys.field.zero()]
    confirmed = any(not x.is_zero() for x in w) and all(
        sys.sub(i) * padded[i] + sys.a[i] * w[i] + sys.sup(i) * padded[i + 2]
        == spec.theta[s] * w[i] for i in range(sys.d + 1))
    return LeafVerdict(confirmed, "subspace", kappa=astar_r if confirmed else None)


def leaf_by_recurrence(sys: TridiagonalSystem, spec: Spectrum, r: int, s: int) -> LeafVerdict:
    """Weighted recurrence on the cosine sequence for theta_r.

    Checks, for 0 <= i <= d with boundary entries dropped,
    c_i t*_{i-1} A_{i-1} + a_i t*_i A_i + b_i t*_{i+1} A_{i+1} - theta_r t*_i A_i
      = (theta_s - theta_r)(t*_i - a*_r) A_i,
    and additionally requires some right-hand side to be nonzero (otherwise
    Astar is scalar and there is no adjacency at all).
    """
    _check_pair(sys, r, s)
    alpha = spec.v[r]
    astar_r = dual_a(sys, spec, r)
    ts = sys.theta_star
    zero = sys.field.zero()
    any_rhs_nonzero = False
    for i in range(sys.d + 1):
        lhs = sys.a[i] * ts[i] * alpha[i] - spec.theta[r] * ts[i] * alpha[i]
        if i >= 1:
            lhs = lhs + sys.sub(i) * ts[i - 1] * alpha[i - 1]
        if i <= sys.d - 1:
            lhs = lhs + sys.sup(i) * ts[i + 1] * alpha[i + 1]
        rhs = (spec.theta[s] - spec.theta[r]) * (ts[i] - astar_r) * alpha[i]
        if rhs != zero:
            any_rhs_nonzero = True
        if lhs != rhs:
            return LeafVerdict(False, "recurrence", failing_index=i)
    if not any_rhs_nonzero:
        return LeafVerdict(False, "recurrence")
    return LeafVerdict(True, "recurrence", kappa=astar_r)


def leaf_by_ratio(sys: TridiagonalSystem, spec: Spectrum, r: int, s: int) -> LeafVerdict:
    """Cosine-ratio identity: u_i(theta_s) = u_i(theta_r)(t*_i - a*_r)/(t*_0 - a*_r)."""
    _check_pair(sys, r, s)
    astar_r = dual_a(sys, spec, r)
    if astar_r == sys.theta_star[0]:
        return LeafVerdict(False, "ratio")
    scale = (sys.theta_star[0] - astar_r).inverse()
    for i in range(sys.d + 1):
        lhs = spec.v[s][i]
        rhs = spec.v[r][i] * (sys.theta_star[i] - astar_r) * scale
        if lhs != rhs:
            return LeafVerdict(False, "ratio", failing_index=i)
    return LeafVerdict(True, "ratio", kappa=astar_r)


def _appendix_preconditions(sys: TridiagonalSystem, spec: Spectrum, r: int, s: int):
    _check_pair(sys, r, s)
    if sys.d < 2:
        raise PreconditionViolated("the loop algorithms require d >= 2")
    for i in range(1, sys.d + 1):
        if sys.theta_star[i] == sys.theta_star[0]:
            raise PreconditionViolated(f"theta_star[{i}] equals theta_star[0]")
    if spec.theta[r] == spec.theta[s]:
        raise PreconditionViolated("theta_r and theta_s must differ")


def appendix_a(sys: TridiagonalSystem, spec: Spectrum, r: int, s: int,
               paranoid: bool = False) -> LeafVerdict:
    """The first printed loop algorithm, run exactly as stated.

    The loop checks j = 1..d-1 only; the j = d relation is implied because
    theta_s is a genuine eigenvalue (a left-eigenvector of an irreducible
    tridiagonal matrix has nonzero last coordinate).  With ``paranoid`` set,
    the j = d relation is re-checked anyway.
    """
    _appendix_preconditions(sys, spec, r, s)
    th_r, th_s = spec.theta[r], spec.theta[s]
    ts = sys.theta_star
    alpha = [sys.field.one(), (th_r - sys.a[0]) / sys.b[0]]
    kappa = (ts[1] * (th_r - sys.a[0]) - ts[0] * (th_s - sys.a[0])) / (th_r - th_s)
    shift = kappa * (th_r - th_s)
    for j in range(1, sys.d):
        nxt = (th_r * alpha[j] - sys.sub(j) * alpha[j - 1] - sys.a[j] * alpha[j]) / sys.sup(j)
        alpha.append(nxt)
        lhs = (sys.sub(j) * ts[j - 1] * alpha[j - 1] + sys.a[j] * ts[j] * alpha[j]
               + sys.sup(j) * ts[j + 1] * alpha[j + 1])
        rhs = (th_s * ts[j] + shift) * alpha[j]
        if lhs != rhs:
            return LeafVerdict(False, "appendixA", failing_index=j)
    if paranoid:
        j = sys.d
        lhs = sys.sub(j) * ts[j - 1] * alpha[j - 1] + sys.a[j] * ts[j] * alpha[j]
        rhs = (th_s * ts[j] + shift) * alpha[j]
        if lhs != rhs:
            return LeafVerdict(False, "appendixA", failing_index=j)
    return LeafVerdict(True, "appendixA", kappa=kappa)


def appendix_b(sys: TridiagonalSystem, spec: Spectrum, r: int, s: int) -> LeafVerdict:
    """The second printed loop algorithm; requires A to have constant row sum theta_r."""
    _appendix_preconditions(sys, spec, r, s)
    row_sum = constant_row_sum(sys)
    if row_sum is None:
        raise PreconditionViolated("A does not have constant row sum")
    th_r, th_s = spec.theta[r], spec.theta[s]
    if row_sum != th_r:
        raise PreconditionViolated(f"row sum {row_sum} differs from theta_r = {th_r}")
    ts = sys.theta_star
    kappa = (ts[1] * sys.b[0] - ts[0] * (th_s - sys.a[0])) / (th_r - th_s)
    shift = kappa * (th_r - th_s)
    for j in range(1, sys.d):
        lhs = sys.sub(j) * ts[j - 1] + sys.a[j] * ts[j] + sys.sup(j) * ts[j + 1]
        rhs = th_s * ts[j] + shift
        if lhs != rhs:
            return LeafVerdict(False, "appendixB", failing_index=j)
    return LeafVerdict(True, "appendixB", kappa=kappa)
