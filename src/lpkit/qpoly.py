"""Deciding Q-polynomiality: directly from the graph, and via the main theorem.

The direct route asks whether the adjacency graph is a path.  The theorem
route re-derives the same verdict from four conditions: a leaf exists
(decided by the cosine-ratio method, deliberately sharing no code with the
graph construction), the dual eigenvalues satisfy a three-term recurrence
with parameters (beta, gamma*), the trace scalars a_i fit a quadratic in
theta*_i with parameters (gamma, omega, eta*) once the recurrence is used to
extend theta* one step past each end, and theta*_i != theta*_0 for i >= 1.
The two routes must always agree; disagreement is an implementation bug.

Condition (i) needs no scan over all d(d+1) ordered pairs.  Since
v_s[1] = (theta_s - a_0)/b_0 with b_0 != 0, the ratio identity's i = 1 entry
names the only possible partner of r:
theta_s = a_0 + b_0 v_r[1] (theta*_1 - a*_r)/(theta*_0 - a*_r).
So each r costs one a*_r, one lookup in a theta -> index dict and, when the
lookup hits some s != r, one O(d) ratio check: O(d^2) in all.

The witness of (ii) and (iii) runs on integer forms: theta* and a are
cleared of denominators once, the rows of both conditions go together as
integers in (gamma, omega, eta*, beta, gamma*) to one ``exactmath.solve_rows``
call, and the recurrence check behind delta* is a zero test through
``FieldSpec.reduce``.  Each witness entry is one exact quotient.

The routes share inputs, never state: the direct route decides from the
graph alone and only the theorem route solves the witness, which a caller
printing it beside a direct verdict (``check``) passes along.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .delta import build_delta, path_order
from .errors import NotConstant, RouteUnavailable
from .exactmath import Scalar, solve_rows
from .leaf import leaf_by_ratio
from .system import Spectrum, TridiagonalSystem, dual_a

__all__ = [
    "RecurrenceWitness",
    "QPolyVerdict",
    "solve_condition_ii",
    "extend_dual_eigenvalues",
    "compute_delta_star",
    "verify_aw2",
    "solve_witness",
    "is_q_polynomial",
]


@dataclass(frozen=True)
class RecurrenceWitness:
    """The scalars realizing the theorem's conditions (ii) and (iii).

    theta_star_ext has length d+3 and covers indices -1..d+1; entry k holds
    the dual eigenvalue with index k-1.
    """

    beta: Scalar
    gamma_star: Scalar
    gamma: Scalar
    omega: Scalar
    eta_star: Scalar
    delta_star: Scalar
    theta_star_ext: tuple[Scalar, ...]


@dataclass(frozen=True)
class QPolyVerdict:
    """A direct verdict carries the Leonard order of a path, never a witness (theorem only)."""

    qpoly: bool
    route: str  # "direct" | "theorem"
    witness: Optional[RecurrenceWitness] = None
    leonard_order: Optional[tuple[int, ...]] = None
    failed_condition: Optional[str] = None  # "i" | "ii" | "iii" | "iv"


def solve_condition_ii(theta_star: Sequence[Scalar]):
    """Solution set of gamma* = t*_{i-1} - beta t*_i + t*_{i+1} over (beta, gamma*).

    Returns (particular, nullspace basis) or None.  For d <= 1 there are no
    equations and the full two-dimensional set comes back; the rows are
    built as integers, times the common denominator of theta*.
    """
    field = theta_star[0].field
    t, den = field.cleared([x.value for x in theta_star])
    # t*_i * beta + gamma* = t*_{i-1} + t*_{i+1}, for 1 <= i <= d-1
    return solve_rows(field, [[t[i], den, t[i - 1] + t[i + 1]] for i in range(1, len(t) - 1)], 2)


def extend_dual_eigenvalues(theta_star: Sequence[Scalar], beta: Scalar,
                            gamma_star: Scalar) -> tuple[Scalar, ...]:
    """Prepend theta*_{-1} and append theta*_{d+1} using the recurrence."""
    theta_star = list(theta_star)
    before = gamma_star + beta * theta_star[0] - theta_star[1]
    after = gamma_star + beta * theta_star[-1] - theta_star[-2]
    return tuple([before] + theta_star + [after])


def compute_delta_star(theta_star_ext: Sequence[Scalar], beta: Scalar,
                       gamma_star: Scalar) -> Scalar:
    """The common value of t*^2_{i-1} - beta t*_{i-1} t*_i + t*^2_i - gamma*(t*_{i-1}+t*_i).

    Raises NotConstant when the extended list does not actually satisfy the
    recurrence (a violated precondition).  The recurrence at every i makes
    the expression the same at every i, and gives the product identity
    (t*_i - t*_{i-1})(t*_i - t*_{i+1}) = (2-beta) t*^2_i - 2 gamma* t*_i - delta*,
    so delta* is read at i = 0.
    """
    field = beta.field
    # integer forms: ext, beta and gamma* over one denominator D; the recurrence
    # is a zero test of its identity times D^2, and delta* is a quotient by D^3
    ints, den = field.cleared([x.value for x in theta_star_ext] + [beta.value, gamma_star.value])
    *ext, beta, gstar = ints
    d = len(ext) - 3
    for i in range(d + 1):
        if field.reduce((ext[i] + ext[i + 2] - gstar) * den - beta * ext[i + 1]):
            raise NotConstant(f"recurrence fails at i = {i}")
    prev, cur = ext[0], ext[1]
    return field.quotient((prev * prev + cur * cur - gstar * (prev + cur)) * den - beta * prev * cur,
                          den ** 3)


def verify_aw2(sys: TridiagonalSystem, witness: RecurrenceWitness) -> bool:
    """Exact check of the cubic operator identity

    As^2 A - beta As A As + A As^2 - gamma*(A As + As A) - delta* A
      = gamma As^2 + omega As + eta* I
    where As is the diagonal operator.  With As diagonal, entry (i, j) of the
    left side is A_ij P(t*_i, t*_j) for
    P(x, y) = x^2 - beta x y + y^2 - gamma*(x + y) - delta*, so the identity
    holds exactly when b_i P(t*_i, t*_{i+1}) and c_{i+1} P(t*_i, t*_{i+1})
    vanish for 0 <= i < d and a_i P(t*_i, t*_i) = gamma t*_i^2 + omega t*_i + eta*
    for 0 <= i <= d.  O(d).
    """
    w = witness

    def p(x: Scalar, y: Scalar) -> Scalar:
        return x * x - w.beta * x * y + y * y - w.gamma_star * (x + y) - w.delta_star

    ts = sys.theta_star
    for b, c, x, y in zip(sys.b, sys.c, ts, ts[1:]):
        off = p(x, y)
        if not ((b * off).is_zero() and (c * off).is_zero()):
            return False
    return all(a * p(t, t) == w.gamma * t * t + w.omega * t + w.eta_star
               for a, t in zip(sys.a, ts))


def solve_witness(sys: TridiagonalSystem) -> Optional[RecurrenceWitness]:
    """One exact witness for conditions (ii) and (iii) jointly, if any exists.

    Both are linear in (gamma, omega, eta*, beta, gamma*): one elimination,
    no sampling.  With theta* and a cleared once, the rows of (ii) are
    t*_i beta + den gamma* = t*_{i-1} + t*_{i+1} for 1 <= i <= d-1, and row i of (iii) is
    a_i (t*_i - t*_{i-1})(t*_i - t*_{i+1}) = gamma t*_i^2 + omega t*_i + eta* times
    den(theta*)^2 den(a).  Only t*_{-1} and t*_{d+1} enter (iii), at i = 0 and i = d, and
    each is affine in (beta, gamma*): there the edge a_i (t*_i - inner), inner the neighbour,
    moves edge (t*_i beta + den gamma*) to the left.  Free unknowns come out 0, so the
    column order fixes which witness a non-unique solution set gives.
    """
    field = sys.field
    d = sys.d
    t, den = field.cleared([x.value for x in sys.theta_star])
    a, a_den = field.cleared([x.value for x in sys.a])
    rows = [[0, 0, 0, t[i], den, t[i - 1] + t[i + 1]] for i in range(1, d)]
    for i in range(d + 1):
        row = [t[i] * t[i] * a_den, t[i] * den * a_den, den * den * a_den]
        if 0 < i < d:
            row += [0, 0, a[i] * (t[i] - t[i - 1]) * (t[i] - t[i + 1])]
        else:
            inner = t[1] if i == 0 else t[d - 1]
            edge = a[i] * (t[i] - inner)
            row += [edge * t[i], edge * den, edge * (t[i] + inner)]
        rows.append(row)
    joint = solve_rows(field, [list(map(field.reduce, row)) for row in rows], 5)
    if joint is None:
        return None
    (gamma, omega, eta_star, beta, gstar), _ = joint
    ext = extend_dual_eigenvalues(sys.theta_star, beta, gstar)
    delta_star = compute_delta_star(ext, beta, gstar)
    return RecurrenceWitness(beta, gstar, gamma, omega, eta_star, delta_star, ext)


def _has_ratio_leaf(sys: TridiagonalSystem, spec: Spectrum) -> bool:
    """Whether leaf_by_ratio confirms some ordered pair (r, s), r != s.

    Tries, for each r in ascending order, only the partner that the i = 1
    ratio entry names (see the module docstring).  Every other s fails that
    entry, so the answer equals the scan over all ordered pairs.
    """
    ts = sys.theta_star
    index = {t: s for s, t in enumerate(spec.theta)}
    for r in range(sys.d + 1):
        astar_r = dual_a(sys, spec, r)
        if astar_r == ts[0]:
            continue
        theta_s = sys.a[0] + sys.b[0] * spec.v[r][1] * (ts[1] - astar_r) / (ts[0] - astar_r)
        s = index.get(theta_s)
        if s is not None and s != r and leaf_by_ratio(sys, spec, r, s).confirmed:
            return True
    return False


def is_q_polynomial(sys: TridiagonalSystem, spec: Spectrum,
                    route: str = "direct") -> QPolyVerdict:
    """Decide Q-polynomiality by the requested route.

    The direct route decides from the graph alone and solves no witness.
    The theorem route needs d >= 3 (for d <= 2 the recurrence condition is
    underdetermined and the characterization degenerates); RouteUnavailable
    is raised there and callers should fall back to the direct route.
    """
    if route == "direct":
        order = path_order(build_delta(sys, spec))
        return QPolyVerdict(order is not None, "direct", leonard_order=order)
    if route != "theorem":
        raise ValueError(f"unknown route {route!r}")
    if sys.d < 3:
        raise RouteUnavailable("the theorem route requires d >= 3")
    # (i) some leaf is recognized by the ratio method
    if not _has_ratio_leaf(sys, spec):
        return QPolyVerdict(False, "theorem", failed_condition="i")
    # (ii) the dual-eigenvalue recurrence and (iii) jointly with it the trace-scalar fit
    witness = solve_witness(sys)
    if witness is None:
        failed = "ii" if solve_condition_ii(sys.theta_star) is None else "iii"
        return QPolyVerdict(False, "theorem", failed_condition=failed)
    # (iv) theta*_i != theta*_0 for i >= 1
    if any(sys.theta_star[i] == sys.theta_star[0] for i in range(1, sys.d + 1)):
        return QPolyVerdict(False, "theorem", failed_condition="iv")
    return QPolyVerdict(True, "theorem", witness=witness)
