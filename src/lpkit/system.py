"""Tridiagonal/diagonal pairs in a fixed feasible basis.

A system holds the data of an irreducible tridiagonal matrix A (diagonal a_i,
superdiagonal b_i, subdiagonal c_i) together with the dual eigenvalues
theta*_i that make the companion operator Astar = diag(theta*_0..theta*_d).
This module computes spectra as the factors of their rank-one spectral
projectors, and the trace scalars a*_r.

The characteristic polynomial is built once as one integer list P, whose
roots are exactly the eigenvalues.  The eigenvalue stage, ``eigenvalues``,
reads P alone: a hinted theta is checked as a root of P, and without a hint
the roots of P are the eigenvalues.  Callers that need only the eigenvalues
(``lpkit verify-aw2`` and ``lpkit rebase``) stop there; ``compute_spectrum``
calls it and goes on to the factors below.

Each primitive idempotent has rank one: E_i = v_i (K v_i)^T / n_i, where v_i
is the cosine vector of theta_i (a right eigenvector), K is the diagonal
dagger matrix (A^T K = K A, so K v_i is a left eigenvector) and
n_i = (K v_i)^T v_i.  The spectrum stores these factors once, with the trace
scalars a*_r = tr(E_r Astar) formed from the same weights as the norms;
everything downstream reads them instead of dense matrices.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import HintInvalid, IndexOutOfRange, InternalInconsistency, NotMultiplicityFree
from .exactmath import FieldSpec, Matrix, Scalar, poly_roots_in_field

__all__ = [
    "TridiagonalSystem",
    "Spectrum",
    "make_system",
    "validate_system",
    "realize_matrices",
    "char_form",
    "cosine_recurrence",
    "eigenvalues",
    "compute_spectrum",
    "dual_a",
]


@dataclass(frozen=True)
class TridiagonalSystem:
    """Exact data of a tridiagonal/diagonal pair in a fixed feasible basis.

    a has length d+1 (diagonal), b length d (superdiagonal), c length d
    (subdiagonal entries c_1..c_d), theta_star length d+1.  The boundary
    conventions b_d = 0 and c_0 = 0 are implicit and never stored.
    """

    d: int
    a: tuple[Scalar, ...]
    b: tuple[Scalar, ...]
    c: tuple[Scalar, ...]
    theta_star: tuple[Scalar, ...]
    field: FieldSpec

    def sub(self, i: int) -> Scalar:
        """Subdiagonal entry c_i for 1 <= i <= d, zero at the boundary."""
        return self.c[i - 1] if 1 <= i <= self.d else self.field.zero()

    def sup(self, i: int) -> Scalar:
        """Superdiagonal entry b_i for 0 <= i <= d-1, zero at the boundary."""
        return self.b[i] if 0 <= i <= self.d - 1 else self.field.zero()


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of A (pairwise distinct) with the factors of their rank-one idempotents.

    v[i] is the cosine vector (u_0(theta_i), ..., u_d(theta_i)), k the
    diagonal of the dagger matrix K, and norm[i] = sum_k k[k] v[i][k]^2,
    which is nonzero.  E_i = v[i] (K v[i])^T / norm[i].  Only astar depends on
    the dual eigenvalues theta_star: astar[i] = a*_i = tr(E_i diag(theta_star)).
    """

    theta: tuple[Scalar, ...]
    v: tuple[tuple[Scalar, ...], ...]
    norm: tuple[Scalar, ...]
    k: tuple[Scalar, ...]
    theta_star: tuple[Scalar, ...]
    astar: tuple[Scalar, ...]

    @property
    def d(self) -> int:
        return len(self.theta) - 1


def make_system(field: FieldSpec, a: Sequence, b: Sequence, c: Sequence,
                theta_star: Sequence) -> TridiagonalSystem:
    """Build a system from raw entries, embedding them into the field."""
    a = tuple(field.scalar(x) for x in a)
    b = tuple(field.scalar(x) for x in b)
    c = tuple(field.scalar(x) for x in c)
    theta_star = tuple(field.scalar(x) for x in theta_star)
    return TridiagonalSystem(len(a) - 1, a, b, c, theta_star, field)


def validate_system(sys: TridiagonalSystem) -> list[str]:
    """Check irreducibility and length consistency; returns all violations found."""
    violations = []
    if sys.d < 1:
        violations.append(f"d must be at least 1, got {sys.d}")
    if len(sys.a) != sys.d + 1:
        violations.append(f"diagonal length {len(sys.a)}, expected {sys.d + 1}")
    if len(sys.b) != sys.d:
        violations.append(f"superdiagonal length {len(sys.b)}, expected {sys.d}")
    if len(sys.c) != sys.d:
        violations.append(f"subdiagonal length {len(sys.c)}, expected {sys.d}")
    if len(sys.theta_star) != sys.d + 1:
        violations.append(f"theta_star length {len(sys.theta_star)}, expected {sys.d + 1}")
    for i, x in enumerate(sys.b):
        if x.is_zero():
            violations.append(f"superdiagonal zero at {i}")
    for i, x in enumerate(sys.c):
        if x.is_zero():
            violations.append(f"subdiagonal zero at {i + 1}")
    return violations


def realize_matrices(sys: TridiagonalSystem) -> tuple[Matrix, Matrix]:
    """The matrices representing (A, Astar) in the stored feasible basis."""
    n = sys.d + 1
    zero = sys.field.zero()
    rows = []
    for i in range(n):
        row = [zero] * n
        row[i] = sys.a[i]
        if i > 0:
            row[i - 1] = sys.c[i - 1]
        if i < n - 1:
            row[i + 1] = sys.b[i]
        rows.append(row)
    a_mat = Matrix(sys.field, n, n, [x for row in rows for x in row])
    astar = Matrix.diagonal(sys.field, list(sys.theta_star))
    return a_mat, astar


def char_form(sys: TridiagonalSystem) -> list[int]:
    """The characteristic polynomial of A as one integer list P, low degree first.

    Over Q, P is primitive with a positive leading coefficient, and its roots
    are exactly the eigenvalues; over GF(p) it is the monic residue list.  The
    continuant p_{k+1} = (x - a_k) p_k - w_k p_{k-1}, w_k = b_{k-1} c_k, runs
    as p_k = Q_k / lc(Q_k) with Q_k primitive: each step clears a_k, w_k and
    the two leading coefficients over their lcm, reduces through
    ``FieldSpec.reduce`` and divides out the content.  Over GF(p) all of
    these are 1, which leaves the residue recurrence.  O(d^2).
    """
    field = sys.field
    weights = [0] + [field.reduce(b.value * c.value) for b, c in zip(sys.b, sys.c)]
    prev, cur = [1], [1]  # Q_{-1} enters only times w_0 = 0, so any nonzero list will do
    for a, w in zip(sys.a, weights):
        den_a, den_w = a.value.denominator * cur[-1], w.denominator * prev[-1]
        den = lcm(den_a, den_w)
        hi, mid, lo = den // cur[-1], den // den_a * a.value.numerator, den // den_w * w.numerator
        step = [field.reduce(hi * x - mid * y - lo * z)
                for x, y, z in zip([0] + cur, cur + [0], prev + [0, 0])]
        content = gcd(*step)
        prev, cur = cur, [x // content for x in step]
    return cur


def cosine_recurrence(sys: TridiagonalSystem, theta: Scalar) -> tuple[tuple[Scalar, ...], Scalar]:
    """The cosines (u_0(theta), ..., u_d(theta)) and the final-row residual.

    One pass of b_i u_{i+1} = (theta - a_i) u_i - c_i u_{i-1} from u_0 = 1.
    The residual (theta - a_d) u_d - c_d u_{d-1} vanishes exactly when theta
    is an eigenvalue of A; the cosines then form a right eigenvector.
    """
    u = [sys.field.one()]
    prev = sys.field.zero()
    for i in range(sys.d):
        nxt = ((theta - sys.a[i]) * u[i] - sys.sub(i) * prev) / sys.b[i]
        prev = u[i]
        u.append(nxt)
    residual = (theta - sys.a[sys.d]) * u[sys.d] - sys.sub(sys.d) * prev
    return tuple(u), residual


def eigenvalues(sys: TridiagonalSystem,
                theta_hint: Optional[Sequence[Scalar]] = None) -> tuple[Scalar, ...]:
    """The eigenvalues of A: the hint verified and in hint order, or else found and sorted.

    With a hint, each theta = n/m (m = 1 over GF(p)) must pass m | lc(P), the
    rational root theorem on ``char_form``'s P, before any power of m is
    formed, and then sum_k P_k n^k m^(deg-k) = 0 by homogeneous Horner; the
    hint order is kept.  A hint of the wrong length, with duplicates or with
    a non-eigenvalue raises HintInvalid, checked in that order.  Without a
    hint, the eigenvalues are the roots of P in the ground field, in
    canonical order.  Raises NotMultiplicityFree when A has fewer than d+1
    distinct in-field eigenvalues.
    """
    field = sys.field
    n = sys.d + 1
    form = char_form(sys)
    if theta_hint is not None:
        theta = tuple(field.scalar(t) for t in theta_hint)
        if len(theta) != n:
            raise HintInvalid(f"hint has {len(theta)} values, expected {n}")
        if len(set(theta)) != n:
            raise HintInvalid("hint contains duplicates")
        for t in theta:
            num, den = t.value.numerator, t.value.denominator
            value, power = form[-1] % den, 1
            if not value:
                for c in reversed(form):
                    value, power = field.reduce(value * num + c * power), power * den
            if value:
                raise HintInvalid(f"{t} is not an eigenvalue")
        return theta
    roots = poly_roots_in_field(form, field)
    if len(roots) != n:
        raise NotMultiplicityFree(
            f"found {len(roots)} distinct in-field eigenvalues, need {n}")
    return tuple(r for r, _ in roots)


def compute_spectrum(sys: TridiagonalSystem,
                     theta_hint: Optional[Sequence[Scalar]] = None) -> Spectrum:
    """Eigenvalues of A and the rank-one factors of its primitive idempotents.

    The eigenvalues, their order and the errors are those of
    ``eigenvalues``; then, per eigenvalue, the cosine vector, its norm and
    a*_r, and the dagger diagonal once.
    """
    field = sys.field
    theta = eigenvalues(sys, theta_hint)
    k = _dagger_diagonal(sys)
    k_form = field.cleared([x.value for x in k])
    ts_form = field.cleared([x.value for x in sys.theta_star])
    vectors, norms, astar = [], [], []
    for t in theta:
        v, residual = cosine_recurrence(sys, t)
        if not residual.is_zero():
            raise InternalInconsistency(f"cosine recurrence residual {residual} at eigenvalue {t}")
        norm, a = _norm_and_dual_a(field, k_form, ts_form, t, v)
        vectors.append(v)
        norms.append(norm)
        astar.append(a)
    return Spectrum(theta, tuple(vectors), tuple(norms), k, sys.theta_star, tuple(astar))


def _norm_and_dual_a(field: FieldSpec, k_form: tuple, ts_form: tuple, theta: Scalar,
                     v: Sequence[Scalar]) -> tuple[Scalar, Scalar]:
    """n = sum_k K_k v[k]^2 and a*_r = sum_k K_k theta*_k v[k]^2 / n for the vector v of theta.

    K and theta* come as ``FieldSpec.cleared`` returns them, v is cleared
    here, and both forms share the weights K_k v[k]^2; in a*_r the
    denominators of K and v cancel and that of theta* stays.
    """
    (k, k_den), (ts, ts_den) = k_form, ts_form
    v_ints, v_den = field.cleared([x.value for x in v])
    weights = [kk * x * x for kk, x in zip(k, v_ints)]
    total = sum(weights)
    norm = field.quotient(total, k_den * v_den * v_den)
    if norm.is_zero():
        raise InternalInconsistency(f"left and right eigenvectors of {theta} are orthogonal")
    return norm, field.quotient(sum(w * t for w, t in zip(weights, ts)), total * ts_den)


def dual_a(sys: TridiagonalSystem, spec: Spectrum, r: int) -> Scalar:
    """The trace scalar a*_r = tr(E_r Astar) = sum_k K_k theta*_k v_r[k]^2 / n_r, read from the spectrum.

    Because E_r has rank one, E_r Astar E_r = a*_r E_r holds with this value.
    A spectrum computed for other dual eigenvalues raises InternalInconsistency.
    """
    if not 0 <= r <= sys.d:
        raise IndexOutOfRange(f"index {r} out of 0..{sys.d}")
    if spec.theta_star != sys.theta_star:
        raise InternalInconsistency("the spectrum was computed for other dual eigenvalues")
    return spec.astar[r]


def _dagger_diagonal(sys: TridiagonalSystem) -> tuple[Scalar, ...]:
    """Diagonal of K with K_0 = 1 and K_{h+1} = K_h b_h / c_{h+1}, so that A^T K = K A."""
    diag = [sys.field.one()]
    for h in range(sys.d):
        diag.append(diag[-1] * sys.b[h] / sys.c[h])
    return tuple(diag)
