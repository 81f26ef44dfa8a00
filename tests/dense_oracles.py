"""Dense reference computations for the rank-one spectral core and the cubic identity.

These are the textbook constructions, independent of the cosine vectors and
the dagger diagonal: Lagrange-product idempotents, adjacency from the dense
products E_i Astar E_j, a*_r as the trace of E_r Astar, and the cubic
operator identity as n x n products; and the theorem route with condition
(i) decided by trying leaf_by_ratio on every ordered pair and (ii) and (iii)
by the Scalar-row witness below.  The tests compare
the production code against them exactly.  The dense E_i and the sum
A = sum theta_i E_i built from the production factors, and the conjugation by
K, let the tests check their algebra.  The small matrix helpers at the top
(construction, the textbook product, identity, sum, difference, scaling,
zero test, transpose, trace, side-by-side join) and the connectivity test
of an adjacency graph are for the tests only.  The product, the elimination,
the norms and a*_r as running sums of field values, one reduction or
division at a time, are the references for the integer-form kernels; so
are the witness of conditions (ii) and (iii) and delta*, built from Scalar
rows and products and solved by the Scalar elimination, and the spectrum
with its characteristic polynomial built as a ``Poly`` of Scalars (the top
of ``monic_polys``), the hint checked by evaluating that ``Poly``, the roots
searched on it and a*_r filled in by ``scalar_dual_a``.  ``char_poly`` is
the ``Poly`` view of ``system.char_form``'s integer form, for comparing it
with those two and with the Berkowitz oracle; ``primitive_form`` writes a
monic ``Poly`` the way ``char_form`` does.
"""
from __future__ import annotations

from dataclasses import replace
from math import gcd, lcm
from operator import mul

from lpkit.errors import (HintInvalid, InternalInconsistency, NotConstant, NotMultiplicityFree,
                          ShapeMismatch)
from lpkit.exactmath import Matrix, Poly, Scalar
from lpkit.leaf import leaf_by_ratio
from lpkit.qpoly import RecurrenceWitness
from lpkit.system import Spectrum, _dagger_diagonal, char_form, cosine_recurrence, realize_matrices
from root_oracles import poly_roots


def matrix(field, rows):
    """A matrix from a list of rows of integers, Fractions or Scalars."""
    return Matrix(field, len(rows), len(rows[0]), [field.scalar(x) for row in rows for x in row])


def naive_matmul(x, y):
    """The textbook product: each entry a running Scalar sum of Scalar products."""
    if x.cols != y.rows:
        raise ShapeMismatch("product shape mismatch")
    entries = []
    for i in range(x.rows):
        for j in range(y.cols):
            acc = x.field.zero()
            for k in range(x.cols):
                acc = acc + x.at(i, k) * y.at(k, j)
            entries.append(acc)
    return Matrix(x.field, x.rows, y.cols, entries)


def raw_matmul(x, y):
    """The product on raw values: one sum of products and one reduction per entry."""
    if x.cols != y.rows:
        raise ShapeMismatch("product shape mismatch")
    field = x.field
    zero = field.zero().value
    left = [e.value for e in x.entries]
    right = [e.value for e in y.entries]
    rows = [left[i * x.cols:(i + 1) * x.cols] for i in range(x.rows)]
    cols = [right[j::y.cols] for j in range(y.cols)]
    out = [Scalar(field, field.reduce(sum(map(mul, row, col), zero))) for row in rows for col in cols]
    return Matrix(field, x.rows, y.cols, out)


def scalar_echelon(rows):
    """In-place reduced row echelon form on Scalars; returns (rows, pivot column list)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((k for k in range(r, nrows) if not rows[k][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for k in range(nrows):
            if k != r and not rows[k][c].is_zero():
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def scalar_rank(m):
    _, pivots = scalar_echelon([m.row(i) for i in range(m.rows)])
    return len(pivots)


def scalar_solve_affine(m, b):
    """(particular solution, nullspace basis) of M x = b, or None, by scalar_echelon."""
    b = list(b)
    if len(b) != m.rows:
        raise ShapeMismatch("right-hand side length mismatch")
    field = m.field
    n = m.cols
    zero, one = field.zero(), field.one()
    aug = [m.row(i) + [b[i]] for i in range(m.rows)]
    if not aug:
        return [zero] * n, [[one if i == j else zero for i in range(n)] for j in range(n)]
    rows, pivots = scalar_echelon(aug)
    if n in pivots:
        return None
    particular = [zero] * n
    for r, c in enumerate(pivots):
        particular[c] = rows[r][n]
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [zero] * n
        vec[fc] = one
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][fc]
        basis.append(vec)
    return particular, basis


def scalar_norm(k, v):
    """n = sum_k K_k v[k]^2 as a running Scalar sum."""
    norm = v[0].field.zero()
    for kk, x in zip(k, v):
        norm = norm + kk * x * x
    return norm


def monic_polys(sys_):
    """The monic sequence p_0..p_{d+1} of p_{i+1} = (x - a_i) p_i - b_{i-1} c_i p_{i-1}, p_0 = 1, on Polys."""
    field = sys_.field
    lam = Poly.x(field)
    seq, prev = [Poly.constant(field, 1)], Poly(field, [])
    for i in range(sys_.d + 1):
        weight = sys_.sup(i - 1) * sys_.sub(i) if i >= 1 else field.zero()
        prev, cur = seq[i], lam * seq[i] - seq[i] * sys_.a[i] - prev * weight
        seq.append(cur)
    return tuple(seq)


def scalar_char_poly(sys_):
    """det(lambda I - A): the top polynomial p_{d+1} of the monic sequence."""
    return monic_polys(sys_)[-1]


def char_poly(sys_):
    """The Poly view of char_form's P: the monic P / lc(P)."""
    field = sys_.field
    form = char_form(sys_)
    return Poly(field, [field.quotient(c, form[-1]) for c in form])


def primitive_form(poly):
    """A monic Poly written as char_form writes it.

    Over Q, its primitive integer multiple with a positive leading
    coefficient; over GF(p), its residue list.
    """
    values = [c.value for c in poly.coeffs]
    if poly.field.is_prime_field:
        return values
    den = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    content = gcd(*ints)
    return [x // content for x in ints]


def scalar_spectrum(sys_, theta_hint=None):
    """compute_spectrum with the characteristic polynomial, the hint check and the roots on Scalars."""
    field = sys_.field
    charpoly = scalar_char_poly(sys_)
    n = sys_.d + 1
    if theta_hint is not None:
        theta = tuple(field.scalar(t) for t in theta_hint)
        if len(theta) != n:
            raise HintInvalid(f"hint has {len(theta)} values, expected {n}")
        if len(set(theta)) != n:
            raise HintInvalid("hint contains duplicates")
        for t in theta:
            if not charpoly(t).is_zero():
                raise HintInvalid(f"{t} is not an eigenvalue")
    else:
        roots = poly_roots(charpoly)
        if len(roots) != n:
            raise NotMultiplicityFree(f"found {len(roots)} distinct in-field eigenvalues, need {n}")
        theta = tuple(r for r, _ in roots)
    k = _dagger_diagonal(sys_)
    vectors, norms = [], []
    for t in theta:
        v, residual = cosine_recurrence(sys_, t)
        if not residual.is_zero():
            raise InternalInconsistency(f"cosine recurrence residual {residual} at eigenvalue {t}")
        norm = scalar_norm(k, v)
        if norm.is_zero():
            raise InternalInconsistency(f"left and right eigenvectors of {t} are orthogonal")
        vectors.append(v)
        norms.append(norm)
    spec = Spectrum(theta, tuple(vectors), tuple(norms), k, sys_.theta_star, ())
    return replace(spec, astar=tuple(scalar_dual_a(sys_, spec, r) for r in range(n)))


def scalar_dual_a(sys_, spec, r):
    """a*_r = sum_k K_k theta*_k v_r[k]^2 / n_r: one raw sum, one reduction, one division."""
    total = sum(kk.value * t.value * x.value * x.value
                for kk, t, x in zip(spec.k, sys_.theta_star, spec.v[r]))
    return Scalar(sys_.field, sys_.field.reduce(total)) / spec.norm[r]


def identity(field, n):
    zero, one = field.zero(), field.one()
    return Matrix(field, n, n, [one if i == j else zero for i in range(n) for j in range(n)])


def add(x, y):
    if (x.rows, x.cols) != (y.rows, y.cols):
        raise ShapeMismatch("addition shape mismatch")
    return Matrix(x.field, x.rows, x.cols, [a + b for a, b in zip(x.entries, y.entries)])


def sub(x, y):
    if (x.rows, x.cols) != (y.rows, y.cols):
        raise ShapeMismatch("subtraction shape mismatch")
    return Matrix(x.field, x.rows, x.cols, [a - b for a, b in zip(x.entries, y.entries)])


def scale(m, s):
    return Matrix(m.field, m.rows, m.cols, [s * e for e in m.entries])


def is_zero_matrix(m):
    return all(e.is_zero() for e in m.entries)


def transpose(m):
    return Matrix(m.field, m.cols, m.rows, [m.at(i, j) for j in range(m.cols) for i in range(m.rows)])


def trace(m):
    return sum((m.at(i, i) for i in range(m.rows)), m.field.zero())


def hstack(x, y):
    """The matrix [x | y]."""
    return Matrix(x.field, x.rows, x.cols + y.cols, [e for i in range(x.rows) for e in x.row(i) + y.row(i)])


def is_connected(g):
    """Whether every vertex of an adjacency graph is reachable from vertex 0."""
    seen = {0}
    stack = [0]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


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
    eye = identity(sys_.field, n)
    out = []
    for i in range(n):
        acc = eye
        denom = sys_.field.one()
        for j in range(n):
            if j != i:
                acc = acc @ sub(a_mat, scale(eye, theta[j]))
                denom = denom * (theta[i] - theta[j])
        out.append(scale(acc, denom.inverse()))
    return tuple(out)


def dense_edges(sys_, idempotents):
    """Edges (i, j), i < j, with E_i Astar E_j != 0."""
    _, astar = realize_matrices(sys_)
    n = len(idempotents)
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if not is_zero_matrix(idempotents[i] @ astar @ idempotents[j])]


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
    lhs = sub(add(as2 @ a_mat, a_mat @ as2), scale(astar @ a_mat @ astar, w.beta))
    lhs = sub(lhs, scale(add(a_mat @ astar, astar @ a_mat), w.gamma_star))
    lhs = sub(lhs, scale(a_mat, w.delta_star))
    rhs = add(add(scale(as2, w.gamma), scale(astar, w.omega)),
              scale(identity(sys_.field, sys_.d + 1), w.eta_star))
    return lhs == rhs


def ratio_pair_scan(sys_, spec):
    """Condition (i) by the full scan: leaf_by_ratio on all d(d+1) ordered pairs."""
    n = sys_.d + 1
    return any(leaf_by_ratio(sys_, spec, r, s).confirmed for r in range(n) for s in range(n) if r != s)


def pair_scan_theorem_route(sys_, spec):
    """(qpoly, failed_condition) of the theorem route, condition (i) by ratio_pair_scan."""
    if not ratio_pair_scan(sys_, spec):
        return False, "i"
    if scalar_solve_condition_ii(sys_.theta_star) is None:
        return False, "ii"
    if scalar_solve_witness(sys_) is None:
        return False, "iii"
    if any(t == sys_.theta_star[0] for t in sys_.theta_star[1:]):
        return False, "iv"
    return True, None


def scalar_solve_condition_ii(theta_star):
    """The solution set of condition (ii) from Scalar rows t*_i beta + gamma* = t*_{i-1} + t*_{i+1}."""
    theta_star = list(theta_star)
    d = len(theta_star) - 1
    field = theta_star[0].field
    rows = []
    rhs = []
    for i in range(1, d):
        rows.append([theta_star[i], field.one()])
        rhs.append(theta_star[i - 1] + theta_star[i + 1])
    m = Matrix(field, len(rows), 2, [x for row in rows for x in row])
    return scalar_solve_affine(m, rhs)


def scalar_extend(theta_star, beta, gamma_star):
    """theta*_{-1}, theta*_0..theta*_d, theta*_{d+1} from the recurrence, in Scalars."""
    theta_star = list(theta_star)
    before = gamma_star + beta * theta_star[0] - theta_star[1]
    after = gamma_star + beta * theta_star[-1] - theta_star[-2]
    return tuple([before] + theta_star + [after])


def scalar_delta_star(theta_star_ext, beta, gamma_star):
    """delta* with the recurrence, independence of i and the product identity checked in Scalars."""
    ext = list(theta_star_ext)
    d = len(ext) - 3
    for i in range(d + 1):
        if gamma_star != ext[i] - beta * ext[i + 1] + ext[i + 2]:
            raise NotConstant(f"recurrence fails at i = {i}")
    values = []
    for i in range(d + 2):
        prev, cur = ext[i], ext[i + 1]
        values.append(prev * prev - beta * prev * cur + cur * cur
                      - gamma_star * (prev + cur))
    if any(v != values[0] for v in values):
        raise NotConstant("expression is not independent of i")
    delta_star = values[0]
    two = beta.field.scalar(2)
    for i in range(d + 1):
        t = ext[i + 1]
        lhs = (t - ext[i]) * (t - ext[i + 2])
        rhs = (two - beta) * t * t - two * gamma_star * t - delta_star
        if lhs != rhs:
            raise InternalInconsistency("product identity violated")
    return delta_star


def scalar_joint_witness(sys_, sol2):
    """The witness for a solution set of condition (ii): Scalar rows over (gamma, omega, eta*, parameters)."""
    field = sys_.field
    (beta0, gstar0), free = sol2
    k = len(free)
    d = sys_.d
    ext0 = list(scalar_extend(sys_.theta_star, beta0, gstar0))
    d_before = [fv[1] + fv[0] * sys_.theta_star[0] for fv in free]
    d_after = [fv[1] + fv[0] * sys_.theta_star[d] for fv in free]
    zero = field.zero()
    rows = []
    rhs = []
    for i in range(d + 1):
        t = sys_.theta_star[i]
        row = [t * t, t, field.one()]
        const = sys_.a[i] * (t - ext0[i]) * (t - ext0[i + 2])
        param_coeffs = [zero] * k
        if i == 0:
            factor = sys_.a[0] * (t - ext0[2])
            param_coeffs = [factor * (-dv) for dv in d_before]
        if i == d:
            factor = sys_.a[d] * (t - ext0[d])
            param_coeffs = [pc + factor * (-dv) for pc, dv in zip(param_coeffs, d_after)]
        rows.append(row + [-pc for pc in param_coeffs])
        rhs.append(const)
    m = Matrix(field, len(rows), 3 + k, [x for row in rows for x in row])
    joint = scalar_solve_affine(m, rhs)
    if joint is None:
        return None
    particular, _ = joint
    gamma, omega, eta_star = particular[0], particular[1], particular[2]
    beta = beta0
    gstar = gstar0
    for t_val, fv in zip(particular[3:], free):
        beta = beta + t_val * fv[0]
        gstar = gstar + t_val * fv[1]
    ext = scalar_extend(sys_.theta_star, beta, gstar)
    delta_star = scalar_delta_star(ext, beta, gstar)
    return RecurrenceWitness(beta, gstar, gamma, omega, eta_star, delta_star, ext)


def scalar_solve_witness(sys_):
    """solve_witness from the Scalar rows in two stages: condition (ii), then the joint solve with (iii).

    Production solves both conditions in one elimination, so this stays an independent reference.
    """
    sol2 = scalar_solve_condition_ii(sys_.theta_star)
    return None if sol2 is None else scalar_joint_witness(sys_, sol2)
