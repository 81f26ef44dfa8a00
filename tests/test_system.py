"""Systems, spectra, primitive idempotents, trace scalars, antiautomorphism."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import (add, dagger, identity, matrix, rank_one_idempotents, scale,
                           spectral_sum, trace)
from lpkit.errors import HintInvalid, InternalInconsistency, NotMultiplicityFree
from lpkit.exactmath import GF, RATIONALS, Matrix, rank
from lpkit.instances import mutate_theta_star
from lpkit.system import (TridiagonalSystem, compute_spectrum, dual_a, make_system,
                          realize_matrices, validate_system)

GF101 = GF(101)


def _k2():
    return make_system(RATIONALS, [0, 0, 0], [2, 1], [1, 2], [2, 0, -2])


def test_validate_ok():
    assert validate_system(_k2()) == []


def test_validate_zero_superdiagonal():
    sys_ = make_system(RATIONALS, [0, 0, 0], [0, 1], [1, 2], [2, 0, -2])
    assert any("superdiagonal zero at 0" in v for v in validate_system(sys_))


def test_validate_length():
    sys_ = TridiagonalSystem(2, tuple(RATIONALS.scalar(x) for x in (0, 0, 0)),
                             (RATIONALS.one(),) * 2, (RATIONALS.one(),) * 2,
                             tuple(RATIONALS.scalar(x) for x in (2, 0)), RATIONALS)
    assert any("length" in v for v in validate_system(sys_))


def test_realize_matrices():
    a_mat, astar = realize_matrices(_k2())
    assert a_mat == matrix(RATIONALS, [[0, 2, 0], [1, 0, 1], [0, 2, 0]])
    assert astar == matrix(RATIONALS, [[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    small = make_system(RATIONALS, [5, 7], [1], [1], [0, 1])
    assert realize_matrices(small)[0] == matrix(RATIONALS, [[5, 1], [1, 7]])


def test_compute_spectrum_k2():
    spec = compute_spectrum(_k2())
    assert [t.value for t in spec.theta] == [-2, 0, 2]  # canonical ascending order
    i2 = spec.theta.index(RATIONALS.scalar(2))
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    expected = matrix(RATIONALS, [[quarter, half, quarter]] * 3)
    assert rank_one_idempotents(spec)[i2] == expected


def test_spectrum_axioms_k2():
    spec = compute_spectrum(_k2())
    n = 3
    total = matrix(RATIONALS, [[0] * n] * n)
    a_mat, _ = realize_matrices(_k2())
    idempotents = rank_one_idempotents(spec)
    for i, e in enumerate(idempotents):
        assert rank(e) == 1
        assert a_mat @ e == scale(e, spec.theta[i])
        total = add(total, e)
        for j, f in enumerate(idempotents):
            assert e @ f == (e if i == j else matrix(RATIONALS, [[0] * n] * n))
    assert total == identity(RATIONALS, n)


def test_not_multiplicity_free_over_gf2():
    gf2 = GF(2)
    sys_ = make_system(gf2, [0, 0, 0], [1, 1], [1, 1], [1, 0, 1])
    with pytest.raises(NotMultiplicityFree):
        compute_spectrum(sys_)


def test_hint_invalid():
    sys_ = _k2()
    good = [RATIONALS.scalar(v) for v in (2, 0, -2)]
    bad = [RATIONALS.scalar(v) for v in (2, 0, 1)]
    spec = compute_spectrum(sys_, theta_hint=good)
    assert [t.value for t in spec.theta] == [2, 0, -2]  # hint order preserved
    with pytest.raises(HintInvalid, match="^1 is not an eigenvalue$"):
        compute_spectrum(sys_, theta_hint=bad)
    with pytest.raises(HintInvalid, match="^hint has 2 values, expected 3$"):
        compute_spectrum(sys_, theta_hint=good[:2])
    with pytest.raises(HintInvalid, match="^hint contains duplicates$"):
        compute_spectrum(sys_, theta_hint=[good[0]] * 3)
    # the count is checked before duplicates, and both before any value
    with pytest.raises(HintInvalid, match="^hint has 2 values, expected 3$"):
        compute_spectrum(sys_, theta_hint=[bad[2]] * 2)
    with pytest.raises(HintInvalid, match="^hint contains duplicates$"):
        compute_spectrum(sys_, theta_hint=[bad[2]] * 3)


def test_dual_a():
    sys_ = _k2()
    spec = compute_spectrum(sys_, theta_hint=[RATIONALS.scalar(v) for v in (2, 0, -2)])
    assert dual_a(sys_, spec, 0).is_zero()
    _, astar = realize_matrices(sys_)
    total = RATIONALS.zero()
    for r in range(3):
        total = total + dual_a(sys_, spec, r)
    assert total == trace(astar)


def test_dual_a_k3(k3):
    sys_, spec = k3
    assert dual_a(sys_, spec, 0).is_zero()


def test_dual_a_refuses_a_spectrum_of_other_dual_eigenvalues(k3):
    # a*_r is stored with the spectrum; a theta* mutant keeps A, not a*_r
    sys_, spec = k3
    mutant = mutate_theta_star(sys_, 2, 5)
    assert compute_spectrum(mutant, theta_hint=spec.theta).astar != spec.astar
    with pytest.raises(InternalInconsistency, match="computed for other dual eigenvalues"):
        dual_a(mutant, spec, 0)


def test_dagger_fixes_generators(k3):
    sys_, spec = k3
    a_mat, astar = realize_matrices(sys_)
    assert dagger(sys_, a_mat) == a_mat
    assert dagger(sys_, astar) == astar
    n = sys_.d + 1
    assert dagger(sys_, identity(sys_.field, n)) == identity(sys_.field, n)
    estar0 = Matrix.diagonal(sys_.field, [sys_.field.one()] + [sys_.field.zero()] * sys_.d)
    assert dagger(sys_, estar0) == estar0
    for e in rank_one_idempotents(spec):
        assert dagger(sys_, e) == e


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_dagger_antiautomorphism(seed):
    rng = random.Random(seed)
    d = rng.randrange(1, 6)
    sys_ = make_system(GF101, [rng.randrange(101) for _ in range(d + 1)],
                       [rng.randrange(1, 101) for _ in range(d)],
                       [rng.randrange(1, 101) for _ in range(d)],
                       list(range(d + 1)))
    n = d + 1
    x = matrix(GF101, [[rng.randrange(101) for _ in range(n)] for _ in range(n)])
    y = matrix(GF101, [[rng.randrange(101) for _ in range(n)] for _ in range(n)])
    assert dagger(sys_, x @ y) == dagger(sys_, y) @ dagger(sys_, x)
    assert dagger(sys_, dagger(sys_, x)) == x


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_tridiagonal_powers(seed):
    # zero pattern and boundary product formulas for powers of irreducible
    # tridiagonal matrices
    rng = random.Random(seed)
    d = rng.randrange(1, 7)
    b = [rng.randrange(1, 101) for _ in range(d)]
    c = [rng.randrange(1, 101) for _ in range(d)]
    sys_ = make_system(GF101, [rng.randrange(101) for _ in range(d + 1)],
                       b, c, list(range(d + 1)))
    a_mat, _ = realize_matrices(sys_)
    powers = [identity(GF101, d + 1)]
    for _ in range(d):
        powers.append(powers[-1] @ a_mat)
    for i in range(d + 1):
        for j in range(d + 1):
            for r in range(abs(i - j)):
                assert powers[r].at(i, j).is_zero()
            if i <= j:
                prod = GF101.one()
                for h in range(i, j):
                    prod = prod * sys_.b[h]
                assert powers[j - i].at(i, j) == prod and not prod.is_zero()
            else:
                prod = GF101.one()
                for h in range(j, i):
                    prod = prod * sys_.c[h]
                assert powers[i - j].at(i, j) == prod and not prod.is_zero()


def test_spectral_reconstruction(random_corpus):
    # A = sum theta_i E_i on a slice of the random corpus
    for sys_, spec in random_corpus[:20]:
        a_mat, _ = realize_matrices(sys_)
        n = sys_.d + 1
        recon = matrix(sys_.field, [[0] * n] * n)
        for t, e in zip(spec.theta, rank_one_idempotents(spec)):
            recon = add(recon, scale(e, t))
        assert recon == a_mat == spectral_sum(spec)


def test_spectrum_checks_raise_internal_inconsistency(monkeypatch):
    import lpkit.system
    from lpkit.errors import InternalInconsistency
    sys_ = _k2()
    real = lpkit.system.cosine_recurrence
    monkeypatch.setattr(lpkit.system, "cosine_recurrence",
                        lambda s, t: (real(s, t)[0], RATIONALS.one()))
    with pytest.raises(InternalInconsistency, match="residual"):
        compute_spectrum(sys_)
    monkeypatch.setattr(lpkit.system, "cosine_recurrence", real)
    monkeypatch.setattr(lpkit.system, "_dagger_diagonal",
                        lambda s: (RATIONALS.zero(),) * (s.d + 1))
    with pytest.raises(InternalInconsistency, match="orthogonal"):
        compute_spectrum(sys_)
