"""Both Q-polynomiality routes, the recurrence witness, and the cubic identity."""
from __future__ import annotations

import pathlib

import pytest

from collections import Counter

from dense_oracles import bumped_witnesses, pair_scan_theorem_route, ratio_pair_scan
import lpkit.leaf
import lpkit.qpoly
from lpkit.cli import main
from lpkit.errors import NotConstant, RouteUnavailable
from lpkit.exactmath import GF, RATIONALS, Matrix, solve_affine
from lpkit.instances import affine_transform, gen_krawtchouk, gen_random, mutate_theta_star
from lpkit.qpoly import (compute_delta_star, extend_dual_eigenvalues,
                         is_q_polynomial, solve_condition_ii, solve_witness, verify_aw2)
from lpkit.system import TridiagonalSystem, compute_spectrum, make_system


DATA = pathlib.Path(__file__).resolve().parent / "data"


def _scalars(*values):
    return [RATIONALS.scalar(v) for v in values]


def test_solve_condition_ii_unique():
    particular, null = solve_condition_ii(_scalars(3, 1, -1, -3))
    assert [x.value for x in particular] == [2, 0]
    assert null == []
    particular, null = solve_condition_ii(_scalars(0, 1, 3, 8))
    assert [x.value for x in particular] == [3, 0]
    assert null == []


def test_solve_condition_ii_underdetermined_d2():
    # single equation 0*beta + gamma* = 0: one free direction
    _, null = solve_condition_ii(_scalars(2, 0, -2))
    assert len(null) == 1


def test_extend_dual_eigenvalues():
    ext = extend_dual_eigenvalues(_scalars(3, 1, -1, -3),
                                  RATIONALS.scalar(2), RATIONALS.zero())
    assert [x.value for x in ext] == [5, 3, 1, -1, -3, -5]
    ext = extend_dual_eigenvalues(_scalars(1, 2), RATIONALS.zero(), RATIONALS.zero())
    assert [x.value for x in ext] == [-2, 1, 2, -1]


def test_compute_delta_star_k3():
    ext = tuple(_scalars(5, 3, 1, -1, -3, -5))
    ds = compute_delta_star(ext, RATIONALS.scalar(2), RATIONALS.zero())
    assert ds.value == 4
    constant = tuple(_scalars(7, 7, 7, 7))
    assert compute_delta_star(constant, RATIONALS.scalar(2), RATIONALS.zero()).is_zero()
    with pytest.raises(NotConstant):
        compute_delta_star(tuple(_scalars(0, 1, 5, 2)), RATIONALS.scalar(2),
                           RATIONALS.zero())


def test_solve_witness_k3(k3):
    sys_, _ = k3
    w = solve_witness(sys_)
    assert [x.value for x in (w.beta, w.gamma_star, w.gamma, w.omega, w.eta_star,
                              w.delta_star)] == [2, 0, 0, 0, 0, 4]
    assert [x.value for x in w.theta_star_ext] == [5, 3, 1, -1, -3, -5]


def test_verify_aw2_k3_and_perturbations(k3):
    w, *bumps = bumped_witnesses(solve_witness(k3[0]))
    assert verify_aw2(k3[0], w)
    assert not any(verify_aw2(k3[0], bumped) for bumped in bumps)


def test_is_q_polynomial_k3(k3):
    sys_, spec = k3
    direct = is_q_polynomial(sys_, spec, route="direct")
    theorem = is_q_polynomial(sys_, spec, route="theorem")
    assert direct.qpoly and theorem.qpoly
    assert direct.leonard_order == (0, 1, 2, 3)
    assert theorem.witness.beta.value == 2


def test_mutants_fail_both_routes(k3):
    sys_, _ = k3
    breaks_recurrence = mutate_theta_star(sys_, 2, 5)
    spec = compute_spectrum(breaks_recurrence)
    d1 = is_q_polynomial(breaks_recurrence, spec, route="direct")
    t1 = is_q_polynomial(breaks_recurrence, spec, route="theorem")
    assert not d1.qpoly and not t1.qpoly

    duplicates_theta_star_0 = mutate_theta_star(sys_, 1, 3)
    spec = compute_spectrum(duplicates_theta_star_0)
    d2 = is_q_polynomial(duplicates_theta_star_0, spec, route="direct")
    t2 = is_q_polynomial(duplicates_theta_star_0, spec, route="theorem")
    assert not d2.qpoly and not t2.qpoly


def test_scalar_astar_not_qpoly():
    sys_ = make_system(RATIONALS, [0, 0, 0], [2, 1], [1, 2], [5, 5, 5])
    spec = compute_spectrum(sys_)
    assert not is_q_polynomial(sys_, spec, route="direct").qpoly


def test_theorem_route_needs_d3(k2):
    sys_, spec = k2
    with pytest.raises(RouteUnavailable):
        is_q_polynomial(sys_, spec, route="theorem")
    assert is_q_polynomial(sys_, spec, route="direct").qpoly


def test_leonard_ordering(k3):
    sys_, spec = k3
    assert is_q_polynomial(sys_, spec).leonard_order == (0, 1, 2, 3)
    scalar = make_system(RATIONALS, [0, 0, 0], [2, 1], [1, 2], [5, 5, 5])
    verdict = is_q_polynomial(scalar, compute_spectrum(scalar))
    assert not verdict.qpoly and verdict.leonard_order is None


def test_gamma_recurrence_along_path(krawtchouk_corpus):
    # along the Leonard order: theta_{i-1} - beta theta_i + theta_{i+1} = gamma,
    # and the distance-2 relation gamma = theta_i - beta theta_r + theta_j
    for sys_, spec in krawtchouk_corpus:
        if sys_.d < 3:
            continue
        v = is_q_polynomial(sys_, spec, route="direct")
        assert v.qpoly
        order = v.leonard_order
        w = solve_witness(sys_)
        theta = [spec.theta[k] for k in order]
        for i in range(1, sys_.d):
            assert theta[i - 1] - w.beta * theta[i] + theta[i + 1] == w.gamma
        for r in range(1, sys_.d):
            i, j = r - 1, r + 1  # unique common neighbor r of i and j on the path
            assert w.gamma == theta[i] - w.beta * theta[r] + theta[j]


def test_eigenvalue_ratio_constant(krawtchouk_corpus):
    # (theta_{i-2}-theta_{i+1})/(theta_{i-1}-theta_i) = beta + 1, both families
    for sys_, spec in krawtchouk_corpus:
        if sys_.d < 4:
            continue
        v = is_q_polynomial(sys_, spec, route="direct")
        order = v.leonard_order
        theta = [spec.theta[k] for k in order]
        ts = list(sys_.theta_star)
        expected = solve_witness(sys_).beta + sys_.field.one()
        for i in range(2, sys_.d - 1):
            assert (theta[i - 2] - theta[i + 1]) / (theta[i - 1] - theta[i]) == expected
            assert (ts[i - 2] - ts[i + 1]) / (ts[i - 1] - ts[i]) == expected


def test_condition_iii_solvable_with_witness_gamma(krawtchouk_corpus):
    # on Leonard instances the quadratic fit holds with gamma fixed to the value
    # from the eigenvalue recurrence: a_i (t*_i - t*_{i-1})(t*_i - t*_{i+1}) = gamma t*_i^2 + ...
    for sys_, _ in krawtchouk_corpus:
        if sys_.d < 3:
            continue
        w = solve_witness(sys_)
        ext = extend_dual_eigenvalues(sys_.theta_star, w.beta, w.gamma_star)
        for i, t in enumerate(sys_.theta_star):
            assert sys_.a[i] * (t - ext[i]) * (t - ext[i + 2]) == w.gamma * t * t + w.omega * t + w.eta_star


def test_route_agreement_random(random_corpus):
    sample = [(s, sp) for s, sp in random_corpus if 3 <= s.d <= 6][:20]
    for sys_, spec in sample:
        d = is_q_polynomial(sys_, spec, route="direct")
        t = is_q_polynomial(sys_, spec, route="theorem")
        assert d.qpoly == t.qpoly


def _single_theta_star_mutants(sys_):
    """theta*_k replaced by another theta*_j (a collision), or by theta*_k + 1, for every k."""
    ts = sys_.theta_star
    one = sys_.field.one()
    return [mutate_theta_star(sys_, k, value) for k in range(sys_.d + 1)
            for value in [t for j, t in enumerate(ts) if j != k] + [ts[k] + one]]


def _plant_leaf(sys_, spec, r, s):
    """The system with a non-constant theta* that makes the forms of r with every j != s vanish."""
    n = sys_.d + 1
    rows = [[kk * spec.v[r][k] * spec.v[j][k] for k, kk in enumerate(spec.k)]
            for j in range(n) if j not in (r, s)]
    _, basis = solve_affine(Matrix(sys_.field, len(rows), n, [x for row in rows for x in row]),
                            [sys_.field.zero()] * len(rows))
    theta_star = next(v for v in basis if any(x != v[0] for x in v))
    return TridiagonalSystem(sys_.d, sys_.a, sys_.b, sys_.c, tuple(theta_star), sys_.field)


def test_theorem_route_matches_the_full_pair_scan(full_corpus, random_corpus):
    # the corpus, the affine images of criterion 5, the single-theta* mutants of Krawtchouk
    # d = 3..8 over Q and GF(101) (mutating theta* leaves A alone, so each mutant takes the
    # same hint), planted leaves, which fail (ii) or (iii), and alternating
    # theta* = (0, 1, 0, 1), which fails (iv)
    cases = [(sys_, spec) for sys_, spec in full_corpus if sys_.d >= 3]
    for sys_, _ in list(cases):
        if sys_.field == RATIONALS:
            for params in ((1, 5, 1, 0), (2, 0, 3, 1)):
                image = affine_transform(sys_, *params)
                cases.append((image, compute_spectrum(image)))
    for field in (RATIONALS, GF(101)):
        for d in range(3, 9):
            sys_, theta = gen_krawtchouk(d, field)
            cases += [(mutant, compute_spectrum(mutant, theta_hint=theta))
                      for mutant in _single_theta_star_mutants(sys_)]
    sources = [(sys_, spec) for sys_, spec in random_corpus if sys_.d >= 3][:40]
    planted = [_plant_leaf(sys_, spec, k % (sys_.d + 1), (k + 2) % (sys_.d + 1))
               for k, (sys_, spec) in enumerate(sources)]
    cases += [(sys_, compute_spectrum(sys_, theta_hint=spec.theta))
              for sys_, (_, spec) in zip(planted, sources)]
    for p, a, b, c in ((13, [10, 6, 10, 6], [4, 2, 8], [1, 7, 7]),
                       (7, [0, 3, 0, 3], [6, 2, 4], [6, 1, 5])):
        sys_ = make_system(GF(p), a, b, c, [0, 1, 0, 1])
        cases.append((sys_, compute_spectrum(sys_)))
    seen = Counter()
    for sys_, spec in cases:
        verdict = is_q_polynomial(sys_, spec, route="theorem")
        assert (verdict.qpoly, verdict.failed_condition) == pair_scan_theorem_route(sys_, spec)
        seen[verdict.failed_condition] += 1
    assert set(seen) == {None, "i", "ii", "iii", "iv"} and len(cases) == 762


def test_theorem_route_condition_i_is_linear_in_dual_a_calls(monkeypatch):
    # a leafless d = 8 pair: the full pair scan computes a*_r d(d+1) = 72 times
    sys_ = gen_random(8, GF(10007), 0)
    spec = compute_spectrum(sys_)
    assert not ratio_pair_scan(sys_, spec)
    calls = []
    original = lpkit.qpoly.dual_a

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lpkit.qpoly, "dual_a", counting)
    monkeypatch.setattr(lpkit.leaf, "dual_a", counting)
    assert is_q_polynomial(sys_, spec, route="theorem").failed_condition == "i"
    assert 0 < len(calls) <= 2 * (sys_.d + 1)


def _counting_witness_eliminations(monkeypatch):
    """Records the row count of every qpoly.solve_rows call in five unknowns, the witness's."""
    calls = []
    original = lpkit.qpoly.solve_rows

    def counting(field, rows, n):
        if n == 5:
            calls.append(len(rows))
        return original(field, rows, n)

    monkeypatch.setattr(lpkit.qpoly, "solve_rows", counting)
    return calls


def test_check_both_solves_the_witness_once(monkeypatch, capsys):
    # a positive d = 4 pair: the theorem route solves (ii) and (iii) and check prints its witness
    # beside the direct verdict; either route alone still solves and prints it once
    path = str(DATA / "k4_affine.lp")
    calls = _counting_witness_eliminations(monkeypatch)
    assert main(["check", path, "--route", "both", "--machine"]) == 0
    witness = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("witness ")]
    assert len(calls) == 1 and len(witness) == 2 and witness[0] == witness[1]
    for route in ("direct", "theorem"):
        calls.clear()
        assert main(["check", path, "--route", route, "--machine"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(calls) == 1 and [ln for ln in lines if ln.startswith("witness ")] == witness[:1]


def test_a_handed_off_witness_is_read_only_for_its_own_system():
    # planted leaves keep the positive pair's A and hint order and pass (i); each is decided
    # right after the positive pair's witness was solved, which the theorem route must not
    # read for a planted system: those that fail (ii) would pass with it
    sys_, theta = gen_krawtchouk(5)
    spec = compute_spectrum(sys_, theta_hint=theta)
    seen = Counter()
    for r in range(6):
        for s in range(6):
            if r == s:
                continue
            planted = _plant_leaf(sys_, spec, r, s)
            planted_spec = compute_spectrum(planted, theta_hint=theta)
            assert is_q_polynomial(sys_, spec, route="direct").qpoly
            assert solve_witness(sys_) is not None
            verdict = is_q_polynomial(planted, planted_spec, route="theorem")
            expected = pair_scan_theorem_route(planted, planted_spec)
            assert (verdict.qpoly, verdict.failed_condition) == expected
            seen[verdict.failed_condition] += 1
    assert seen == {"ii": 10, "iv": 18, None: 2}


def test_solve_witness_is_one_elimination_in_five_unknowns(monkeypatch):
    # (ii) and (iii) together: d - 1 + d + 1 rows in (gamma, omega, eta*, beta, gamma*), on a
    # positive pair and on a mutant that fails (ii)
    sys_, _ = gen_krawtchouk(5)
    mutant = mutate_theta_star(sys_, 2, sys_.theta_star[2] + sys_.field.one())
    calls = []
    original = lpkit.qpoly.solve_rows

    def counting(field, rows, n):
        calls.append((len(rows), n))
        return original(field, rows, n)

    monkeypatch.setattr(lpkit.qpoly, "solve_rows", counting)
    assert solve_witness(sys_) is not None and calls == [(10, 5)]
    assert solve_witness(mutant) is None and calls == [(10, 5)] * 2


def test_the_direct_route_runs_no_witness_elimination(monkeypatch):
    # a positive d = 5 pair: the direct route decides from the graph alone; only the theorem
    # route eliminates (ii) and (iii), each time it is asked
    sys_, theta = gen_krawtchouk(5)
    spec = compute_spectrum(sys_, theta_hint=theta)
    calls = _counting_witness_eliminations(monkeypatch)
    direct = is_q_polynomial(sys_, spec, route="direct")
    assert direct.qpoly and direct.witness is None and calls == []
    theorem = is_q_polynomial(sys_, spec, route="theorem")
    assert theorem.qpoly and theorem.witness == solve_witness(sys_) and calls == [10, 10]
