"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The corpus is the Krawtchouk family (d = 2..8 over the rationals) plus 200
random multiplicity-free prime-field instances (d <= 6, p in {101, 10007})
from the session fixtures.  Everything is exact; there are no tolerances.
"""
from __future__ import annotations

import random
from functools import wraps

from dense_oracles import add, bumped_witnesses, dagger, identity, matrix, rank_one_idempotents
from lpkit.cli import main
from lpkit.cosine import constant_row_sum, cosine_sequence, rebase_to_row_sum, u_polys
from lpkit.delta import build_delta
from lpkit.errors import CosineVanishes, PreconditionViolated
from lpkit.exactmath import GF, RATIONALS, Matrix, char_poly_oracle, rank
from lpkit.instances import affine_transform, gen_krawtchouk, mutate_theta_star
from lpkit.leaf import (appendix_a, appendix_b, leaf_by_ratio,
                        leaf_by_recurrence, leaf_by_subspace)
from lpkit.qpoly import is_q_polynomial, solve_witness, verify_aw2
from lpkit.system import compute_spectrum, make_system, realize_matrices

GF101 = GF(101)


def criterion(num, title):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL — {title}")
                raise
            print(f"criterion {num}: PASS — {title}")
        return wrapper
    return deco


@criterion(1, "idempotent axioms on the full corpus")
def test_criterion_1(full_corpus):
    for sys_, spec in full_corpus:
        n = sys_.d + 1
        field = sys_.field
        zero = matrix(field, [[0] * n] * n)
        total = zero
        idempotents = rank_one_idempotents(spec)
        for i, e in enumerate(idempotents):
            assert rank(e) == 1
            total = add(total, e)
            for j, f in enumerate(idempotents):
                assert e @ f == (e if i == j else zero)
        assert total == identity(field, n)


@criterion(2, "recurrence characteristic polynomial matches the generic oracle")
def test_criterion_2(full_corpus):
    for sys_, _ in full_corpus:
        a_mat, _ = realize_matrices(sys_)
        assert u_polys(sys_)[sys_.d + 1] == char_poly_oracle(a_mat)


@criterion(3, "five leaf methods agree with the graph on every admissible pair")
def test_criterion_3(full_corpus, random_corpus):
    random_ids = {id(s) for s, _ in random_corpus}
    random_pairs = 0
    random_denials = 0
    for sys_, spec in full_corpus:
        g = build_delta(sys_, spec)
        row_sum = constant_row_sum(sys_)
        for r in range(g.n):
            for s in range(g.n):
                if r == s:
                    continue
                truth = g.degree(r) == 1 and g.adj[r][s]
                assert leaf_by_subspace(sys_, spec, r, s).confirmed == truth
                assert leaf_by_recurrence(sys_, spec, r, s).confirmed == truth
                assert leaf_by_ratio(sys_, spec, r, s).confirmed == truth
                if sys_.d >= 2 and spec.theta[r] != spec.theta[s]:
                    try:
                        assert appendix_a(sys_, spec, r, s,
                                          paranoid=True).confirmed == truth
                    except PreconditionViolated:
                        pass
                    if row_sum is not None and row_sum == spec.theta[r]:
                        assert appendix_b(sys_, spec, r, s).confirmed == truth
                if id(sys_) in random_ids:
                    random_pairs += 1
                    random_denials += not truth
    assert random_denials * 10 >= random_pairs * 3  # >= 30% denial coverage


@criterion(4, "direct route equals theorem route, including mutated negatives")
def test_criterion_4(full_corpus, random_corpus):
    def both_agree(sys_, spec):
        d = is_q_polynomial(sys_, spec, route="direct")
        t = is_q_polynomial(sys_, spec, route="theorem")
        assert d.qpoly == t.qpoly
        return d.qpoly

    for sys_, spec in full_corpus:
        if 3 <= sys_.d <= 6:
            both_agree(sys_, spec)

    rng = random.Random(20260823)
    negatives = 0
    sources = [s for s, _ in full_corpus if 3 <= s.d <= 4][:12]
    for sys_ in sources:
        collide = mutate_theta_star(sys_, 1 + rng.randrange(sys_.d),
                                    sys_.theta_star[0])
        jumbled = mutate_theta_star(sys_, 2, sys_.theta_star[2]
                                    + sys_.field.scalar(1 + rng.randrange(5)))
        for mutant in (collide, jumbled):
            if not both_agree(mutant, compute_spectrum(mutant)):
                negatives += 1
    assert negatives >= 20


@criterion(5, "cubic operator identity holds, and breaks under any perturbation")
def test_criterion_5(full_corpus):
    one_off = [(1, 0, 1, 0), (1, 5, 1, 0), (2, 0, 3, 1)]
    checked = 0
    for sys_, spec in full_corpus:
        variants = [(sys_, spec)]
        if sys_.field == RATIONALS:
            for params in one_off[1:]:
                t = affine_transform(sys_, *params)
                variants.append((t, compute_spectrum(t)))
        for vs, vspec in variants:
            if vs.d < 3 or not is_q_polynomial(vs, vspec, route="direct").qpoly:
                continue
            w, *bumps = bumped_witnesses(solve_witness(vs))
            assert verify_aw2(vs, w) and not any(verify_aw2(vs, bumped) for bumped in bumps)
            checked += 1
    assert checked >= 6


@criterion(6, "rebase succeeds iff no cosine vanishes, and fixes the row sums")
def test_criterion_6(full_corpus):
    for sys_, spec in full_corpus:
        for theta in spec.theta:
            alpha = cosine_sequence(sys_, theta)
            vanishing = any(x.is_zero() for x in alpha)
            try:
                out = rebase_to_row_sum(sys_, theta)
            except CosineVanishes:
                assert vanishing
                continue
            assert not vanishing
            for i in range(out.d + 1):
                assert out.sub(i) + out.a[i] + out.sup(i) == theta


@criterion(7, "power zero pattern and products on 50 random tridiagonal matrices")
def test_criterion_7():
    rng = random.Random(7)
    for _ in range(50):
        d = rng.randrange(1, 7)
        sys_ = make_system(GF101, [rng.randrange(101) for _ in range(d + 1)],
                           [rng.randrange(1, 101) for _ in range(d)],
                           [rng.randrange(1, 101) for _ in range(d)],
                           list(range(d + 1)))
        a_mat, _ = realize_matrices(sys_)
        powers = [identity(GF101, d + 1)]
        for _ in range(d):
            powers.append(powers[-1] @ a_mat)
        for i in range(d + 1):
            for j in range(d + 1):
                gap = abs(i - j)
                for r in range(gap):
                    assert powers[r].at(i, j).is_zero()
                if i <= j:
                    prod = GF101.one()
                    for h in range(i, j):
                        prod = prod * sys_.b[h]
                else:
                    prod = GF101.one()
                    for h in range(j, i):
                        prod = prod * sys_.c[h]
                assert powers[gap].at(i, j) == prod and not prod.is_zero()


@criterion(8, "antiautomorphism fixes the generators and reverses products")
def test_criterion_8(full_corpus):
    rng = random.Random(8)
    for sys_, spec in full_corpus[:20]:
        field = sys_.field
        n = sys_.d + 1
        a_mat, astar = realize_matrices(sys_)
        assert dagger(sys_, a_mat) == a_mat
        assert dagger(sys_, astar) == astar
        estar0 = Matrix.diagonal(field, [field.one()] + [field.zero()] * sys_.d)
        assert dagger(sys_, estar0) == estar0
        for e in rank_one_idempotents(spec):
            assert dagger(sys_, e) == e
        draw = ((lambda: rng.randrange(101)) if field.is_prime_field
                else (lambda: rng.randrange(-9, 10)))
        x = matrix(field, [[draw() for _ in range(n)] for _ in range(n)])
        y = matrix(field, [[draw() for _ in range(n)] for _ in range(n)])
        assert dagger(sys_, x @ y) == dagger(sys_, y) @ dagger(sys_, x)
        assert dagger(sys_, dagger(sys_, x)) == x


@criterion(9, "worked-example regression for the d = 3 positive control")
def test_criterion_9(k3):
    sys_, spec = k3
    w = solve_witness(sys_)
    assert w.beta.value == 2
    assert w.gamma_star.is_zero()
    assert w.delta_star.value == 4
    assert w.gamma.is_zero() and w.omega.is_zero() and w.eta_star.is_zero()
    g = build_delta(sys_, spec)
    assert [i for i in range(g.n) if g.degree(i) <= 1] == [0, 3]  # the leaves
    assert appendix_a(sys_, spec, 0, 1).kappa.is_zero()
    alpha = cosine_sequence(sys_, RATIONALS.scalar(1))
    assert [str(x) for x in alpha] == ["1", "1/3", "-1/3", "-1"]


@criterion(10, "CLI exit codes across a scripted scenario matrix")
def test_criterion_10(tmp_path):
    k3_path = tmp_path / "k3.lp"
    k2_path = tmp_path / "k2.lp"
    bad_path = tmp_path / "bad.lp"
    bad_path.write_text("field rationals\nd 2\na 0.5 0 0\nb 2 1\nc 1 2\n"
                        "theta_star 2 0 -2\n")
    nonq_path = tmp_path / "nonq.lp"
    nonq_path.write_text("field rationals\nd 2\na 0 0 0\nb 2 1\nc 1 2\n"
                         "theta_star 5 5 5\n")
    scenarios = [
        (["gen", "krawtchouk", "--d", "3", "-o", str(k3_path)], 0),
        (["gen", "krawtchouk", "--d", "2", "-o", str(k2_path)], 0),
        (["gen", "krawtchouk", "--d", "3", "--field", "5"], 2),
        (["gen", "random", "--d", "3", "--field", "101", "--seed", "1",
          "-o", str(tmp_path / "r.lp")], 0),
        (["check", str(k3_path), "--route", "both"], 0),
        (["check", str(nonq_path)], 1),
        (["check", str(k2_path), "--route", "theorem"], 2),
        (["check", str(bad_path)], 2),
        (["delta", str(k3_path)], 0),
        (["leaf", str(k3_path), "--r", "0", "--s", "1", "--method", "subspace"], 0),
        (["leaf", str(k3_path), "--r", "1", "--s", "0", "--method", "appendix-a"], 1),
        (["leaf", str(k3_path), "--r", "0", "--s", "0", "--method", "ratio"], 2),
        (["leaf", str(k3_path), "--r", "1", "--s", "2", "--method", "appendix-b"], 2),
        (["verify-aw2", str(k3_path)], 0),
        (["rebase", str(k3_path), "--theta", "1", "-o", str(tmp_path / "rb.lp")], 0),
        (["rebase", str(k2_path), "--theta", "0"], 1),
        (["rebase", str(k3_path), "--theta", "7"], 2),
        (["check", "no-such-file.lp"], 2),
    ]
    assert len(scenarios) >= 12
    for argv, expected in scenarios:
        assert main(argv) == expected, f"{argv} expected exit {expected}"
