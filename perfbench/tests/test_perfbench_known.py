"""The benchmark's known-answer generators and its own condition-(ii) check."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from perfbench import known as K

Q = K.Field()
GF = K.Field(101)


def _charpoly_at(inst: K.Instance, x):
    """det(xI - A) by the tridiagonal three-term recurrence, evaluated at x."""
    f = inst.field
    prev, cur = f(0), f(1)
    for k in range(inst.d + 1):
        w = inst.b[k - 1] * inst.c[k - 1] if k else 0
        prev, cur = cur, f.norm((x - inst.a[k]) * cur - w * prev)
    return cur


@pytest.mark.parametrize("field", [Q, GF], ids=["Q", "GF101"])
def test_recurrence_check_accepts_krawtchouk_and_rejects_a_mutation(field):
    rng = random.Random(0)
    for d in range(4, 9):
        inst = K.random_image(rng, K.krawtchouk(field, d))
        assert K.recurrence_holds(field, inst.theta_star)
        ts = list(inst.theta_star)
        ts[d // 2] = field.norm(ts[d // 2] + 1)
        assert not K.recurrence_holds(field, ts)


def test_recurrence_check_small_cases():
    assert K.recurrence_holds(Q, [Q(1), Q(5), Q(2)])          # one equation: always solvable
    assert K.recurrence_holds(Q, [Q(0), Q(1), Q(1), Q(1), Q(2)]) is False
    assert K.recurrence_holds(Q, [Q(1), Q(1), Q(1), Q(1)])    # constant: beta free


@pytest.mark.parametrize("field", [Q, GF], ids=["Q", "GF101"])
def test_images_keep_the_spectrum_and_mutations_break_ii(field):
    rng = random.Random(1)
    for d in (4, 7):
        inst = K.random_image(rng, K.krawtchouk(field, d))
        assert inst.expected and all(_charpoly_at(inst, t) == 0 for t in inst.theta)
        assert len(set(inst.theta)) == d + 1 and 0 not in inst.b and 0 not in inst.c
        neg = K.mutate(rng, inst)
        assert not neg.expected and not K.recurrence_holds(field, neg.theta_star)
        assert len(set(neg.theta_star)) == d + 1
        assert sum(x != y for x, y in zip(neg.theta_star, inst.theta_star)) == 1


def test_random_split_has_its_chosen_spectrum_and_breaks_ii():
    rng = random.Random(2)
    for d in (4, 5, 6):
        inst = K.random_split(rng, GF, d)
        assert all(_charpoly_at(inst, t) == 0 for t in inst.theta)
        assert K.splits(GF, inst.a, inst.b, inst.c)
        assert not inst.expected and not K.recurrence_holds(GF, inst.theta_star)


def test_splits_rejects_an_irreducible_factor():
    # A = [[0, 1], [-1, 0]] has char poly x^2 + 1: no root mod 103, two roots mod 101
    assert not K.splits(K.Field(103), [0, 0], [1], [102])
    assert K.splits(K.Field(101), [0, 0], [1], [100])


def test_path_order_uses_lpkits_canonical_order():
    # lpkit sorts rationals by (numerator, denominator): 0, 1, 1/2
    inst = K.transform(K.krawtchouk(Q, 2), Fraction(1, 4), Fraction(1, 2), 1, 0, [1, 1])
    assert inst.theta == (Q(1), Q(Fraction(1, 2)), Q(0))
    assert K.path_order(inst) == (0, 2, 1)
    lpkit = pytest.importorskip("lpkit")
    parsed = lpkit.parse_instance(inst.text(hint=False))
    spec = lpkit.compute_spectrum(parsed.system)
    assert lpkit.is_q_polynomial(parsed.system, spec).leonard_order == (0, 2, 1)


def test_text_round_trips_through_parse():
    inst = K.mutate(random.Random(3), K.random_image(random.Random(4), K.krawtchouk(Q, 5)))
    got = K.parse(inst.text(hint=True), Q)
    assert got["d"] == 5 and got["field"] == "rationals"
    assert got["theta_star"] == list(inst.theta_star) and got["c"] == list(inst.c)


def test_generated_verdicts_match_lpkit():
    lpkit = pytest.importorskip("lpkit")
    rng = random.Random(5)
    cases = [K.random_image(rng, K.krawtchouk(Q, 4)), K.mutate(rng, K.krawtchouk(Q, 5)),
             K.random_image(rng, K.krawtchouk(GF, 4)), K.random_split(rng, GF, 4)]
    for inst in cases:
        parsed = lpkit.parse_instance(inst.text(hint=False))
        spec = lpkit.compute_spectrum(parsed.system)
        for route in ("direct", "theorem"):
            verdict = lpkit.is_q_polynomial(parsed.system, spec, route=route)
            assert verdict.qpoly is inst.expected
        if inst.expected:
            order = lpkit.is_q_polynomial(parsed.system, spec).leonard_order
            assert order == K.path_order(inst)
