"""Generators, affine closure, mutation, and the instance file format."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpkit import instances
from lpkit.delta import build_delta
from lpkit.errors import (CharacteristicTooSmall, GenerationFailed, IndexOutOfRange,
                          InternalInconsistency, ParseError, ZeroScale)
from lpkit.exactmath import GF, RATIONALS
from lpkit.instances import (Instance, affine_transform, gen_krawtchouk,
                             gen_random, mutate_theta_star, parse_instance,
                             serialize_instance)
from lpkit.qpoly import is_q_polynomial, solve_witness
from lpkit.system import TridiagonalSystem, compute_spectrum, validate_system

GF101 = GF(101)


def test_gen_krawtchouk_values():
    sys2, theta2 = gen_krawtchouk(2)
    assert [x.value for x in sys2.b] == [2, 1]
    assert [x.value for x in sys2.c] == [1, 2]
    assert [t.value for t in theta2] == [2, 0, -2]
    sys3, theta3 = gen_krawtchouk(3)
    assert [t.value for t in theta3] == [3, 1, -1, -3]
    assert [x.value for x in sys3.theta_star] == [3, 1, -1, -3]


def test_gen_krawtchouk_characteristic_policy():
    with pytest.raises(CharacteristicTooSmall):
        gen_krawtchouk(2, GF(3))  # p = 3 <= 2d = 4
    sys_, theta = gen_krawtchouk(2, GF(7))
    spec = compute_spectrum(sys_, theta_hint=theta)
    assert len(set(t.value for t in spec.theta)) == 3


def test_krawtchouk_is_q_polynomial(krawtchouk_corpus):
    for sys_, spec in krawtchouk_corpus:
        assert is_q_polynomial(sys_, spec, route="direct").qpoly
        if sys_.d >= 3:
            w = solve_witness(sys_)
            assert w.beta.value == 2
            assert w.gamma_star.is_zero()
            assert w.gamma.is_zero()


def test_affine_transform_examples(k3):
    sys_, spec = k3
    assert affine_transform(sys_, 1, 0, 1, 0) == sys_
    shifted = affine_transform(sys_, 1, 5, 1, 0)
    shifted_spec = compute_spectrum(shifted)
    assert sorted(t.value for t in shifted_spec.theta) == [2, 4, 6, 8]
    scaled = affine_transform(sys_, 2, 0, 3, 1)
    assert [x.value for x in scaled.theta_star] == [10, 4, -2, -8]
    with pytest.raises(ZeroScale):
        affine_transform(sys_, 0, 1, 1, 0)


def test_affine_transform_preserves_verdicts(k3):
    sys_, spec = k3
    scaled = affine_transform(sys_, 2, 0, 3, 1)
    sspec = compute_spectrum(scaled)
    assert build_delta(scaled, sspec).edges() == build_delta(sys_, spec).edges()
    assert is_q_polynomial(scaled, sspec, route="direct").qpoly
    assert is_q_polynomial(scaled, sspec, route="theorem").qpoly


def test_mutate_theta_star(k3):
    sys_, _ = k3
    same = mutate_theta_star(sys_, 2, -1)  # no-op mutation
    assert same == sys_
    changed = mutate_theta_star(sys_, 2, 5)
    assert changed.theta_star[2].value == 5
    with pytest.raises(IndexOutOfRange):
        mutate_theta_star(sys_, 9, 0)


def test_gen_random_contract():
    a = gen_random(4, GF101, 42)
    b = gen_random(4, GF101, 42)
    assert a == b  # deterministic per seed
    assert validate_system(a) == []
    assert gen_random(4, GF101, 43) != a
    spec = compute_spectrum(a)
    assert len(spec.theta) == 5


def test_gen_random_calibration():
    # all seeds succeed; the spectrum is in-field by construction
    for seed in range(100):
        gen_random(4, GF101, seed)


@pytest.mark.parametrize("d", [0, -1])
def test_gen_random_rejects_d_below_one(d):
    with pytest.raises(ValueError, match=f"d must be at least 1, got {d}"):
        gen_random(d, GF101, 0)


def test_gen_random_invalid_construction_is_an_internal_error(monkeypatch):
    # b is drawn nonzero and c = w/b with no w_i zero, so only a bug can break validity
    monkeypatch.setattr(instances, "validate_system", lambda sys_: ["superdiagonal zero at 0"])
    with pytest.raises(InternalInconsistency, match="superdiagonal zero at 0"):
        gen_random(4, GF101, 0)


def test_gen_random_rejects_a_construction_off_its_sampled_polynomial(monkeypatch):
    # one diagonal entry moved: the system is still valid, but its characteristic polynomial
    # is no longer the product of the sampled x - t
    original = instances._tridiagonal_from_charpoly

    def perturbed(target, rng, p):
        a, w = original(target, rng, p)
        return [(a[0] + 1) % p, *a[1:]], w

    monkeypatch.setattr(instances, "_tridiagonal_from_charpoly", perturbed)
    with pytest.raises(InternalInconsistency, match="sampled characteristic polynomial"):
        gen_random(4, GF101, 0)


def test_gen_random_small_prime_fails():
    with pytest.raises(GenerationFailed):
        gen_random(4, GF(7), 0)


def test_serialize_parse_round_trip(k3):
    sys_, spec = k3
    inst = Instance(sys_, spec.theta, "golden")
    text = serialize_instance(inst)
    back = parse_instance(text)
    assert back.system == sys_ and back.theta == spec.theta and back.label == "golden"
    assert serialize_instance(back) == text


def test_parse_rejects_bad_input():
    base = "field rationals\nd 2\na 0 0 0\nb 2 1\nc 1 2\ntheta_star 2 0 -2\n"
    parse_instance(base)  # sanity: the template itself is valid
    with pytest.raises(ParseError):
        parse_instance(base.replace("b 2 1", "b 0 1"))  # zero superdiagonal
    with pytest.raises(ParseError):
        parse_instance(base.replace("a 0 0 0", "a 0.5 0 0"))  # float rejected
    with pytest.raises(ParseError):
        parse_instance(base.replace("d 2\n", ""))  # missing d
    with pytest.raises(ParseError):
        parse_instance(base.replace("theta_star 2 0 -2", "theta_star 2 0"))
    with pytest.raises(ParseError):
        parse_instance(base + "mystery 1\n")


def test_parse_accepts_comments_and_fractions():
    text = ("# a comment\nfield rationals\nd 2\na 1/2 0 -1/2\n"
            "b 2 1\nc 1 2\ntheta_star 2 0 -2\n")
    inst = parse_instance(text)
    assert str(inst.system.a[0]) == "1/2"


@st.composite
def _instances(draw):
    """Entries n/m with |n|, m up to 10^30 (negative, fractional, 30-digit), hints, labels."""
    field = draw(st.sampled_from([RATIONALS, GF(2), GF101, GF(2**127 - 1)]))
    dens = st.integers(1, 10**30).filter(lambda m: not field.is_prime_field or m % field.modulus)
    scalars = st.builds(lambda n, m: field.scalar(Fraction(n, m)), st.integers(-10**30, 10**30), dens)
    d = draw(st.integers(1, 5))

    def vec(n, elements=scalars):
        return tuple(draw(st.lists(elements, min_size=n, max_size=n)))

    nonzero = scalars.filter(bool)
    system = TridiagonalSystem(d, vec(d + 1), vec(d, nonzero), vec(d, nonzero), vec(d + 1), field)
    theta = vec(d + 1) if draw(st.booleans()) else None
    label = draw(st.text(st.characters(whitelist_categories=("L", "N", "P", "S", "Zs")),
                         max_size=12).map(str.strip))
    return Instance(system, theta, label)


@settings(max_examples=200, deadline=None)
@given(_instances())
def test_round_trip_random(inst):
    assert parse_instance(serialize_instance(inst)) == inst
