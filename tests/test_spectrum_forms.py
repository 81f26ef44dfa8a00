"""The spectrum against its Scalar reference: characteristic polynomial, hint check and roots.

``dense_oracles.scalar_spectrum`` builds det(lambda I - A) as a ``Poly`` of
Scalars, checks a hint by evaluating that ``Poly`` and searches its roots.
``system.compute_spectrum`` must agree with it exactly: the same eigenvalues
in the same order, the same cosine vectors, norms, dagger diagonal and a*_r
with the same value types and printed forms, and the same exception type and
message; ``system.eigenvalues``, its first stage, must give the same
eigenvalues or the same exception.  All of it over Q (fractional diagonals
and products b_{i-1} c_i included) and over GF(2), GF(3), GF(101) and
GF(2^61 - 1).
"""
from __future__ import annotations

import pathlib
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lpkit.system
from dense_oracles import char_poly, monic_polys, primitive_form, scalar_spectrum
from lpkit.cosine import rescale_superdiagonal
from lpkit.errors import DivisionByZero, HintInvalid
from lpkit.exactmath import GF, RATIONALS, FieldSpec, Poly, Scalar, char_poly_oracle
from lpkit.instances import affine_transform, gen_krawtchouk, gen_random, parse_instance
from lpkit.system import TridiagonalSystem, char_form, compute_spectrum, eigenvalues, realize_matrices

DATA = pathlib.Path(__file__).resolve().parent / "data"
_FIELDS = [RATIONALS, GF(2), GF(3), GF(101), GF(2**61 - 1)]
_BIG = 10**30
# k6_third.lp and its hinted variants, by file stem
_THIRDS = {path.stem: parse_instance(path.read_text(encoding="utf-8"))
           for path in sorted(DATA.glob("k6_third*.lp"))}
# eigenvalues 2^i + 1/3 mapped by 2a/3 + 1/5, and (9 - 2i)/3 for i = 0..6: denominators 1 and 3
_LEONARD = parse_instance((DATA / "leonard_q2_affine.lp").read_text(encoding="utf-8")).system
_THIRD = _THIRDS["k6_third"].system
# its spectrum in an order that is not the canonical one; lc(P) = 81 (see char_form)
_THIRD_HINT = [3, Fraction(7, 3), Fraction(5, 3), 1, Fraction(1, 3), Fraction(-1, 3), -1]


def _values(field):
    """Field values: zero, small and large integers, and fractions with large denominators."""
    raw = (st.just(0) | st.integers(-5, 5) | st.integers(-_BIG, _BIG) | st.fractions(max_denominator=50)
           | st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)))
    if field.is_prime_field:  # a Fraction whose denominator vanishes mod p has no image
        raw = raw.filter(lambda v: Fraction(v).denominator % field.modulus)
    return raw.map(field.scalar)


def _nonzero(field):
    return _values(field).filter(lambda x: not x.is_zero())


def _outcome(fn, *args):
    """("value", result) or ("raise", exception type, message)."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return "raise", type(exc), str(exc)


def _printed(spec):
    """Every Scalar of a spectrum, as (value type, printed form), in order."""
    scalars = [*spec.theta, *(x for v in spec.v for x in v), *spec.norm, *spec.k, *spec.astar]
    return [(type(x.value), str(x)) for x in scalars]


def _assert_same(got, expected):
    assert got == expected
    if got[0] == "value":
        assert _printed(got[1]) == _printed(expected[1])


def _in_field(sys_, field):
    """The system with its entries mapped into the field, or None when a denominator vanishes there."""
    try:
        return TridiagonalSystem(sys_.d, *(tuple(field.scalar(x.value) for x in xs) for xs in
                                           (sys_.a, sys_.b, sys_.c, sys_.theta_star)), field)
    except DivisionByZero:
        return None


@st.composite
def _systems(draw):
    """Affine Krawtchouk images (maybe rebased), the Leonard image, random pairs and free data."""
    field = draw(st.sampled_from(_FIELDS))
    values = _values(field)
    kind = draw(st.sampled_from(("krawtchouk", "krawtchouk", "leonard", "random", "free")))
    d = draw(st.integers(1, 7))
    sys_ = None
    if kind == "krawtchouk" and (not field.is_prime_field or field.modulus > 2 * d):
        sys_, _ = gen_krawtchouk(d, field)
        sys_ = affine_transform(sys_, draw(_nonzero(field)), draw(values),
                                draw(_nonzero(field)), draw(values))
        if draw(st.booleans()):  # a new superdiagonal: b and c change, b_{i-1} c_i does not
            sys_ = rescale_superdiagonal(sys_, [draw(_nonzero(field)) for _ in range(d)])
    elif kind == "leonard":
        sys_ = _in_field(draw(st.sampled_from((_LEONARD, _THIRD))), field)
    elif kind == "random" and field.is_prime_field and field.modulus > 2 * (d + 1):
        sys_ = gen_random(d, field, draw(st.integers(0, 10**6)))
    if sys_ is None:
        sys_ = TridiagonalSystem(d, tuple(draw(values) for _ in range(d + 1)),
                                 tuple(draw(_nonzero(field)) for _ in range(d)),
                                 tuple(draw(_nonzero(field)) for _ in range(d)),
                                 tuple(draw(values) for _ in range(d + 1)), field)
    if draw(st.integers(0, 4)) == 0:  # one diagonal entry moved: the spectrum usually breaks
        a = list(sys_.a)
        a[draw(st.integers(0, sys_.d))] = draw(values)
        sys_ = TridiagonalSystem(sys_.d, tuple(a), sys_.b, sys_.c, sys_.theta_star, field)
    return sys_


@st.composite
def _hinted(draw):
    """A system and a hint: none, the spectrum in any order, or one with defects applied."""
    sys_ = draw(_systems())
    field = sys_.field
    kind = draw(st.sampled_from(("none", "spectrum", "spectrum", "defects")))
    if kind == "none":
        return sys_, None
    found = _outcome(scalar_spectrum, sys_)
    if found[0] == "value":
        hint = list(draw(st.permutations(found[1].theta)))
    else:
        hint = [draw(_values(field)) for _ in range(sys_.d + 1)]
    if kind == "defects":
        for defect in draw(st.lists(st.sampled_from(("short", "long", "duplicate", "wrong", "raw",
                                                     "foreign")), min_size=1, max_size=2)):
            k = draw(st.integers(0, len(hint) - 1)) if hint else 0
            if defect == "short" and hint:
                del hint[k]
            elif defect == "long":
                hint.append(draw(_values(field)))
            elif defect == "duplicate" and hint:
                hint[k] = draw(st.sampled_from(hint))
            elif defect == "wrong" and hint:
                hint[k] = draw(_values(field))
            elif defect == "raw":  # ints and Fractions are embedded into the field
                hint = [x.value if isinstance(x, Scalar) else x for x in hint]
            elif defect == "foreign" and hint:
                other = draw(st.sampled_from([f for f in _FIELDS if f != field]))
                hint[k] = other.one()
    return sys_, hint


@settings(max_examples=150, deadline=None)
@given(_hinted())
@example((_THIRD, None))
@example((_LEONARD, None))
@example((_THIRD, [Fraction(1, 3)] * 7))
@example((_THIRD, [0, 1, 2, 3, 4, 5]))
@example((_THIRD, [3, 1, -1, Fraction(7, 3), Fraction(5, 3), Fraction(1, 3), Fraction(-2, 3)]))
@example((_THIRD, _THIRD_HINT))
# a denominator not dividing lc(P) = 81 (1/2, and a 300-digit one), or one dividing it but no
# root of P (1/9), each before the later non-eigenvalue 2
@example((_THIRD, _THIRD_HINT[:3] + [Fraction(1, 2)] + _THIRD_HINT[4:-1] + [2]))
@example((_THIRD, _THIRD_HINT[:3] + [Fraction(1, 9)] + _THIRD_HINT[4:-1] + [2]))
@example((_THIRD, _THIRD_HINT[:3] + [Fraction(1, 10**299 + 7)] + _THIRD_HINT[4:-1] + [2]))
def test_spectrum_matches_the_scalar_reference(case):
    sys_, hint = case
    expected = _outcome(scalar_spectrum, sys_, hint)
    _assert_same(_outcome(compute_spectrum, sys_, hint), expected)
    # the eigenvalue stage alone stops before the factors, with the same values or error
    got = _outcome(eigenvalues, sys_, hint)
    assert got == (expected if expected[0] == "raise" else ("value", expected[1].theta))
    if got[0] == "value":
        assert [(type(x.value), str(x)) for x in got[1]] == _printed(expected[1])[:len(got[1])]


@settings(max_examples=60, deadline=None)
@given(_systems())
@example(_THIRD)
@example(_LEONARD)
def test_char_poly_matches_the_recurrence_and_berkowitz(sys_):
    # char_poly is the Poly view of char_form; monic_polys runs the recurrence on Scalars
    got = char_poly(sys_)
    assert got == monic_polys(sys_)[sys_.d + 1] == char_poly_oracle(realize_matrices(sys_)[0])
    assert [(type(c.value), str(c)) for c in got.coeffs] == [
        (type(c.value), str(c)) for c in monic_polys(sys_)[sys_.d + 1].coeffs]


@settings(max_examples=100, deadline=None)
@given(_systems())
@example(_THIRDS["k6_third"].system)
@example(_THIRDS["k6_third_bigden"].system)
@example(_THIRDS["k6_third_half"].system)
@example(_THIRDS["k6_third_hinted"].system)
@example(_THIRDS["k6_third_ninth"].system)
@example(_LEONARD)
@example(parse_instance((DATA / "pa52_d8.lp").read_text(encoding="utf-8")).system)
def test_char_form_is_the_primitive_characteristic_polynomial(sys_):
    # monic_polys runs the continuant on Scalars: over Q char_form is its primitive integer
    # multiple with a positive leading coefficient, over GF(p) its residue list
    assert char_form(sys_) == primitive_form(monic_polys(sys_)[-1])


def test_a_hint_denominator_not_dividing_the_leading_coefficient_is_not_evaluated(monkeypatch):
    # k6_third_bigden.lp hints 3, 7/3, 5/3 and then 1/(10^299 + 7), before the true 1 it
    # replaces; lc(P) = 81, so that value fails the rational root theorem before P is
    # evaluated at it, and no power of its denominator is formed
    inst = _THIRDS["k6_third_bigden"]
    form = char_form(inst.system)
    reduced = []
    original = FieldSpec.reduce

    def recording(self, value):
        reduced.append(value)
        return original(self, value)

    monkeypatch.setattr(lpkit.system, "char_form", lambda sys_: form)
    monkeypatch.setattr(FieldSpec, "reduce", recording)
    with pytest.raises(HintInvalid, match=re.escape(f"{inst.theta[3]} is not an eigenvalue")):
        eigenvalues(inst.system, inst.theta)
    assert len(reduced) == 3 * len(form) and max(abs(x).bit_length() for x in reduced) < 64


def test_mixed_denominators_keep_the_canonical_order():
    # P = (x - 3)(3x - 7)(3x - 5)(x - 1)(3x - 1)(3x + 1)(x + 1): its roots are the eigenvalues
    # themselves, so the root search's canonical order is the spectrum's
    expected = [1]
    for num, den in ((3, 1), (7, 3), (5, 3), (1, 1), (1, 3), (-1, 3), (-1, 1)):
        expected = [den * x - num * y for x, y in zip([0] + expected, expected + [0])]
    assert char_form(_THIRD) == expected and expected[-1] == 81
    spec = compute_spectrum(_THIRD)
    assert [str(t) for t in spec.theta] == ["-1", "-1/3", "1", "1/3", "3", "5/3", "7/3"]
    _assert_same(("value", spec), ("value", scalar_spectrum(_THIRD)))


def test_a_hinted_eigenvalue_stage_builds_no_poly(monkeypatch):
    m61 = gen_random(8, GF(2**61 - 1), 1)
    cases = [(_THIRD, _THIRD_HINT)] + [(s, compute_spectrum(s).theta[::-1]) for s in (_LEONARD, m61)]

    def refuse(*args):
        raise AssertionError("a Poly was built or evaluated")

    monkeypatch.setattr(Poly, "__init__", refuse)
    monkeypatch.setattr(Poly, "__call__", refuse)
    for sys_, hint in cases:
        theta = tuple(sys_.field.scalar(t) for t in hint)
        assert eigenvalues(sys_, hint) == theta and compute_spectrum(sys_, hint).theta == theta


class _RootStageDone(Exception):
    pass


def test_root_stage_builds_few_scalars(monkeypatch):
    # d = 32 over Q, unhinted; the stage ends where the dagger diagonal begins.  With the
    # characteristic polynomial built as a Poly of Scalars it built 3,600 Scalars, with q
    # wrapped in a Poly for the root search 100; now 66, one per root and one per eigenvalue
    sys_ = parse_instance((DATA / "k32_affine.lp").read_text(encoding="utf-8")).system
    built = []
    original = Scalar.__init__

    def counting(self, field, value):
        built.append(value)
        original(self, field, value)

    def stop(sys_):
        raise _RootStageDone

    monkeypatch.setattr(Scalar, "__init__", counting)
    monkeypatch.setattr(lpkit.system, "_dagger_diagonal", stop)
    try:
        compute_spectrum(sys_)
    except _RootStageDone:
        pass
    else:
        raise AssertionError("the root stage must end at the dagger diagonal")
    assert len(built) <= 2 * (sys_.d + 1)
