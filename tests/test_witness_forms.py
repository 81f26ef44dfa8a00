"""The witness, delta* and rational root confirmation against their Scalar and Fraction references.

``qpoly`` builds the rows of conditions (ii) and (iii) and the checks of
delta* as integer forms, and ``modular.rational_roots`` confirms each
candidate by integer division; ``dense_oracles`` and ``root_oracles`` keep
the Scalar and Fraction versions.  They must agree exactly: the same values,
value types and printed forms, and the same exception type and message.
"""
from __future__ import annotations

import pathlib
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracles import (scalar_delta_star, scalar_extend, scalar_solve_condition_ii,
                           scalar_solve_witness)
from lpkit import qpoly
from lpkit.errors import DivisionByZero
from lpkit.exactmath import GF, RATIONALS, Scalar
from lpkit.instances import affine_transform, gen_krawtchouk, gen_random, parse_instance
from lpkit.modular import rational_roots
from lpkit.qpoly import compute_delta_star, solve_condition_ii, solve_witness
from lpkit.system import TridiagonalSystem
from root_oracles import fraction_rational_roots

DATA = pathlib.Path(__file__).resolve().parent / "data"
_FIELDS = [RATIONALS, GF(2), GF(3), GF(101), GF(2**61 - 1)]
_BIG = 10**30
# a Leonard pair with beta = 5/2 (theta_i = 2^i + 1/3, theta*_i = 3 * 2^(5-i) + 1) under
# a -> 2a/3 + 1/5, theta* -> -5 theta*/3 + 1/2: every witness entry is a non-integer
_LEONARD = parse_instance((DATA / "leonard_q2_affine.lp").read_text(encoding="utf-8")).system


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


def _printed(value):
    """Every Scalar inside a result, as (value type, printed form), in order."""
    if isinstance(value, Scalar):
        return [(type(value.value), str(value))]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in _printed(v)]
    if hasattr(value, "theta_star_ext"):
        return _printed([value.beta, value.gamma_star, value.gamma, value.omega,
                         value.eta_star, value.delta_star, value.theta_star_ext])
    return [(type(value), repr(value))]


def _assert_same(got, expected):
    assert got == expected
    if got[0] == "value":
        assert _printed(got[1]) == _printed(expected[1])


def _leonard_in(field):
    """The Leonard image over the field, or None when a denominator vanishes there."""
    try:
        return TridiagonalSystem(_LEONARD.d, *(tuple(field.scalar(x.value) for x in xs) for xs in
                                               (_LEONARD.a, _LEONARD.b, _LEONARD.c, _LEONARD.theta_star)),
                                 field)
    except DivisionByZero:
        return None


@st.composite
def _systems(draw):
    """Corpus systems and their images, random pairs, constant or free theta*, and theta* mutants."""
    field = draw(st.sampled_from(_FIELDS))
    values = _values(field)
    kind = draw(st.sampled_from(("krawtchouk", "leonard", "random", "constant", "free")))
    d = draw(st.integers(1, 8))
    sys_ = None
    if kind == "krawtchouk" and (not field.is_prime_field or field.modulus > 2 * d):
        sys_, _ = gen_krawtchouk(d, field)
        sys_ = affine_transform(sys_, draw(_nonzero(field)), draw(values),
                                draw(_nonzero(field)), draw(values))
    elif kind == "leonard":
        sys_ = _leonard_in(field)
    elif kind == "random" and field.is_prime_field and field.modulus > 3:
        sys_ = gen_random(draw(st.integers(1, 6)), field, draw(st.integers(0, 10**6)))
    if sys_ is None:
        a = tuple(draw(values) for _ in range(d + 1))
        theta_star = ((draw(values),) * (d + 1) if kind == "constant"
                      else tuple(draw(values) for _ in range(d + 1)))
        one = (field.one(),) * d
        sys_ = TridiagonalSystem(d, a, one, one, theta_star, field)
    if draw(st.booleans()):  # a theta* mutant: one entry replaced by another one or a drawn value
        ts = list(sys_.theta_star)
        k = draw(st.integers(0, sys_.d))
        ts[k] = draw(st.sampled_from(ts) | values)
        sys_ = TridiagonalSystem(sys_.d, sys_.a, sys_.b, sys_.c, tuple(ts), field)
    return sys_


@settings(max_examples=120, deadline=None)
@given(_systems())
@example(_LEONARD)
# theta*_0 = theta*_2: the free direction of (ii) is a pivot of the joint solve
@example(TridiagonalSystem(2, tuple(map(RATIONALS.scalar, (1, 2, 3))), (RATIONALS.one(),) * 2,
                           (RATIONALS.one(),) * 2, tuple(map(RATIONALS.scalar, (1, 2, 1))), RATIONALS))
# d = 1: no rows of (ii), so beta and gamma* are both free and come out 0
@example(TridiagonalSystem(1, tuple(map(GF(101).scalar, (48, 98))), (GF(101).scalar(6),),
                           (GF(101).scalar(76),), tuple(map(GF(101).scalar, (33, 65))), GF(101)))
# theta*_1 = 0: the one row of (ii) leaves beta free
@example(TridiagonalSystem(2, tuple(map(RATIONALS.scalar, (1, 2, 3))), (RATIONALS.one(),) * 2,
                           (RATIONALS.one(),) * 2, tuple(map(RATIONALS.scalar, (1, 0, 2))), RATIONALS))
# flat interior theta* = (5, 1, 1, 5): (ii) has a free direction at d = 3
@example(parse_instance((DATA / "k3_flat_theta_star.lp").read_text(encoding="utf-8")).system)
def test_witness_matches_the_scalar_rows(sys_):
    _assert_same(_outcome(solve_condition_ii, sys_.theta_star),
                 _outcome(scalar_solve_condition_ii, sys_.theta_star))
    _assert_same(_outcome(solve_witness, sys_), _outcome(scalar_solve_witness, sys_))


def test_witness_on_the_large_affine_image():
    sys_ = parse_instance((DATA / "k32_affine.lp").read_text(encoding="utf-8")).system
    _assert_same(_outcome(solve_witness, sys_), _outcome(scalar_solve_witness, sys_))


@st.composite
def _extended(draw):
    """(ext, beta, gamma*): a list obeying the recurrence, then maybe broken at i = 0, inside or at d."""
    field = draw(st.sampled_from(_FIELDS))
    values = _values(field)
    d = draw(st.integers(0, 8))
    beta, gamma_star = draw(values), draw(values)
    ext = [draw(values), draw(values)]
    while len(ext) < d + 3:
        ext.append(gamma_star + beta * ext[-1] - ext[-2])
    where = draw(st.sampled_from(("none", "first", "interior", "last", "free", "beta")))
    bump = draw(_nonzero(field))
    if where == "first":
        ext[0] = ext[0] + bump  # enters only the check at i = 0
    elif where == "interior" and d >= 2:
        i = draw(st.integers(1, d - 1))
        ext[i + 2] = ext[i + 2] + bump  # the first check it enters is the one at i
    elif where == "last":
        ext[d + 2] = ext[d + 2] + bump  # enters only the check at i = d
    elif where == "free":
        ext = [draw(values) for _ in range(d + 3)]
    elif where == "beta":
        beta = beta + bump
    return tuple(ext), beta, gamma_star


@settings(max_examples=60, deadline=None)
@given(_extended())
def test_delta_star_matches_the_scalar_checks(case):
    _assert_same(_outcome(compute_delta_star, *case), _outcome(scalar_delta_star, *case))


@settings(max_examples=100, deadline=None)
@given(_extended())
def test_recurrence_implies_independence_and_the_product_identity(case):
    # t*_{i+1} = beta t*_i - t*_{i-1} + gamma* at every i makes the delta* expression the same
    # at every i and (t*_i - t*_{i-1})(t*_i - t*_{i+1}) = (2 - beta) t*_i^2 - 2 gamma* t*_i - delta*
    ext, beta, gstar = case
    outcome = _outcome(compute_delta_star, ext, beta, gstar)
    if outcome[0] == "raise":
        assert outcome[2].startswith("recurrence fails at i = ")
        return
    delta_star = outcome[1]
    two = beta.field.scalar(2)
    for prev, cur in zip(ext, ext[1:]):
        assert prev * prev - beta * prev * cur + cur * cur - gstar * (prev + cur) == delta_star
    for prev, t, nxt in zip(ext, ext[1:], ext[2:]):
        assert (t - prev) * (t - nxt) == (two - beta) * t * t - two * gstar * t - delta_star


def test_delta_star_on_the_witness_extensions():
    for field in _FIELDS:
        sys_ = _leonard_in(field)
        if sys_ is None:
            continue
        w = scalar_solve_witness(sys_)
        if w is None:
            continue
        ext = scalar_extend(sys_.theta_star, w.beta, w.gamma_star)
        _assert_same(_outcome(compute_delta_star, ext, w.beta, w.gamma_star),
                     _outcome(scalar_delta_star, ext, w.beta, w.gamma_star))


def _times(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


@st.composite
def _root_products(draw):
    """lead x^z prod (m x - n)^e, times a factor without rational roots, entries up to 10^30."""
    coord = st.integers(-_BIG, _BIG) | st.integers(-9, 9)
    f = [draw(st.fractions(max_denominator=10**6).filter(bool)
              | st.builds(Fraction, st.integers(1, _BIG), st.integers(1, _BIG)))]
    f = [Fraction(0)] * draw(st.integers(0, 3)) + f
    for _ in range(draw(st.integers(0, 4))):
        n, m = draw(coord), draw(st.integers(1, _BIG) | st.integers(1, 9))
        for _ in range(draw(st.integers(1, 3))):
            f = _times(f, [Fraction(-n), Fraction(m)])
    if draw(st.booleans()):
        # x^2 + b x + c with b^2 < 4c has no real, let alone rational, roots
        b = draw(st.integers(-3, 3))
        f = _times(f, [Fraction(draw(st.integers(b * b // 4 + 1, _BIG))), Fraction(b), Fraction(1)])
    return f


@settings(max_examples=80, deadline=None)
@given(_root_products())
@example([Fraction(0), Fraction(0), Fraction(3, 7)])
# (2x + 1)(3x + 1): after one division by 2x + 1, 3x + 1 = (2x + 1) + x leaves a remainder above x^0
@example([Fraction(1), Fraction(5), Fraction(6)])
@example([Fraction(-10**30), Fraction(10**30 + 1), Fraction(-1)])
def test_rational_roots_match_fraction_deflation(f):
    got, expected = _outcome(rational_roots, list(f)), _outcome(fraction_rational_roots, list(f))
    assert got == expected
    if got[0] == "value":
        assert [(type(r), type(m)) for r, m in got[1]] == [(type(r), type(m)) for r, m in expected[1]]


def test_witness_builds_few_scalars(monkeypatch):
    # d = 32 over Q: before the rows and checks became integer forms, compute_delta_star
    # built 736 Scalars and solve_witness 1,022
    sys_ = parse_instance((DATA / "k32_affine.lp").read_text(encoding="utf-8")).system
    w = solve_witness(sys_)
    built = []
    original = Scalar.__init__
    original_rows = qpoly.solve_rows

    def counting(self, field, value):
        built.append(value)
        original(self, field, value)

    monkeypatch.setattr(Scalar, "__init__", counting)
    compute_delta_star(w.theta_star_ext, w.beta, w.gamma_star)
    delta_star_count = len(built)
    joint = []
    monkeypatch.setattr(qpoly, "solve_rows", lambda *args: joint.append(args[2]) or original_rows(*args))
    again = solve_witness(sys_)
    assert delta_star_count <= 2 and len(built) - delta_star_count <= 40
    assert joint == [5] and again == w
