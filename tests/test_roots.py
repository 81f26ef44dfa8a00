"""Root finding and primality: exact agreement with the exhaustive oracles, and time gates."""
from __future__ import annotations

import random
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import lpkit.modular
from lpkit.cli import main
from lpkit.errors import InternalInconsistency
from lpkit.exactmath import GF, RATIONALS, Poly
from lpkit.instances import affine_transform, gen_krawtchouk, gen_random
from lpkit.modular import (_quadratic_roots, _root_bound_bits, _slot_reducer, _sqrt_mod, is_prime,
                           linear_powmod, rational_roots)
from lpkit.system import char_form, compute_spectrum
from root_oracles import (divisor_roots, fraction_rational_roots, poly_roots, repeated_powmod,
                          scan_roots)

PSEUDOPRIME = 3317044064679887385961981  # 1287836182261 * 2575672364521
M61 = 2**61 - 1
M127 = 2**127 - 1


def _poly(field, coeffs):
    return Poly(field, [field.scalar(c) for c in coeffs])


def _product(field, lead, roots, extra):
    """lead * prod (x - r) * extra, coefficients low degree first."""
    poly = _poly(field, [lead])
    for r in roots:
        poly = poly * _poly(field, [-r, 1])
    return poly * _poly(field, extra)


@st.composite
def _prime_field_polys(draw):
    # p - 1 for 17, 97, 257, 10009 and 65537 has 2-adic order 4, 5, 8, 3 and 16, so quadratic
    # factors there take the Tonelli-Shanks loop; 3, 7, 10007 take the single powering.
    # Degrees reach 10, so 97 and up are always powered and split (p > 10 bitlen(p)); 2 is
    # always evaluated at every residue, and 3, 5, 7 and 17 once the degree reaches 2, 2, 3
    # and 4 (p <= d bitlen(p))
    p = draw(st.sampled_from([2, 3, 5, 7, 17, 97, 101, 257, 10007, 10009, 65537]))
    roots = draw(st.lists(st.integers(0, min(p - 1, 12)) | st.integers(0, p - 1), max_size=6))
    extra = draw(st.lists(st.integers(0, p - 1), max_size=4)) + [draw(st.integers(1, p - 1))]
    return _product(GF(p), draw(st.integers(1, p - 1)), roots, extra)


@st.composite
def _rational_polys(draw):
    small = st.fractions(min_value=-8, max_value=8, max_denominator=4)
    roots = draw(st.lists(small, max_size=4))
    roots += roots[:draw(st.integers(0, 2))]  # repeated roots
    extra = _poly(RATIONALS, [1])
    for _ in range(draw(st.integers(0, 2))):
        # x^2 + b x + c with b^2 < 4c has no real, let alone rational, roots
        b = draw(st.integers(-3, 3))
        c = draw(st.integers(b * b // 4 + 1, 6))
        extra = extra * _poly(RATIONALS, [c, b, draw(st.integers(1, 3))])
    lead = draw(st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(bool))
    return _product(RATIONALS, lead, roots, list(extra.coeffs))


# A hanging finder would make every shrinking attempt wait out the wall
# bound, so these properties report the first failing example unshrunk.
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@contextmanager
def _wall_bound(seconds):
    """Raise TimeoutError in the main thread once the wall time exceeds the bound."""
    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.perf_counter()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < seconds


@settings(max_examples=60, deadline=None, phases=_NO_SHRINK)
@given(_prime_field_polys())
def test_prime_field_roots_match_the_exhaustive_scan(poly):
    with _wall_bound(5):
        found = poly_roots(poly)
    assert found == scan_roots(poly)


@settings(max_examples=60, deadline=None, phases=_NO_SHRINK)
@given(_rational_polys())
def test_rational_roots_match_the_divisor_search(poly):
    with _wall_bound(5):
        found = poly_roots(poly)
    assert found == divisor_roots(poly)


def test_roots_cover_zero_repeated_and_fractional_cases():
    x3 = _product(RATIONALS, Fraction(2, 3), [0, 0, Fraction(-1, 2), Fraction(-1, 2), 7], [1, 0, 1])
    gf2 = _product(GF(2), 1, [0, 1, 1], [1, 1, 1])  # x^2 + x + 1 is irreducible over GF(2)
    gf3 = _product(GF(3), 2, [2, 2, 0], [1, 0, 1])
    with _wall_bound(5):
        found = [poly_roots(poly) for poly in (x3, gf2, gf3)]
    assert [(r.value, m) for r, m in found[0]] == [(Fraction(-1, 2), 2), (0, 2), (7, 1)]
    assert found[0] == divisor_roots(x3)
    assert [(r.value, m) for r, m in found[1]] == [(0, 1), (1, 2)]
    assert found[2] == scan_roots(gf3)


def test_rational_root_needs_the_full_lifting_bound():
    # |n| d = 2^80 (1 + o(1)), so the lift from p = 7 must pass 7^16 (about 2^45) to 7^32
    a, b = 1099526307891, 1099526307887
    poly = _product(RATIONALS, a, [Fraction(b, a)], [1, 0, 1])
    with _wall_bound(5):
        found = poly_roots(poly)
    assert [(r.value, m) for r, m in found] == [(Fraction(b, a), 1)]


def _recording(monkeypatch, name, log):
    """Replace lpkit.modular.<name> by a wrapper that appends its arguments to log."""
    original = getattr(lpkit.modular, name)

    def recording(*args):
        log.append(args)
        return original(*args)

    monkeypatch.setattr(lpkit.modular, name, recording)


def _fujiwara_bits(f):
    """The least t with 2 max_k |c_(n-k)/c_n|^(1/k) <= 2^t, by exact integer comparisons."""
    n, lead = len(f) - 1, abs(f[-1])
    exps = []
    for k in range(1, n + 1):
        c = abs(f[n - k])
        if c:
            s = -(lead.bit_length() // k) - 1  # 2^(s k) |c_n| < 1 <= |c_(n-k)|
            while (lead << (s * k) < c) if s >= 0 else (lead < c << (-s * k)):
                s += 1
            exps.append(s)
    return 1 + max(exps)


_J = (2**80 - 1) // 3


# (integer coefficients low degree first, the rational roots) where Fujiwara's bound is tight
_TIGHT_BOUND_CASES = [
    # a single large root times x^2 + 1: B = 2^202 against the root 2^200 + 1
    ([-(2**200 + 1), 1, -(2**200 + 1), 1], [2**200 + 1]),
    # roots +-2^150 times x^2 + 1: B = 2^151, twice the roots
    ([-2**300, 0, 1 - 2**300, 0, 1], [-2**150, 2**150]),
    # roots 4J and -J with 3J = 2^80 - 1: max(|c_1|, |c_0|^(1/2)) = 2^80 - 1 is below the
    # root 4J, so Fujiwara's factor 2 is needed, and B = 2^81
    ([-4 * _J * _J, -3 * _J, 1], [-_J, 4 * _J]),
    # (3x + J)(3x - 4J): the same roots over 3, which divides the leading coefficient 9
    ([-4 * _J * _J, -9 * _J, 9], [Fraction(-_J, 3), Fraction(4 * _J, 3)]),
]


@pytest.mark.parametrize("case", _TIGHT_BOUND_CASES, ids=range(len(_TIGHT_BOUND_CASES)))
def test_rational_roots_up_to_a_tight_root_bound(case, monkeypatch):
    f, roots = case
    t = _root_bound_bits(f)
    largest = max(abs(r) for r in roots)
    assert largest < 2**t <= 4 * largest and t == _fujiwara_bits(f)
    moduli = []
    _recording(monkeypatch, "_rational_reconstruction", moduli)
    with _wall_bound(5):
        found = rational_roots([Fraction(c) for c in f])
    assert sorted(found) == [(Fraction(r), 1) for r in roots]
    assert all(m <= (2 * 2**t * f[-1] ** 2) ** 2 for _, m, _, _ in moduli)


def test_lift_stops_at_the_root_bound_not_at_the_constant_term(monkeypatch):
    # Q, d = 128 affine Krawtchouk image: q is monic with |q(0)| of 923 bits and B = 2^12 of
    # 13, so one squaring past the bound stays far below the old 2 |q(0)|
    image = affine_transform(gen_krawtchouk(128)[0], 3, 7, Fraction(-5, 3), Fraction(1, 2))
    q = char_form(image)
    t = _fujiwara_bits(q)
    assert q[-1] == 1 and abs(q[0]).bit_length() == 923 and (2**t).bit_length() == 13
    searches, moduli = [], []
    _recording(monkeypatch, "_roots_mod_p", searches)
    _recording(monkeypatch, "_rational_reconstruction", moduli)
    with _wall_bound(5):
        found = rational_roots([Fraction(c) for c in q])
    assert sorted(r for r, _ in found) == sorted(3 * (128 - 2 * i) + 7 for i in range(129))
    [(_, p)] = searches
    assert len(moduli) == 129 and all(m <= max(p, (2 * 2**t) ** 2) for _, m, _, _ in moduli)


def _fractions(lead, roots, extra):
    """lead * prod (x - r) * extra as Fractions, low degree first."""
    return [c.value for c in _product(RATIONALS, lead, roots, extra).coeffs]


# (coefficients, the prime the roots are found mod, the number of roots mod that prime):
# every root mod that prime is lifted, and any that are no rational roots must be rejected.
# Every one of these primes is at most d bitlen(p) for the degree d of its squarefree part,
# so the roots mod p are found by evaluation; test_root_finding_powers_once_at_full_degree
# and the GF(p) properties cover the powering side
_SMALL_PRIME_CASES = [
    # 1..12 collide mod every prime up to 11, so 13 is the first prime keeping S squarefree
    (_fractions(1, range(13), [1]), 13, 12),
    # 2, 3, 5 and 7 divide the leading coefficient, 11 merges -1/2 and 5, 13 merges -1/2 and 3/7
    (_fractions(210, [Fraction(-1, 2), Fraction(3, 7), Fraction(2, 15), 5, 2], [1]), 17, 5),
    # zero split off twice; -1/2 twice and 7 once leave S = (2x + 1)(x - 7)(x^2 + 1): 2 divides
    # its leading coefficient, 3 and 5 merge -1/2 and 7, and x^2 + 1 has no roots mod 7
    (_fractions(Fraction(2, 3), [0, 0, Fraction(-1, 2), Fraction(-1, 2), 7], [1, 0, 1]), 7, 2),
    # x^2 + 1 splits mod 5 into 2 and 3, which lift to the false candidates +-79/3
    # ((79/3)^2 + 1 = 2 * 5^5 / 9): reconstruction accepts them and only division rejects them
    (_fractions(3, [29], [1, 0, 1]), 5, 3),
    # x^2 + 2 splits mod 3 into 1 and 2, which lift to the false candidates +-22 (22^2 + 2 = 2 * 3^5)
    (_fractions(1, [12], [2, 0, 1]), 3, 3),
    # the full lifting bound: |n| d = 2^80 (1 + o(1)), so the lift from 7 must pass 7^16
    (_fractions(1099526307891, [Fraction(1099526307887, 1099526307891)], [1, 0, 1]), 7, 1),
]


@pytest.mark.parametrize("case", _SMALL_PRIME_CASES, ids=range(len(_SMALL_PRIME_CASES)))
def test_rational_roots_are_found_mod_the_first_suitable_prime(case, monkeypatch):
    f, prime, count = case
    searches = []
    find = lpkit.modular._roots_mod_p

    def recording_find(g, p):
        roots = find(g, p)
        searches.append((p, len(roots)))
        return roots

    monkeypatch.setattr(lpkit.modular, "_roots_mod_p", recording_find)
    with _wall_bound(5):
        found = rational_roots(list(f))
    assert searches == [(prime, count)]
    assert found == fraction_rational_roots(list(f))
    assert sorted(found, key=lambda rm: (rm[0].numerator, rm[0].denominator)) == [
        (r.value, m) for r, m in divisor_roots(_poly(RATIONALS, f))]


@st.composite
def _powerings(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 101, 10007, M61]))
    residues = st.integers(0, p - 1) | st.sampled_from([0, p - 1])  # p - 1 fills the slots most
    degree = draw(st.integers(1, 16))  # a degree large against p takes more Barrett passes
    f = draw(st.lists(residues, min_size=degree, max_size=degree)) + [draw(st.integers(1, p - 1))]
    return draw(residues), draw(st.sampled_from([0, 1, (p - 1) // 2, p])), f, p


def _kernel_bounds(test):
    """Explicit examples at the bounds of the packed powering: every coefficient and the shift p - 1.

    Each prime meets each exponent 0, 1, (p - 1)/2 and p once across the degrees 1, 2, 16 and 33,
    and each degree meets every exponent.  p = 2 is powered by ``gen random --field 2``.
    """
    for i, p in enumerate([2, 3, 5, 7, 10007, M61]):
        for j, degree in enumerate([1, 2, 16, 33]):
            e = [0, 1, (p - 1) // 2, p][(i + j) % 4]
            test = example((p - 1, e, [p - 1] * (degree + 1), p))(test)
    return test


@settings(max_examples=150, deadline=None)
@given(_powerings())
@example((100, 101, [100] * 16 + [1], 101))  # the largest slot sums at p = 101, degree 16
@_kernel_bounds
def test_linear_powmod_matches_repeated_multiplication(case):
    # f is drawn with any nonzero leading coefficient, so non-monic moduli are covered
    shift, e, f, p = case
    assert linear_powmod(shift, e, f, p) == repeated_powmod(shift, e, f, p)


@pytest.mark.parametrize("below", [False, True], ids=["at", "below"])
@pytest.mark.parametrize("n", [1, 2, 16, 34])
@pytest.mark.parametrize("p", [17, 19, 257, 65537, 2**31 + 11])
def test_slot_reduction_at_its_stated_bound(p, n, below):
    # p just above a power of two, where (X >> (b - 1)) * (4^b // p) nears 4X.  The 2n slots
    # hold the largest value a product makes, n (3p - 1)^2, or the 2n values just below it;
    # at p = 19, n = 34 one pass fewer than the bound asks leaves such a slot at 3p or above
    width, reduced = _slot_reducer(p, n)
    top = n * (3 * p - 1) ** 2
    given = [top - k if below else top for k in range(2 * n)]
    out = reduced(sum(x << (width * k) for k, x in enumerate(given)))
    slots = [out >> (width * k) & ((1 << width) - 1) for k in range(2 * n)]
    assert 0 <= out < 1 << (width * 2 * n)
    assert all(x < 3 * p and (x - y) % p == 0 for x, y in zip(slots, given))


def test_root_finding_powers_once_at_full_degree(monkeypatch):
    # x^((p-1)/2), met on the way to x^p, is reused as the first splitting power; a small p
    # (p <= d bitlen(p) at degree d) is evaluated at every residue instead, with no powering
    calls, powerings, evaluations = [], [], []
    find, power = lpkit.modular._roots_mod_p, lpkit.modular._prefix_powers
    evaluate = lpkit.modular._roots_by_evaluation

    def counting_find(f, p):
        calls.append(len(f) - 1)
        return find(f, p)

    def counting_power(shift, e, f, p):
        powerings.append(len(f) - 1)
        return power(shift, e, f, p)

    def counting_evaluate(f, p):
        evaluations.append((len(f) - 1, p))
        return evaluate(f, p)

    monkeypatch.setattr(lpkit.modular, "_roots_mod_p", counting_find)
    monkeypatch.setattr(lpkit.modular, "_prefix_powers", counting_power)
    monkeypatch.setattr(lpkit.modular, "_roots_by_evaluation", counting_evaluate)
    # f splits into distinct linear factors, so the first split is mod f itself; residues
    # and non-residues mod p both among the roots make that split proper
    p = 10007
    assert {pow(r, (p - 1) // 2, p) for r in range(1, 9)} == {1, p - 1}
    found = poly_roots(_product(GF(p), 3, range(1, 9), [1]))
    assert [r.value for r, _ in found] == list(range(1, 9))
    assert calls == [8] and powerings.count(8) == 1
    calls.clear()
    powerings.clear()
    # over Q the roots are found mod the first prime q that keeps f squarefree and of full
    # degree: 7, as 2 divides the leading coefficient and 3 and 5 merge two roots; as
    # 7 <= 4 bitlen(7) = 12, f is evaluated at each of the 7 residues and nothing is powered
    q = 7
    assert q <= 4 * q.bit_length()
    found = poly_roots(_product(RATIONALS, Fraction(2, 3), [-3, 2, 5, 7], [1]))
    assert [r.value for r, _ in found] == [-3, 2, 5, 7]
    assert calls == [4] and evaluations == [(4, q)] and powerings == []
    calls.clear()
    evaluations.clear()
    # for odd p, quadratic factors are solved by a square root: no powering at degree 2.
    # 101 > 4 bitlen(101) = 28 is powered; 1 and 4 are squares mod 101 and 2 and 3 are not,
    # so the first split leaves two quadratics
    p = 101
    assert [pow(r, (p - 1) // 2, p) for r in (1, 4, 2, 3)] == [1, 1, p - 1, p - 1]
    found = poly_roots(_product(GF(p), 1, [1, 4, 2, 3], [1]))
    assert [r.value for r, _ in found] == [1, 2, 3, 4]
    assert calls == [4] and powerings == [4] and evaluations == []
    calls.clear()
    powerings.clear()
    # over GF(2), x^2 + x is evaluated at 0 and 1 (2 <= d bitlen(2) at every degree d):
    # no powering at all
    found = poly_roots(_poly(GF(2), [0, 1, 1]))
    assert [(r.value, m) for r, m in found] == [(0, 1), (1, 1)]
    assert calls == [2] and evaluations == [(2, 2)] and powerings == []


@pytest.mark.parametrize("p", [3, 5, 13, 17, 97, 257])
def test_square_root_of_every_nonzero_square(p):
    # p = 3 mod 4 takes one powering, the rest Tonelli-Shanks (2-adic order of p - 1 up to 8)
    squares = {x * x % p for x in range(1, p)}
    for a in squares:
        assert _sqrt_mod(a, p) ** 2 % p == a
    for a in set(range(1, p)) - squares:
        assert _sqrt_mod(a, p) ** 2 % p != a


def test_square_root_on_a_sample_mod_m61():
    rng = random.Random(61)
    for _ in range(200):
        a = rng.randrange(1, M61) ** 2 % M61
        assert _sqrt_mod(a, M61) ** 2 % M61 == a


@pytest.mark.parametrize("p", [13, 17, 10009, 65537, M61])
def test_quadratic_without_two_distinct_roots_is_an_internal_error(p):
    nonresidue = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    assert sorted(_quadratic_roots([p - 6, p - 1, 1], p)) == [3, p - 2]  # (x - 3)(x + 2)
    with pytest.raises(InternalInconsistency, match="double root"):
        _quadratic_roots([4, p - 4, 1], p)  # (x - 2)^2
    with pytest.raises(InternalInconsistency, match="without roots"):
        _quadratic_roots([p - nonresidue, 0, 1], p)  # x^2 - z, z a non-residue


def test_primality_is_baillie_psw():
    assert not is_prime(PSEUDOPRIME)  # a strong pseudoprime to every base up to 37
    assert is_prime(M61) and is_prime(M127)
    assert not is_prime(M127 + 2) and not is_prime(M61 * M127)
    trial = [n for n in range(3000) if n > 1 and all(n % k for k in range(2, int(n**0.5) + 1))]
    assert [n for n in range(3000) if is_prime(n)] == trial
    # strong Lucas pseudoprimes, squares and Carmichael numbers are composite
    for n in (5459, 5777, 10877, 16109, 18971, 561, 41041, 1046527**2):
        assert not is_prime(n)


def test_gate_check_over_q_with_a_31_digit_entry(tmp_path, capsys):
    # eigenvalues M and 2, so the constant term of the char poly is 2M
    m = 10**30 + 57
    path = tmp_path / "big.lp"
    path.write_text(f"field rationals\nd 1\na {m + 2} 0\nb 1\nc {-2 * m}\ntheta_star 0 1\n")
    with _wall_bound(5):
        assert main(["check", str(path), "--machine"]) == 0
    assert "qpoly=true" in capsys.readouterr().out


def test_gate_check_over_a_127_bit_prime(tmp_path, capsys):
    path = tmp_path / "m127.lp"
    path.write_text(f"field prime {M127}\nd 1\na 0 0\nb 1\nc 1\ntheta_star 0 1\n")
    with _wall_bound(5):
        assert main(["check", str(path), "--machine"]) == 0
    assert "qpoly=true" in capsys.readouterr().out


def test_gate_spectrum_of_a_random_pair_over_gf_m61():
    with _wall_bound(5):
        spec = compute_spectrum(gen_random(16, GF(M61), 0))
    assert len(spec.theta) == 17


def test_gate_spectrum_of_a_d64_random_pair_over_gf_m61():
    with _wall_bound(5):
        spec = compute_spectrum(gen_random(64, GF(M61), 0))
    assert len(spec.theta) == 65


@pytest.mark.parametrize("d", [16, 24, 32])
def test_gate_spectrum_of_krawtchouk_images(d):
    image = affine_transform(gen_krawtchouk(d)[0], 3, 7, 1, 0)
    with _wall_bound(5):
        spec = compute_spectrum(image)
    assert [t.value for t in spec.theta] == sorted(3 * (d - 2 * i) + 7 for i in range(d + 1))
