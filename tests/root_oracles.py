"""Exhaustive root searches, kept as oracles for ``exactmath.poly_roots_in_field``.

Over GF(p) every residue is evaluated; over the rationals every p/q with p
dividing the constant term and q the leading coefficient of the
integer-scaled polynomial is tried.  Both cost time exponential in the size
of the input, so the tests run them on small fields and small coefficients
only and compare the production finder against them exactly.  The powering
oracle multiplies ``Poly`` values and divides by f with the schoolbook
``_divmod`` below, so it shares no code with ``modular.linear_powmod``.
``fraction_rational_roots`` confirms the production candidates, and counts
their multiplicities, by synthetic division on Fractions.  ``poly_roots`` is
the one way the tests hand a ``Poly`` to the production finder.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from lpkit.exactmath import GF, Poly, Scalar, poly_roots_in_field
from lpkit.modular import _rational_candidates


def poly_roots(poly: Poly) -> list[tuple[Scalar, int]]:
    """``exactmath.poly_roots_in_field`` on the coefficient values of a ``Poly``."""
    return poly_roots_in_field([c.value for c in poly.coeffs], poly.field)


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by a nonzero b, by schoolbook long division."""
    rem = list(a.coeffs)
    n = b.degree
    inv = b.coeffs[-1].inverse()
    quo = [a.field.zero()] * max(0, len(rem) - n)
    for k in range(len(quo) - 1, -1, -1):
        quo[k] = rem[k + n] * inv
        for j, c in enumerate(b.coeffs):
            rem[k + j] = rem[k + j] - quo[k] * c
    return Poly(a.field, quo), Poly(a.field, rem[:n])


def _deflate(p: Poly, root: Scalar) -> Poly:
    """p / (x - root) for a root of p."""
    return _divmod(p, Poly(p.field, [-root, p.field.one()]))[0]


def scan_roots(p: Poly) -> list[tuple[Scalar, int]]:
    """Roots over GF(p) by evaluating every residue, with multiplicities.

    Each residue is first tried by Horner's rule on plain ints, which keeps
    the scan fast at p near 2^16; the roots it finds are then deflated as Polys.
    """
    field = p.field
    modulus = field.modulus
    roots = []
    work = p
    top = [c.value for c in reversed(work.coeffs)]
    for r in range(modulus):
        value = 0
        for c in top:
            value = (value * r + c) % modulus
        if value:
            continue
        point = Scalar(field, r)
        mult = 0
        while work.degree >= 1 and work(point).is_zero():
            work = _deflate(work, point)
            mult += 1
        if mult:
            roots.append((point, mult))
        if work.degree < 1:
            break
        top = [c.value for c in reversed(work.coeffs)]
    return roots


def divisor_roots(p: Poly) -> list[tuple[Scalar, int]]:
    """Rational roots by the rational-root test on the integer-scaled polynomial."""
    field = p.field
    roots = []
    work = p
    zero_mult = 0
    while not work.coeff(0):
        work = Poly(field, work.coeffs[1:])
        zero_mult += 1
    if zero_mult:
        roots.append((field.zero(), zero_mult))
    if work.degree >= 1:
        denom_lcm = lcm(*(c.value.denominator for c in work.coeffs))
        ints = [c.value.numerator * (denom_lcm // c.value.denominator) for c in work.coeffs]
        candidates = set()
        dens = _int_divisors(ints[-1])
        for num in _int_divisors(ints[0]):
            for den in dens:
                candidates.add(Fraction(num, den))
                candidates.add(Fraction(-num, den))
        for cand in sorted(candidates):
            point = field.scalar(cand)
            mult = 0
            while work.degree >= 1 and work(point).is_zero():
                work = _deflate(work, point)
                mult += 1
            if mult:
                roots.append((point, mult))
    roots.sort(key=lambda rm: rm[0].sort_key())
    return roots


def repeated_powmod(shift: int, e: int, f: list[int], p: int) -> list[int]:
    """(x + shift)^e mod f over GF(p) by repeated multiplication with Poly arithmetic.

    Above 64 the exponent is halved, (x + shift)^e = ((x + shift)^(e // 2))^2
    (x + shift)^(e % 2), because e = (p - 1)/2 and e = p are out of reach of
    plain repetition for large p.  f need not be monic.
    """
    field = GF(p)
    modulus = Poly(field, [field.scalar(c) for c in f])
    base = Poly(field, [field.scalar(shift), field.one()])
    if e > 64:
        half = Poly(field, [field.scalar(c) for c in repeated_powmod(shift, e // 2, f, p)])
        out = _divmod(half * half, modulus)[1]
        if e % 2:
            out = _divmod(out * base, modulus)[1]
    else:
        out = _divmod(Poly.constant(field, 1), modulus)[1]
        for _ in range(e):
            out = _divmod(out * base, modulus)[1]
    return [c.value for c in out.coeffs]


def _deflate_fraction(a: list[Fraction], r: Fraction):
    """a / (x - r) when r is a root of a, else None."""
    quo = [Fraction(0)] * (len(a) - 1)
    acc = Fraction(0)
    for k in range(len(a) - 1, 0, -1):
        acc = acc * r + a[k]
        quo[k - 1] = acc
    return quo if acc * r + a[0] == 0 else None


def fraction_rational_roots(f: list[Fraction]) -> list[tuple[Fraction, int]]:
    """``modular.rational_roots`` with each candidate confirmed by Fraction deflation.

    Zero is split off as a power of x; the candidates come from the
    production ``_rational_candidates`` on the cleared polynomial.
    """
    out = []
    zero_mult = 0
    while f[0] == 0:
        f = f[1:]
        zero_mult += 1
    if zero_mult:
        out.append((Fraction(0), zero_mult))
    if len(f) > 1:
        den = lcm(*(Fraction(c).denominator for c in f))
        ints = [int(c * den) for c in f]
        for cand in _rational_candidates(ints):
            mult = 0
            while len(f) > 1:
                quo = _deflate_fraction(f, cand)
                if quo is None:
                    break
                f = quo
                mult += 1
            if mult:
                out.append((cand, mult))
    return out
