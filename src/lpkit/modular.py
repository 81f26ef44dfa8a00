"""Algorithms on plain integers: primality, residue-list division, and root finding over GF(p) and Q.

Polynomials over GF(p) are residue lists: ints in [0, p), low degree first,
with no trailing zeros (the zero polynomial is []).  Roots mod p come from
evaluating at every residue when p is small against the degree, and from
powering and equal-degree splitting otherwise.  The powering carries its
power as one integer, the coefficients in consecutive slots of w bits,
from the first bit to the last; polynomial Barrett reduction divides by f
in two integer products, and slot-wise Barrett passes reduce every slot
mod p at once, keeping each in [0, 3p).  w and the number of passes follow
from the largest slot any product makes, n (3p - 1)^2 for f of degree n:
w is its bit length plus 2, and a pass maps a slot bound X to
2p + p X / 4^bitlen(p) (see ``_slot_reducer``).  Polynomials over Q come
as lists of Fractions and are cleared to integer lists once; their roots
are found modulo the first prime, counting up from 2, that keeps the
squarefree part squarefree and of full degree, then lifted until the
modulus passes a root bound; the squarefree part is the polynomial itself,
with no gcd over the integers, when one fixed prime (2^61 + 15, not a
Mersenne prime) shows it squarefree.  Nothing here knows about ``Scalar`` or
``Poly``; the wrapper costs about 15x per GF(p) multiply-add, so
``exactmath`` converts once and calls these functions.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, Iterator, Optional

from .errors import InternalInconsistency

__all__ = ["is_prime", "divmod_residues", "monic", "linear_powmod", "prime_field_roots", "rational_roots"]


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# rules out repeated factors over Q for _rational_candidates.  2 has order (q - 1)/2 mod this
# prime, but 61 mod 2^61 - 1, where every theta_i = x + y 2^i + z 2^(-i) meets theta_(i+61)
_CHECK_PRIME = 2**61 + 15


def is_prime(n: int) -> bool:
    """Baillie-PSW: strong probable prime to the first twelve prime bases and strong Lucas.

    The Miller-Rabin part alone is deterministic for n < 3.3e24; the strong
    Lucas step rejects the strong pseudoprimes to those bases above that
    bound (no composite is known to pass both tests).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return _is_strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 37 with Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4.  With n + 1 = q 2^s, n passes when U_q = 0 or
    V_{q 2^r} = 0 for some 0 <= r < s (all mod n).
    """
    if isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists for a square
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False  # gcd(D, n) > 1 and n > |D|
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    q, s = n + 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1

    def half(x: int) -> int:
        return (x if x % 2 == 0 else x + n) // 2 % n

    u, v, qk = 1, 1, Q % n  # U_1, V_1, Q^1 with P = 1
    for bit in bin(q)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(D * u + v), qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def divmod_residues(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a nonzero b."""
    rem = list(a)
    db = len(b) - 1
    if len(rem) <= db:
        return [], rem
    inv = pow(b[-1], -1, p)
    quo = [0] * (len(rem) - db)
    for k in range(len(quo) - 1, -1, -1):
        q = rem[k + db] * inv % p
        quo[k] = q
        if q:
            for j in range(db):
                rem[k + j] = (rem[k + j] - q * b[j]) % p
    return quo, _trim(rem[:db])


def monic(f: list[int], p: int) -> list[int]:
    """f divided by its leading coefficient."""
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _slot_reducer(p: int, n: int) -> tuple[int, Callable[[int], int]]:
    """The slot width w of a power mod f of degree n, and the reduction of every slot mod p.

    The function takes an integer of up to 2n slots of w bits, each at most
    n (3p - 1)^2, and returns it with every slot congruent mod p and in
    [0, 3p).  It runs slot-wise Barrett passes
    X -= ((((X >> (b-1)) & M) m >> (b+1)) & M) p, where b is the bit length
    of p, m = 4^b div p and M keeps the low w - b - 1 bits of every slot.  A
    pass keeps a slot below 2^(w-2) inside its w bits and takes it from X to
    below 2p + p X / 4^b, so to [0, 3p) once X < 4^b.  No product of
    ``_prefix_powers`` makes a slot above n (3p - 1)^2, the square's bound,
    so w is the bit length of that bound plus 2, about 2 bitlen(p) +
    bitlen(n) + 6, and the number of passes is how many the bound takes to
    fall below 3p: two unless n is large against p.
    """
    b = p.bit_length()
    bound = n * (3 * p - 1) ** 2
    width = bound.bit_length() + 2
    passes = 0
    while bound >= 3 * p:
        bound = 2 * p + (p * bound >> 2 * b)
        passes += 1
    barrett = 4**b // p
    slot_bits = (1 << (width - b - 1)) - 1
    mask = sum(slot_bits << (width * k) for k in range(2 * n))

    def reduced(x: int) -> int:
        for _ in range(passes):
            x -= (((x >> (b - 1) & mask) * barrett >> (b + 1)) & mask) * p
        return x

    return width, reduced


def _prefix_powers(shift: int, e: int, f: list[int], p: int) -> Iterator[Callable[[], list[int]]]:
    """Yield, for k = t-1, ..., 0, a function returning (x + shift)^(e >> k) mod a monic f.

    f has degree n >= 1, 0 <= shift < p, and t is the bit length of e (1 for
    e = 0), so the last prefix is the power itself.  Left to right, one bit
    per step: a squaring, a division by f, and on a set bit a multiply by
    x + shift.  The power stays one integer, its n coefficients in slots of
    w bits, each in [0, 3p), from the first bit to the last:

    - the square is one integer product of 2n - 1 slots;
    - its high n - 1 slots H are divided by f by polynomial Barrett
      reduction: the quotient Q is the top n - 1 slots of H mu, where
      mu = x^(2n-1) div f is computed once, so the remainder is the low n
      slots of the square plus the low n slots of Q g, g = -f mod p
      without its leading 1;
    - x + shift multiplies as a shift by one slot plus a scalar product,
      and the top slot c folds back as c g.

    After each product every slot is reduced mod p at once by the
    reduction of ``_slot_reducer``, which also fixes w.  A prefix is
    unpacked into residues in [0, p) only when its function is called.
    """
    n = len(f) - 1
    width, reduced = _slot_reducer(p, n)
    slot = (1 << width) - 1
    low = (1 << (width * n)) - 1

    def packed(coeffs: list[int]) -> int:
        return sum(c << (width * k) for k, c in enumerate(coeffs))

    def residues(x: int) -> Callable[[], list[int]]:
        return lambda: _trim([(x >> (width * k) & slot) % p for k in range(n)])

    mu = packed(divmod_residues([0] * (2 * n - 1) + [1], f, p)[0])
    neg_f = packed([-c % p for c in f[:-1]])
    power = 1
    for bit in bin(e)[2:]:
        square = reduced(power * power)
        quo = reduced((square >> (width * n)) * mu >> (width * (n - 1)))
        power = reduced((square & low) + (quo * neg_f & low))
        if bit == "1":
            top = power >> (width * (n - 1))
            power = reduced(((power << width) + shift * power + top * neg_f) & low)
        yield residues(power)


def linear_powmod(shift: int, e: int, f: list[int], p: int) -> list[int]:
    """(x + shift)^e mod a nonzero residue list f, by left-to-right powering.

    The power is carried packed, every coefficient in one slot of a single
    integer kept in [0, 3p) by slot-wise Barrett passes (see
    ``_prefix_powers``); only the last prefix is unpacked.
    """
    if len(f) < 2:
        return []
    *_, power = _prefix_powers(shift % p, e, monic(f, p), p)
    return power()


def _sub_residues(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _gcd_residues(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd of a and b (the zero polynomial when both are zero)."""
    while b:
        a, b = b, divmod_residues(a, b, p)[1]
    return monic(a, p) if a else a


def _deflate_residues(a: list[int], r: int, p: int) -> tuple[list[int], int]:
    """Synthetic division by x - r: the quotient and the remainder a(r)."""
    quo = [0] * (len(a) - 1)
    acc = 0
    for k in range(len(a) - 1, 0, -1):
        acc = (acc * r + a[k]) % p
        quo[k - 1] = acc
    return quo, (acc * r + a[0]) % p


def _sqrt_mod(a: int, p: int) -> int:
    """A square root of a nonzero square a modulo an odd prime p.

    One powering when p = 3 mod 4; otherwise Tonelli-Shanks with the first
    non-residue among z = 2, 3, ...  For a non-square a the result does not
    square to a.
    """
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _jacobi(z, p) != -1:
        z += 1
    c, t, root = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:  # invariant: root^2 = a t, and t has order 2^i with i < s
        i, t2 = 0, t
        while t2 != 1 and i < s:
            t2 = t2 * t2 % p
            i += 1
        if i == s:  # t has order 2^s: a is not a square
            return root
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, root = i, b * b % p, t * b * b % p, root * b % p
    return root


def _quadratic_roots(g: list[int], p: int) -> list[int]:
    """The two roots (-b +- sqrt(D))/2, D = b^2 - 4c, of a monic x^2 + bx + c over GF(p), p odd.

    g has two distinct roots in GF(p), so D is a nonzero square; anything
    else is an internal error.
    """
    c, b, _ = g
    disc = (b * b - 4 * c) % p
    if disc == 0:
        raise InternalInconsistency(f"quadratic factor with a double root mod {p}")
    root = _sqrt_mod(disc, p)
    if root * root % p != disc:
        raise InternalInconsistency(f"quadratic factor without roots mod {p}")
    half = (p + 1) // 2
    return [(root - b) * half % p, (-root - b) * half % p]


def _split_linear(g: list[int], shift: int, p: int, roots: list[int],
                  power: Optional[list[int]] = None) -> None:
    """Append the roots of g, a monic product of distinct linear factors over GF(p), p odd.

    A quadratic g is solved in closed form by one modular square root.
    Larger g are taken apart by equal-degree splitting with deterministic
    shifts a = shift, shift+1, ...: gcd(g, (x + a)^((p-1)/2) - 1) collects the
    roots r with r + a a nonzero square.  The factor x + a is divided out
    first, so every residue is reached by the time a has run through GF(p).
    power, when given, is (x + shift)^((p-1)/2) reduced mod a multiple of g,
    so the first split needs no powering of its own.
    """
    while len(g) > 2:
        if len(g) == 3:
            roots.extend(_quadratic_roots(g, p))
            return
        quo, value = _deflate_residues(g, -shift % p, p)
        if not value:
            roots.append(-shift % p)
            g = quo
            continue
        if power is None:
            power = linear_powmod(shift, (p - 1) // 2, g, p)
        h = _gcd_residues(g, _sub_residues(divmod_residues(power, g, p)[1], [1], p), p)
        power = None
        shift += 1
        if 2 <= len(h) < len(g):
            _split_linear(h, shift, p, roots)
            g = divmod_residues(g, h, p)[0]
    if len(g) == 2:
        roots.append(-g[0] % p)


def _roots_by_evaluation(f: list[int], p: int) -> list[int]:
    """The residues r with f(r) = 0 mod p, ascending: Horner's rule at every residue."""
    values = [0] * p
    residues = range(p)
    for c in reversed(f):
        values = [(v * r + c) % p for v, r in zip(values, residues)]
    return [r for r, v in enumerate(values) if not v]


def _roots_mod_p(f: list[int], p: int) -> list[int]:
    """The distinct roots in GF(p) of a nonzero residue list f of degree d, ascending.

    When p <= d bitlen(p), f is evaluated at every residue: p d operations
    mod p, no more than the d^2 log p of the powering below.  That covers
    p = 2 at every degree, so the powering only ever sees odd p.  Otherwise
    gcd(f, x^p - x) is the product of the distinct linear factors of f, and
    equal-degree splitting takes it apart; x^p is the square of x^((p-1)/2)
    times x, and that x^((p-1)/2) is also the first splitting power.
    O(d^2 log p) operations mod p.
    """
    d = len(f) - 1
    if d < 1:
        return []
    if p <= d * p.bit_length():
        return _roots_by_evaluation(f, p)
    *_, half, xp = _prefix_powers(0, p, monic(f, p), p)  # x^((p-1)/2), x^p
    g = _gcd_residues(f, _sub_residues(xp(), [0, 1], p), p)
    roots: list[int] = []
    _split_linear(g, 0, p, roots, half())
    return sorted(roots)


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """A gcd over Q of two nonzero integer polynomials, by the primitive remainder sequence."""
    def primitive(c: list[int]) -> list[int]:
        g = gcd(*c)
        return [x // g for x in c]

    a, b = primitive(a), primitive(b)
    while len(b) > 1:
        rem = list(a)
        lead = b[-1]
        for k in range(len(a) - len(b), -1, -1):  # pseudo-division by b
            q = rem[k + len(b) - 1]
            rem = [x * lead for x in rem]
            for j, y in enumerate(b):
                rem[k + j] -= q * y
        rem = _trim(rem[:len(b) - 1])
        if not rem:
            return b
        a, b = b, primitive(rem)
    return [1]


def _int_poly_divexact(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials where b is primitive and divides a over Q."""
    rem = list(a)
    quo = [0] * (len(a) - len(b) + 1)
    for k in range(len(quo) - 1, -1, -1):
        q, r = divmod(rem[k + len(b) - 1], b[-1])
        if r:
            raise InternalInconsistency("inexact polynomial division")
        quo[k] = q
        for j, y in enumerate(b):
            rem[k + j] -= q * y
    if any(rem):
        raise InternalInconsistency("inexact polynomial division")
    return quo


def _rational_reconstruction(r: int, m: int, bound_num: int, bound_den: int) -> Optional[Fraction]:
    """The n/d with n = d r mod m, |n| <= bound_num and 0 < d <= bound_den, if one exists.

    Unique when 2 bound_num bound_den < m (extended Euclid on m and r).
    """
    r0, r1, t0, t1 = m, r % m, 0, 1
    while r1 > bound_num:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound_den or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _divide_linear(a: list[int], n: int, m: int) -> Optional[list[int]]:
    """a / (m x - n) for an integer polynomial a and m > 0 if the quotient is integral, else None.

    For coprime n and m, m x - n is primitive, so by Gauss's lemma the
    quotient is integral exactly when n/m is a root of a.
    """
    quo = [0] * (len(a) - 1)
    acc = 0
    for k in range(len(a) - 1, 0, -1):
        acc, rem = divmod(a[k] + n * acc, m)
        if rem:
            return None
        quo[k - 1] = acc
    return quo if a[0] + n * acc == 0 else None


def _squarefree_mod(f: list[int], deriv: list[int], p: int) -> bool:
    """Whether the integer polynomial f, with derivative deriv, is squarefree and of full degree mod p."""
    if f[-1] % p == 0:
        return False
    return len(_gcd_residues([c % p for c in f], _trim([c % p for c in deriv]), p)) == 1


def _root_bound_bits(f: list[int]) -> int:
    """A t >= 1 with |z| < B = 2^t for every complex root z of an integer polynomial f, f(0) != 0.

    Fujiwara's bound 2 max_k |c_(n-k)/c_n|^(1/k), rounded up to a power of 2
    from bit lengths alone: |c_(n-k)/c_n| < 2^e_k with
    e_k = bitlen c_(n-k) - bitlen c_n + 1, and each e_k/k is rounded up.
    """
    top = abs(f[-1]).bit_length() - 1
    return 1 + max(0, max(-((top - abs(c).bit_length()) // k)
                          for k, c in enumerate(reversed(f[:-1]), 1) if c))


def _rational_candidates(big: list[int]) -> list[Fraction]:
    """Candidate nonzero rational roots of an integer polynomial (constant term nonzero, degree >= 1).

    Roots of the squarefree part S, an integer polynomial, modulo the first
    prime p that keeps S squarefree and of full degree; each root is
    Newton-lifted until p^k > 2 N |lc(S)| and rebuilt by rational
    reconstruction.  A rational root n/m of S in lowest terms has m dividing
    lc(S), so it has an image mod p, and that image is a simple root there;
    and |n/m| < B for the root bound B of ``_root_bound_bits``, so
    |n| < N = B |lc(S)|.  The modulus thus grows with the size of one root,
    not with that of their product S(0).  All roots are lifted together,
    with S and S' reduced once per step.  Every rational root is therefore
    among the candidates; the caller confirms each one by exact division.
    The primes skipped all divide lc(S) disc(S), so there are polynomially
    many in the size of S.  S is the polynomial itself, with no gcd over the
    integers, when it is squarefree and of full degree mod _CHECK_PRIME
    (2^61 + 15), since its discriminant is then nonzero.
    """
    deriv = [k * c for k, c in enumerate(big)][1:]
    sq = big
    if not _squarefree_mod(big, deriv, _CHECK_PRIME):
        sq = _int_poly_divexact(big, _int_poly_gcd(big, deriv))
    dsq = [k * c for k, c in enumerate(sq)][1:]
    p = 2
    while not (is_prime(p) and _squarefree_mod(sq, dsq, p)):
        p += 1
    bound_den = abs(sq[-1])
    bound_num = bound_den << _root_bound_bits(sq)
    roots, m = _roots_mod_p([c % p for c in sq], p), p
    while m <= 2 * bound_num * bound_den:
        m *= m
        top, dtop = [c % m for c in reversed(sq)], [c % m for c in reversed(dsq)]
        lifted = []
        for r in roots:
            value = dvalue = 0
            for c in top:
                value = (value * r + c) % m
            for c in dtop:
                dvalue = (dvalue * r + c) % m
            lifted.append((r - value * pow(dvalue, -1, m)) % m)
        roots = lifted
    out = []
    for r in roots:
        cand = _rational_reconstruction(r, m, bound_num, bound_den)
        if cand is not None:
            out.append(cand)
    return out


def prime_field_roots(f: list[int], p: int) -> list[tuple[int, int]]:
    """The roots of a nonzero residue list f in GF(p), ascending, with multiplicities.

    Multiplicities come from exact deflation of f; a candidate that does not
    divide f is an internal error.
    """
    out = []
    for r in _roots_mod_p(f, p):
        mult = 0
        while len(f) > 1:
            quo, value = _deflate_residues(f, r, p)
            if value:
                break
            f = quo
            mult += 1
        if not mult:
            raise InternalInconsistency(f"{r} is not a root mod {p}")
        out.append((r, mult))
    return out


def rational_roots(f: list[Fraction]) -> list[tuple[Fraction, int]]:
    """The rational roots of a nonzero polynomial f over Q, with multiplicities.

    f is cleared of denominators once.  Zero is split off as a power of x;
    every other candidate n/m is confirmed, and its multiplicity found, by
    exact integer division by m x - n.
    """
    den = lcm(*(c.denominator for c in f))
    f = [c.numerator * (den // c.denominator) for c in f]
    out = []
    zero_mult = 0
    while f[0] == 0:
        f = f[1:]
        zero_mult += 1
    if zero_mult:
        out.append((Fraction(0), zero_mult))
    if len(f) > 1:
        for cand in _rational_candidates(f):
            mult = 0
            while len(f) > 1:
                quo = _divide_linear(f, cand.numerator, cand.denominator)
                if quo is None:
                    break
                f = quo
                mult += 1
            if mult:
                out.append((cand, mult))
    return out
