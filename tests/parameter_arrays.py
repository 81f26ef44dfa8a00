"""Leonard systems built from parameter arrays: known positives with mixed denominators.

Plain Fractions and ints; nothing here imports lpkit, so the systems are an
oracle for it.  A parameter array (theta, theta*, phi, varphi) of diameter d
determines a Leonard system up to isomorphism (P. Terwilliger, "Two linear
transformations each tridiagonal with respect to an eigenbasis of the
other", Linear Algebra Appl. 330, 2001).  Given the eigenvalue sequence
theta, the dual eigenvalue sequence theta* (both satisfying the three-term
recurrence with one common beta) and varphi_1, the rest follows:

- phi_1 = varphi_1 + (theta*_1 - theta*_0)(theta_0 - theta_d);
- with S_i = sum_{h<i} (theta_h - theta_{d-h})/(theta_0 - theta_d),
  PA3: phi_i = varphi_1 S_i + (theta*_i - theta*_0)(theta_{i-1} - theta_d),
  PA4: varphi_i = phi_1 S_i + (theta*_i - theta*_0)(theta_{d-i+1} - theta_0).

In the basis where A* = diag(theta*), A is tridiagonal with

- a_i = theta_i + phi_i/(theta*_i - theta*_{i-1}) + phi_{i+1}/(theta*_i - theta*_{i+1}),
  with phi_0 = phi_{d+1} = 0;
- b_{i-1} c_i = phi_i varphi_i tau*_{i-1}(theta*_{i-1}) eta*_{d-i}(theta*_i)
  / (tau*_i(theta*_i) eta*_{d-i+1}(theta*_{i-1})),
  where tau*_i(x) = prod_{h<i} (x - theta*_h) and eta*_i(x) = prod_{h<i} (x - theta*_{d-h}).

``leonard_system`` returns that A with b = 1 and c_i = b_{i-1} c_i.  Its
eigenvalues are theta, and the pair is Q-polynomial in the order
0, 1, ..., d.  Two families, each with varphi_1 = 7/3:

- ``pa52``: theta_i = 2^i + 2^(-i)/3 and theta*_i = 2^(-i) + 2^i/5, so
  beta = 5/2; the a_i have many different denominators;
- ``racah``: theta_i = i(i+3) and theta*_i = i(i+5)/2, so beta = 2.

``mutant`` breaks the recurrence of theta*, which no Leonard system allows,
and ``residues`` reduces a list into GF(p) where no denominator vanishes.
"""
from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Optional, Sequence

VARPHI_1 = Fraction(7, 3)


def pa52(d: int) -> tuple[list[Fraction], list[Fraction]]:
    """theta and theta* of the beta = 5/2 family: 2^i + 2^(-i)/3 and 2^(-i) + 2^i/5."""
    theta = [2 ** i + Fraction(1, 3 * 2 ** i) for i in range(d + 1)]
    theta_star = [Fraction(1, 2 ** i) + Fraction(2 ** i, 5) for i in range(d + 1)]
    return theta, theta_star


def racah(d: int) -> tuple[list[Fraction], list[Fraction]]:
    """theta and theta* of the beta = 2 family: i(i+3) and i(i+5)/2."""
    return [Fraction(i * (i + 3)) for i in range(d + 1)], [Fraction(i * (i + 5), 2) for i in range(d + 1)]


FAMILIES = {"pa52": pa52, "racah": racah}


def recurrence_holds(x: Sequence[Fraction]) -> bool:
    """Whether x_{i-1} - beta x_i + x_{i+1} is one constant for one beta, for pairwise distinct x.

    That is PA5's form: (x_{i-2} - x_{i+1})/(x_{i-1} - x_i) is independent of i
    for 2 <= i <= d - 1 (it equals beta + 1).
    """
    ratios = {(x[i - 2] - x[i + 1]) / (x[i - 1] - x[i]) for i in range(2, len(x) - 1)}
    return len(ratios) <= 1


def parameter_array(theta: Sequence[Fraction], theta_star: Sequence[Fraction],
                    varphi_1: Fraction = VARPHI_1) -> tuple[list[Fraction], list[Fraction]]:
    """(phi_1..phi_d, varphi_1..varphi_d) from PA3 and PA4; ValueError unless PA1 and PA2 hold."""
    d = len(theta) - 1
    if len(set(theta)) != d + 1 or len(set(theta_star)) != d + 1:
        raise ValueError("PA1: the eigenvalues and the dual eigenvalues must be distinct")
    phi_1 = varphi_1 + (theta_star[1] - theta_star[0]) * (theta[0] - theta[d])
    phi, varphi, s = [], [], Fraction(0)
    for i in range(1, d + 1):
        s += (theta[i - 1] - theta[d - i + 1]) / (theta[0] - theta[d])
        phi.append(varphi_1 * s + (theta_star[i] - theta_star[0]) * (theta[i - 1] - theta[d]))
        varphi.append(phi_1 * s + (theta_star[i] - theta_star[0]) * (theta[d - i + 1] - theta[0]))
    if not all(phi) or not all(varphi):
        raise ValueError("PA2: every phi_i and varphi_i must be nonzero")
    return phi, varphi


def leonard_system(theta: Sequence[Fraction], theta_star: Sequence[Fraction],
                   varphi_1: Fraction = VARPHI_1) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """(a, b, c) of the Leonard system with A* = diag(theta*): b_i = 1 and c_i = b_{i-1} c_i."""
    d = len(theta) - 1
    ts = theta_star
    phi, varphi = parameter_array(theta, ts, varphi_1)
    big = [Fraction(0)] + phi + [Fraction(0)]  # phi_0 = phi_{d+1} = 0

    def tau(i, x):
        return prod(x - ts[h] for h in range(i))

    def eta(i, x):
        return prod(x - ts[d - h] for h in range(i))

    a = [theta[i] + (big[i] / (ts[i] - ts[i - 1]) if i else 0)
         + (big[i + 1] / (ts[i] - ts[i + 1]) if i < d else 0) for i in range(d + 1)]
    c = [phi[i - 1] * varphi[i - 1] * tau(i - 1, ts[i - 1]) * eta(d - i, ts[i])
         / (tau(i, ts[i]) * eta(d - i + 1, ts[i - 1])) for i in range(1, d + 1)]
    return a, [Fraction(1)] * d, c


def mutant(theta_star: Sequence[Fraction]) -> list[Fraction]:
    """theta* with theta*_d raised by 1: for d >= 3 the recurrence no longer holds."""
    return list(theta_star[:-1]) + [theta_star[-1] + 1]


def residues(values: Sequence[Fraction], p: int) -> Optional[list[int]]:
    """The images of the values in GF(p), or None when a denominator vanishes mod p."""
    if any(v.denominator % p == 0 for v in values):
        return None
    return [v.numerator * pow(v.denominator, -1, p) % p for v in values]
