"""Known-answer instances for the benchmark, built without lpkit.

Every instance is written in lpkit's text format, and its expected verdict
follows from how it was built:

* Positives are the Krawtchouk pair (a_i = 0, b_i = d - i, c_i = i,
  theta*_i = theta_i = d - 2i) under an affine map A -> uA + v,
  A* -> u*A* + v*, followed by a diagonal change of basis that sets the
  superdiagonal to random nonzero targets.  Both maps keep a Leonard pair a
  Leonard pair, so the adjacency graph stays the path theta_0 - ... - theta_d.
* Negatives break the three-term recurrence on theta* (condition (ii) of the
  theorem), which every Q-polynomial pair with d >= 3 satisfies.  The break
  is confirmed here by ``recurrence_holds``, a small exact solve of our own.

Field elements are ``Fraction`` over Q and ints in [0, p) over GF(p).
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence


class Field:
    """Q (``p is None``) or GF(p), with just the operations the generators need."""

    def __init__(self, p: Optional[int] = None):
        self.p = p

    def __call__(self, x) -> object:
        if self.p is None:
            return Fraction(x)
        x = Fraction(x)
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def div(self, a, b):
        if self.p is None:
            return Fraction(a) / Fraction(b)
        return a * pow(b, -1, self.p) % self.p

    def norm(self, x):
        return Fraction(x) if self.p is None else x % self.p

    def key(self, x):
        """lpkit's canonical order: (numerator, denominator) over Q, residue over GF(p)."""
        return (x.numerator, x.denominator) if self.p is None else (x,)

    def text(self, x) -> str:
        if self.p is None and x.denominator != 1:
            return f"{x.numerator}/{x.denominator}"
        return str(x.numerator if self.p is None else x)

    def header(self) -> str:
        return "field rationals" if self.p is None else f"field prime {self.p}"


@dataclass(frozen=True)
class Instance:
    """One pair in a feasible basis; ``c`` holds c_1..c_d as in lpkit's format."""

    field: Field
    a: tuple
    b: tuple
    c: tuple
    theta_star: tuple
    theta: tuple          # eigenvalues of A, in the order used for the hint
    family: str           # "krawtchouk" | "mutated" | "random"
    expected: bool        # expected Q-polynomial verdict

    @property
    def d(self) -> int:
        return len(self.a) - 1

    def text(self, hint: bool) -> str:
        f = self.field
        lines = [f.header(), f"d {self.d}"]
        for key, vec in (("a", self.a), ("b", self.b), ("c", self.c),
                         ("theta_star", self.theta_star)):
            lines.append(key + " " + " ".join(f.text(x) for x in vec))
        if hint:
            lines.append("theta " + " ".join(f.text(x) for x in self.theta))
        return "\n".join(lines) + "\n"

    def manifest(self) -> dict:
        return {"field": "Q" if self.field.p is None else "GF", "p": self.field.p,
                "d": self.d, "family": self.family, "expected": self.expected}


def parse(text: str, field: Field) -> dict:
    """Read lpkit's text format into {key: list of field elements} plus 'd' and 'field'."""
    out: dict = {}
    for raw in text.splitlines():
        key, _, rest = raw.strip().partition(" ")
        if not key or key.startswith("#") or key == "label":  # lpkit's gen writes a label
            continue
        if key == "field":
            out["field"] = rest.strip()
        elif key == "d":
            out["d"] = int(rest)
        else:
            out[key] = [field(Fraction(tok)) for tok in rest.split()]
    return out


def recurrence_holds(field: Field, theta_star: Sequence) -> bool:
    """Condition (ii): some (beta, gamma*) has t_{i-1} - beta t_i + t_{i+1} = gamma*, 0 < i < d.

    Each equation is linear: beta t_i + gamma* = t_{i-1} + t_{i+1}.  Two
    equations with different t_i fix (beta, gamma*); the rest must agree.
    """
    ts = list(theta_star)
    eqs = [(ts[i], field.norm(ts[i - 1] + ts[i + 1])) for i in range(1, len(ts) - 1)]
    if not eqs:
        return True
    t0, r0 = eqs[0]
    other = next(((t, r) for t, r in eqs if t != t0), None)
    if other is None:  # every t_i equal: beta is free, so all right-hand sides must match
        return all(r == r0 for _, r in eqs)
    beta = field.div(field.norm(r0 - other[1]), field.norm(t0 - other[0]))
    gamma = field.norm(r0 - beta * t0)
    return all(field.norm(beta * t + gamma) == r for t, r in eqs)


def krawtchouk(field: Field, d: int) -> Instance:
    a = tuple(field(0) for _ in range(d + 1))
    b = tuple(field(d - i) for i in range(d))
    c = tuple(field(i) for i in range(1, d + 1))
    spec = tuple(field(d - 2 * i) for i in range(d + 1))
    return Instance(field, a, b, c, spec, spec, "krawtchouk", True)


def transform(inst: Instance, u, v, u_star, v_star, targets: Sequence) -> Instance:
    """A -> uA + vI, A* -> u*A* + v*I, then rescale the superdiagonal to ``targets``.

    The products b_{i-1} c_i scale by u^2; the idempotents of A only change
    by a diagonal similarity, so the adjacency graph is unchanged.
    """
    f = inst.field
    u, v, u_star, v_star = f(u), f(v), f(u_star), f(v_star)
    targets = [f(t) for t in targets]
    return replace(
        inst,
        a=tuple(f.norm(u * x + v) for x in inst.a),
        b=tuple(targets),
        c=tuple(f.div(f.norm(u * u * bk * ck), t) for bk, ck, t in zip(inst.b, inst.c, targets)),
        theta_star=tuple(f.norm(u_star * x + v_star) for x in inst.theta_star),
        theta=tuple(f.norm(u * x + v) for x in inst.theta),
    )


_Q_SCALES = (1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3))
_Q_TARGETS = (1, -1, 2, -2, 3, -3, 5, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 5))


def random_image(rng: random.Random, inst: Instance) -> Instance:
    """A random affine image with a random superdiagonal; small entries over Q."""
    f = inst.field
    if f.p is None:
        u = rng.choice(_Q_SCALES)
        v = rng.randrange(-2, 3)
        u_star = rng.choice(_Q_SCALES)
        v_star = rng.randrange(-3, 4)
    else:
        u, v = rng.randrange(1, f.p), rng.randrange(f.p)
        u_star, v_star = rng.randrange(1, f.p), rng.randrange(f.p)
    targets = [rng.choice(_Q_TARGETS) if f.p is None else rng.randrange(1, f.p)
               for _ in range(inst.d)]
    return transform(inst, u, v, u_star, v_star, targets)


def mutate(rng: random.Random, inst: Instance) -> Instance:
    """Move one interior theta*_k so the recurrence breaks and theta* stays distinct."""
    f = inst.field
    ts = list(inst.theta_star)
    while True:
        k = rng.randrange(1, inst.d)
        delta = rng.choice((1, -1, 2, -2, 3)) if f.p is None else rng.randrange(1, f.p)
        new = f.norm(ts[k] + delta)
        trial = ts[:k] + [new] + ts[k + 1:]
        if new not in ts and not recurrence_holds(f, trial):
            return replace(inst, theta_star=tuple(trial), family="mutated", expected=False)


def random_split(rng: random.Random, field: Field, d: int) -> Instance:
    """A random pair over GF(p) whose A has d+1 distinct eigenvalues in the field.

    Like lpkit's ``gen_random``, it draws the spectrum first.  The tridiagonal
    data come from the discrete Stieltjes procedure: the monic polynomials
    orthogonal for random weights on the chosen eigenvalues satisfy
    x p_k = p_{k+1} + a_k p_k + beta_k p_{k-1}, so the tridiagonal matrix with
    diagonal a_k and products b_{k-1} c_k = beta_k has exactly that spectrum.
    theta* is random and distinct, and redrawn until the recurrence (ii) fails.
    """
    p = field.p
    while True:
        theta = rng.sample(range(p), d + 1)
        w = [rng.randrange(1, p) for _ in range(d + 1)]
        prev, cur = [0] * (d + 1), [1] * (d + 1)
        prev_norm = None
        a, beta = [], []
        for k in range(d + 1):
            norm = sum(wi * x * x for wi, x in zip(w, cur)) % p
            if norm == 0:
                break
            a_k = field.div(sum(wi * t * x * x for wi, t, x in zip(w, theta, cur)) % p, norm)
            a.append(a_k)
            beta_k = field.div(norm, prev_norm) if k else 0
            if k:
                beta.append(beta_k)
            prev, cur = cur, [((t - a_k) * x - beta_k * y) % p
                              for t, x, y in zip(theta, cur, prev)]
            prev_norm = norm
        if len(a) != d + 1:
            continue
        b = [rng.randrange(1, p) for _ in range(d)]
        c = [field.div(bk_prod, bk) for bk_prod, bk in zip(beta, b)]
        ts = rng.sample(range(p), d + 1)
        if recurrence_holds(field, ts):
            continue
        return Instance(field, tuple(a), tuple(b), tuple(c), tuple(ts), tuple(theta),
                        "random", False)


def cosines(inst: Instance, theta) -> list:
    """u_0(theta)..u_d(theta) from b_i u_{i+1} = (theta - a_i) u_i - c_i u_{i-1}."""
    f = inst.field
    u = [f(1)]
    prev = f(0)
    for i in range(inst.d):
        c_i = inst.c[i - 1] if i else f(0)
        nxt = f.div(f.norm((theta - inst.a[i]) * u[i] - c_i * prev), inst.b[i])
        prev = u[i]
        u.append(nxt)
    return u


def rebase_index(inst: Instance) -> Optional[int]:
    """Index (in hint order) of the first eigenvalue with no vanishing cosine."""
    return next((i for i, t in enumerate(inst.theta)
                 if all(x != 0 for x in cosines(inst, t))), None)


def path_order(inst: Instance) -> tuple:
    """The order ``check`` must report for a positive given without a hint.

    Vertices are eigenvalue positions in lpkit's canonical order; the path
    visits theta_0, ..., theta_d and is read from its smaller endpoint.
    """
    ranked = sorted(inst.theta, key=inst.field.key)
    order = [ranked.index(t) for t in inst.theta]
    return tuple(order if order[0] < order[-1] else order[::-1])


def splits(field: Field, a: Sequence, b: Sequence, c: Sequence) -> bool:
    """Over GF(p): does the tridiagonal matrix have d+1 distinct eigenvalues in the field?

    True exactly when its characteristic polynomial f divides x^p - x.
    """
    p = field.p
    f_prev, f_cur = [0], [1]  # coefficient lists, lowest degree first
    for k in range(len(a)):
        w = b[k - 1] * c[k - 1] if k else 0
        nxt = [0] + f_cur
        for i, x in enumerate(f_cur):
            nxt[i] = (nxt[i] - a[k] * x) % p
        for i, x in enumerate(f_prev):
            nxt[i] = (nxt[i] - w * x) % p
        f_prev, f_cur = f_cur, nxt
    n = len(f_cur) - 1

    def mulmod(x, y):
        prod = [0] * (len(x) + len(y) - 1)
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                prod[i + j] = (prod[i + j] + xi * yj) % p
        for top in range(len(prod) - 1, n - 1, -1):  # f is monic
            q = prod[top]
            if q:
                for j in range(n + 1):
                    prod[top - n + j] = (prod[top - n + j] - q * f_cur[j]) % p
        return prod[:n]  # x, y have n coefficients, so prod has 2n - 1 >= n

    result, base, e = [1] + [0] * (n - 1), [0, 1] + [0] * (n - 2), p
    while e:
        if e & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        e >>= 1
    return result == [0, 1] + [0] * (n - 2)
