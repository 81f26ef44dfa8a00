"""Instance generators, affine closure, mutation, and the instance file format.

The file format is line-oriented structured text with named fields:

    # optional comments
    field rationals            (or: field prime 101)
    d 3
    label krawtchouk-3
    a 0 0 0 0
    b 3 2 1
    c 1 2 3
    theta_star 3 1 -1 -3
    theta 3 1 -1 -3            (optional eigenvalue hint)

Scalars are ASCII decimal integers or "num/den" strings; floats are rejected,
and each key appears at most once.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Optional

from .errors import (CharacteristicTooSmall, GenerationFailed, IndexOutOfRange,
                     InternalInconsistency, NonDecimalScalar, ParseError, ZeroScale)
from .exactmath import GF, RATIONALS, FieldSpec, Scalar
from .modular import divmod_residues, linear_powmod, monic
from .system import TridiagonalSystem, char_form, make_system, validate_system

__all__ = [
    "Instance",
    "gen_krawtchouk",
    "affine_transform",
    "mutate_theta_star",
    "gen_random",
    "parse_instance",
    "serialize_instance",
]

_MAX_RETRIES = 50  # gen_random's draws of eigenvalues before it gives up


@dataclass(frozen=True)
class Instance:
    """A system plus an optional eigenvalue hint and a free-text label."""

    system: TridiagonalSystem
    theta: Optional[tuple[Scalar, ...]] = None
    label: str = ""


def gen_krawtchouk(d: int, field: FieldSpec = RATIONALS) -> tuple[TridiagonalSystem, tuple[Scalar, ...]]:
    """The standard positive control: a_i = 0, b_i = d-i, c_i = i, theta*_i = theta_i = d-2i.

    Requires characteristic 0 or p > 2d so the eigenvalues stay distinct and
    the off-diagonal entries stay nonzero.
    """
    if field.is_prime_field and field.modulus <= 2 * d:
        raise CharacteristicTooSmall(f"need p > {2 * d}, got p = {field.modulus}")
    a = [0] * (d + 1)
    b = [d - i for i in range(d)]
    c = [i for i in range(1, d + 1)]
    theta_star = [d - 2 * i for i in range(d + 1)]
    sys = make_system(field, a, b, c, theta_star)
    theta = tuple(field.scalar(d - 2 * i) for i in range(d + 1))
    return sys, theta


def affine_transform(sys: TridiagonalSystem, u, v, u_star, v_star) -> TridiagonalSystem:
    """Apply a_i -> u a_i + v, b_i -> u b_i, c_i -> u c_i, theta*_i -> u* theta*_i + v*.

    Eigenvalues transform as theta -> u theta + v; the adjacency graph and
    all leaf verdicts are unchanged.
    """
    field = sys.field
    u, v = field.scalar(u), field.scalar(v)
    u_star, v_star = field.scalar(u_star), field.scalar(v_star)
    if u.is_zero() or u_star.is_zero():
        raise ZeroScale("scale factors must be nonzero")
    return TridiagonalSystem(
        sys.d,
        tuple(u * x + v for x in sys.a),
        tuple(u * x for x in sys.b),
        tuple(u * x for x in sys.c),
        tuple(u_star * x + v_star for x in sys.theta_star),
        field,
    )


def mutate_theta_star(sys: TridiagonalSystem, k: int, value) -> TridiagonalSystem:
    """Replace theta*_k; used to break theorem conditions deliberately."""
    if not 0 <= k <= sys.d:
        raise IndexOutOfRange(f"index {k} out of 0..{sys.d}")
    ts = list(sys.theta_star)
    ts[k] = sys.field.scalar(value)
    return TridiagonalSystem(sys.d, sys.a, sys.b, sys.c, tuple(ts), sys.field)


def _multiplicity_free(sys: TridiagonalSystem) -> bool:
    """True when A, over GF(p), splits into d+1 distinct eigenvalues.

    The characteristic polynomial f is squarefree by construction, so it
    splits exactly when x^p = x mod f; this avoids a root search.
    """
    p = sys.field.modulus
    return linear_powmod(0, p, char_form(sys), p) == [0, 1]


def _distinct_residues(rng: random.Random, p: int, count: int) -> list[int]:
    out: list[int] = []
    while len(out) < count:
        t = rng.randrange(p)
        if t not in out:
            out.append(t)
    return out


def _tridiagonal_from_charpoly(target: list[int], rng: random.Random, p: int):
    """Recover diagonal a_i and products w_i = b_{i-1} c_i with char poly = target.

    Runs the Euclidean three-term-recurrence algorithm downward from the
    monic residue list target and a random monic companion of one degree
    less.  Returns (a, w) as residues, or None on breakdown (degenerate
    remainder), which is rare.
    """
    hi, lo = target, [rng.randrange(p) for _ in range(len(target) - 2)] + [1]
    a_rev = []
    w_rev = []
    while len(lo) > 1:
        q, r = divmod_residues(hi, lo, p)
        a_rev.append(-q[0] % p)
        if len(r) != len(lo) - 1:
            return None
        w_rev.append(-r[-1] % p)
        hi, lo = lo, monic(r, p)
    a_rev.append(-hi[0] % p)  # hi = x - a_0 once lo is the constant 1
    return a_rev[::-1], w_rev[::-1]


def gen_random(d: int, field: FieldSpec, seed: int) -> TridiagonalSystem:
    """A random valid system over GF(p) with distinct theta* and multiplicity-free A.

    Samples d+1 distinct eigenvalues first and then recovers matching
    tridiagonal data, so multiplicity-freeness holds by construction rather
    than by rejection.  Deterministic for a given seed; raises
    GenerationFailed when _MAX_RETRIES draws all break down.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if not field.is_prime_field:
        raise ValueError("random generation targets prime fields")
    p = field.modulus
    if p <= 2 * (d + 1):
        raise GenerationFailed(f"p = {p} too small for {d + 1} distinct eigenvalues")
    rng = random.Random(seed)
    for _ in range(_MAX_RETRIES):
        target = [1]
        for t in _distinct_residues(rng, p, d + 1):  # target *= x - t
            target = [(x - t * y) % p for x, y in zip([0] + target, target + [0])]
        recovered = _tridiagonal_from_charpoly(target, rng, p)
        if recovered is None:
            continue
        a, w = recovered
        b = [rng.randrange(1, p) for _ in range(d)]
        if 0 in w:
            continue
        c = [x * pow(y, -1, p) for x, y in zip(w, b)]
        sys = make_system(field, a, b, c, _distinct_residues(rng, p, d + 1))
        violations = validate_system(sys)
        if violations:
            raise InternalInconsistency(f"construction must yield a valid system: {'; '.join(violations)}")
        if not _multiplicity_free(sys):
            raise InternalInconsistency("construction must yield a split spectrum")
        return sys
    raise GenerationFailed(f"no multiplicity-free instance in {_MAX_RETRIES} tries")


def serialize_instance(inst: Instance) -> str:
    """Render an instance in the line-oriented text format."""
    sys = inst.system
    lines = []
    if sys.field.is_prime_field:
        lines.append(f"field prime {sys.field.modulus}")
    else:
        lines.append("field rationals")
    lines.append(f"d {sys.d}")
    if inst.label:
        lines.append(f"label {inst.label}")
    lines.append("a " + " ".join(str(x) for x in sys.a))
    lines.append("b " + " ".join(str(x) for x in sys.b))
    lines.append("c " + " ".join(str(x) for x in sys.c))
    lines.append("theta_star " + " ".join(str(x) for x in sys.theta_star))
    if inst.theta is not None:
        lines.append("theta " + " ".join(str(x) for x in inst.theta))
    return "\n".join(lines) + "\n"


def _strict_int(text: str, lineno: int) -> int:
    value = int(text)
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ParseError(f"line {lineno}: expected an ASCII integer, got {text!r}")
    return value


def parse_instance(text: str) -> Instance:
    """Parse the text format; raises ParseError with line diagnostics.

    Every key appears at most once; scalars are ASCII [+-]N or [+-]N/M.
    """
    field: Optional[FieldSpec] = None
    d: Optional[int] = None
    label = ""
    vectors: dict[str, tuple[int, list[str]]] = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            if key == "field":
                parts = rest.split()
                if parts == ["rationals"]:
                    field = RATIONALS
                elif len(parts) == 2 and parts[0] == "prime":
                    try:
                        field = GF(_strict_int(parts[1], lineno))
                    except ValueError as exc:
                        raise ParseError(f"line {lineno}: {exc}") from exc
                else:
                    raise ParseError(f"line {lineno}: bad field descriptor {rest!r}")
            elif key == "d":
                d = _strict_int(rest, lineno)
            elif key == "label":
                label = rest
            elif key in ("a", "b", "c", "theta_star", "theta"):
                vectors[key] = (lineno, rest.split())
            else:
                raise ParseError(f"line {lineno}: unknown key {key!r}")
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if field is None:
        raise ParseError("missing 'field' line")
    if d is None:
        raise ParseError("missing 'd' line")
    for key, want in (("a", d + 1), ("b", d), ("c", d), ("theta_star", d + 1)):
        if key not in vectors:
            raise ParseError(f"missing '{key}' line")
        if len(vectors[key][1]) != want:
            raise ParseError(f"field '{key}' has {len(vectors[key][1])} entries, expected {want}")

    def scalars(key: str) -> tuple[Scalar, ...]:
        lineno, tokens = vectors[key]
        try:
            return tuple(field.parse_scalar(x) for x in tokens)
        except NonDecimalScalar as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc

    try:
        sys = TridiagonalSystem(d, scalars("a"), scalars("b"), scalars("c"),
                                scalars("theta_star"), field)
    except ParseError as exc:
        raise ParseError(f"bad scalar value: {exc}") from exc
    theta = None
    if "theta" in vectors:
        if len(vectors["theta"][1]) != d + 1:
            raise ParseError(f"field 'theta' has {len(vectors['theta'][1])} entries, expected {d + 1}")
        theta = scalars("theta")
    violations = validate_system(sys)
    if violations:
        raise ParseError("invalid system: " + "; ".join(violations))
    return Instance(sys, theta, label)
