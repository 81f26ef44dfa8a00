"""Exact scalar, polynomial, and dense-matrix arithmetic over a pluggable field.

Two ground fields are supported: arbitrary-precision rationals (backed by
``fractions.Fraction``) and prime fields GF(p).  Every operation is exact;
there are no epsilon tolerances anywhere in this package, and floating-point
input is rejected at parse time.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional, Sequence, Union

from .errors import DivisionByZero, FieldMismatch, NonDecimalScalar, ParseError, ShapeMismatch
from .modular import is_prime, prime_field_roots, rational_roots

__all__ = [
    "FieldSpec",
    "RATIONALS",
    "GF",
    "Scalar",
    "Poly",
    "Matrix",
    "rank",
    "solve_rows",
    "solve_affine",
    "char_poly_oracle",
    "poly_roots_in_field",
]

_DECIMAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


@dataclass(frozen=True)
class FieldSpec:
    """Descriptor of the ground field: the rationals, or GF(p) for prime p."""

    kind: str  # "rationals" | "prime"
    modulus: Optional[int] = None
    # derived from kind once, so Scalar arithmetic reads an attribute; not part of == or hash
    is_prime_field: bool = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "rationals":
            if self.modulus is not None:
                raise ValueError("rationals carry no modulus")
        elif self.kind == "prime":
            if self.modulus is None or not is_prime(self.modulus):
                raise ValueError(f"modulus {self.modulus!r} is not prime")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")
        object.__setattr__(self, "is_prime_field", self.kind == "prime")

    def reduce(self, value: Union[int, Fraction]) -> Union[int, Fraction]:
        """The canonical value of a raw sum or product: the residue mod p over GF(p), itself over Q."""
        return value % self.modulus if self.is_prime_field else value

    def cleared(self, values: Sequence[Union[int, Fraction]]) -> tuple[Sequence[int], int]:
        """Integers and one positive denominator with values[i] = ints[i]/den.

        Over Q the denominator is the least common one; over GF(p) the
        residues are already integers, so they come back as given with
        den = 1.  A zero test, or a ratio of two forms, is unchanged when a
        vector is scaled by den, so the forms can run on plain integers.
        """
        if self.is_prime_field:
            return values, 1
        den = lcm(*(v.denominator for v in values))
        return [v.numerator * (den // v.denominator) for v in values], den

    def quotient(self, num: int, den: int) -> "Scalar":
        """The field element num/den of two integers, for den nonzero in the field."""
        if self.is_prime_field:
            p = self.modulus
            if den % p == 0:
                raise DivisionByZero("quotient by zero")
            return Scalar(self, num * pow(den, -1, p) % p)
        if den == 0:
            raise DivisionByZero("quotient by zero")
        return Scalar(self, Fraction(num, den))

    def scalar(self, value: Union[int, Fraction, "Scalar"]) -> "Scalar":
        """Embed an integer or Fraction into this field."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"{value} does not belong to {self}")
            return value
        if self.is_prime_field:
            if isinstance(value, Fraction):
                if value.denominator == 1:
                    value = value.numerator
                else:
                    num = value.numerator % self.modulus
                    den = value.denominator % self.modulus
                    if den == 0:
                        raise DivisionByZero("denominator vanishes mod p")
                    return Scalar(self, num * pow(den, -1, self.modulus) % self.modulus)
            return Scalar(self, value % self.modulus)
        return Scalar(self, Fraction(value))

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def parse_scalar(self, text: str) -> "Scalar":
        """Parse an ASCII decimal "[+-]N" or "[+-]N/M" string.  Floats are rejected."""
        text = text.strip()
        if not text:
            raise ParseError("empty scalar")
        if any(ch in text for ch in ".eE"):
            raise ParseError(f"floating-point scalars are rejected: {text!r}")
        try:
            if "/" in text:
                num_s, den_s = text.split("/")
                num, den = int(num_s), int(den_s)
            else:
                num, den = int(text), 1
        except ValueError as exc:
            raise ParseError(f"bad scalar {text!r}: {exc}") from exc
        if den == 0:
            raise ParseError(f"zero denominator in {text!r}")
        if self.is_prime_field and den % self.modulus == 0:
            raise ParseError(f"denominator vanishes mod {self.modulus}: {text!r}")
        if not _DECIMAL.fullmatch(text):
            # int() also takes underscores and non-ASCII digits
            raise NonDecimalScalar(f"bad scalar {text!r}: expected ASCII [+-]N or [+-]N/M")
        return self.quotient(num, den)

    def __str__(self):
        return "Q" if self.kind == "rationals" else f"GF({self.modulus})"


RATIONALS = FieldSpec("rationals")


def GF(p: int) -> FieldSpec:
    return FieldSpec("prime", p)


class Scalar:
    """An exact field element: a reduced Fraction, or a residue in [0, p)."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def _check(self, other: "Scalar") -> "Scalar":
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        # every scalar of an instance shares one FieldSpec, so identity settles most checks
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if self.field.is_prime_field:
            return Scalar(self.field, (self.value + other.value) % self.field.modulus)
        return Scalar(self.field, self.value + other.value)

    def __sub__(self, other):
        other = self._check(other)
        if self.field.is_prime_field:
            return Scalar(self.field, (self.value - other.value) % self.field.modulus)
        return Scalar(self.field, self.value - other.value)

    def __mul__(self, other):
        other = self._check(other)
        if self.field.is_prime_field:
            return Scalar(self.field, self.value * other.value % self.field.modulus)
        return Scalar(self.field, self.value * other.value)

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __neg__(self):
        if self.field.is_prime_field:
            return Scalar(self.field, -self.value % self.field.modulus)
        return Scalar(self.field, -self.value)

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.field.is_prime_field:
            return Scalar(self.field, pow(self.value, -1, self.field.modulus))
        return Scalar(self.field, 1 / self.value)

    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return ((self.field is other.field or self.field == other.field)
                and self.value == other.value)

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        if self.field.is_prime_field:
            return str(self.value)
        v = self.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

    def __repr__(self):
        return f"Scalar({self.field}, {self})"

    def sort_key(self):
        """Canonical ordering key: (numerator, denominator) over Q, residue over GF(p)."""
        if self.field.is_prime_field:
            return (self.value,)
        return (self.value.numerator, self.value.denominator)


class Poly:
    """A dense univariate polynomial, coefficients low degree first, trimmed."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs: Sequence[Scalar]):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def constant(cls, field: FieldSpec, value) -> "Poly":
        return cls(field, [field.scalar(value)])

    @classmethod
    def x(cls, field: FieldSpec) -> "Poly":
        return cls(field, [field.zero(), field.one()])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.field.zero()

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, [self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, [self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self) -> "Poly":
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, Scalar):
            return Poly(self.field, [c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly(self.field, [])
        out = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __call__(self, point: Scalar) -> Scalar:
        """Evaluate by Horner's rule."""
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{k}")
        return " + ".join(terms)

    def __repr__(self):
        return f"Poly({self.field}, {self})"


class Matrix:
    """A dense exact matrix, row-major storage."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries: Sequence[Scalar]):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ShapeMismatch(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def diagonal(cls, field: FieldSpec, diag: Sequence[Scalar]) -> "Matrix":
        n = len(diag)
        zero = field.zero()
        return cls(field, n, n, [diag[i] if i == j else zero for i in range(n) for j in range(n)])

    def at(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[Scalar]:
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def _check(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise TypeError("expected Matrix")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.rows:
            raise ShapeMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # integer forms: each row and column cleared once, one quotient per entry
        field = self.field
        left = [field.cleared([e.value for e in self.entries[i * self.cols:(i + 1) * self.cols]])
                for i in range(self.rows)]
        right = [field.cleared([e.value for e in other.entries[j::other.cols]]) for j in range(other.cols)]
        out = [field.quotient(sum(map(mul, row, col)), row_den * col_den)
               for row, row_den in left for col, col_den in right]
        return Matrix(field, self.rows, other.cols, out)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def __str__(self):
        return "\n".join("  ".join(str(e) for e in self.row(i)) for i in range(self.rows))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field})"


def _echelon(rows: Sequence[list[int]], field: FieldSpec) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination on integer rows: (pivot rows, pivot columns).

    Rows may be scaled freely, so callers clear each row of denominators
    and the elimination runs on integers.  A pivot is the first entry of
    its column, from the current row down, that is nonzero in the field.
    Each step replaces every other row by
    (pivot * row - f * pivot_row) / previous pivot, f the row's entry in the
    pivot column.  The division is exact (Bareiss: every entry is a minor of
    the cleared input), so the integers stay polynomial in size.  Row r of
    the result is zero in every pivot column but pivots[r]; divided by that
    entry it is row r of the reduced echelon form.
    """
    rows = list(rows)
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((k for k in range(r, nrows) if field.reduce(rows[k][c])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[c]
        for k in range(nrows):
            if k != r:
                f = rows[k][c]
                rows[k] = [(p * x - f * y) // prev for x, y in zip(rows[k], top)]
        prev = p
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def rank(m: Matrix) -> int:
    """Rank by exact fraction-free Gauss-Jordan elimination."""
    field = m.field
    _, pivots = _echelon([field.cleared([e.value for e in m.row(i)])[0] for i in range(m.rows)], field)
    return len(pivots)


def solve_rows(field: FieldSpec, rows: Sequence[list[int]], n: int):
    """The solution set of M x = b from integer rows [M | b] with n unknowns.

    Each row may be any nonzero integer multiple of its equation.
    Returns None when the system is inconsistent, otherwise a pair
    (particular solution, nullspace basis) where both are lists of Scalar
    column vectors.  An empty nullspace basis means the solution is unique.
    """
    zero, one = field.zero(), field.one()
    if not rows:
        # no constraints: everything solves
        basis = [[one if i == j else zero for i in range(n)] for j in range(n)]
        return [zero] * n, basis
    rows, pivots = _echelon(rows, field)
    if n in pivots:
        return None  # pivot in the augmented column: inconsistent
    particular = [zero] * n
    for row, c in zip(rows, pivots):
        particular[c] = field.quotient(row[n], row[c])
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free_cols:
        vec = [zero] * n
        vec[fc] = one
        for row, c in zip(rows, pivots):
            vec[c] = field.quotient(-row[fc], row[c])
        basis.append(vec)
    return particular, basis


def solve_affine(m: Matrix, b: Sequence[Scalar]):
    """The solution set of M x = b, as solve_rows returns it, each row cleared once."""
    field = m.field
    b = [field.scalar(x) for x in b]
    if len(b) != m.rows:
        raise ShapeMismatch("right-hand side length mismatch")
    return solve_rows(field, [field.cleared([e.value for e in m.row(i)] + [b[i].value])[0]
                              for i in range(m.rows)], m.cols)


def char_poly_oracle(m: Matrix) -> Poly:
    """Monic characteristic polynomial det(xI - M) by the Berkowitz method.

    Division-free, so it works over any ground field (including small prime
    fields), and it is entirely independent of any tridiagonal recursion.
    No production path calls it: it is the oracle the tests compare the
    recurrence polynomial against.
    """
    if m.rows != m.cols:
        raise ShapeMismatch("characteristic polynomial of a non-square matrix")
    field = m.field
    one = field.one()
    rows = [m.row(i) for i in range(m.rows)]

    def berk(a: list[list[Scalar]]) -> list[Scalar]:
        # coefficients of det(xI - a), highest degree first
        n = len(a)
        if n == 0:
            return [one]
        pivot = a[0][0]
        r_row = a[0][1:]
        c_col = [a[i][0] for i in range(1, n)]
        sub = [row[1:] for row in a[1:]]
        p_sub = berk(sub)  # length n
        # Toeplitz column: 1, -pivot, -(R C), -(R B C), -(R B^2 C), ...
        col = [one, -pivot]
        vec = c_col
        for _ in range(n - 1):
            dot = field.zero()
            for x, y in zip(r_row, vec):
                dot = dot + x * y
            col.append(-dot)
            vec = [sum((row[j] * vec[j] for j in range(n - 1)), field.zero())
                   for row in sub]
        out = []
        for i in range(n + 1):
            acc = field.zero()
            for j in range(len(p_sub)):
                k = i - j
                if 0 <= k < len(col):
                    acc = acc + col[k] * p_sub[j]
            out.append(acc)
        return out

    coeffs_hi_first = berk(rows)
    return Poly(field, list(reversed(coeffs_hi_first)))


def poly_roots_in_field(coeffs: Sequence[Union[int, Fraction]],
                        field: FieldSpec) -> list[tuple[Scalar, int]]:
    """All roots in the ground field, with multiplicities, of the polynomial with these coefficients.

    coeffs, low degree first, are ints or Fractions over Q and ints over
    GF(q).  Over GF(q): evaluation at every residue when q is at most the
    degree times the bit length of q, else gcd with x^q - x and equal-degree
    splitting.  Over Q: roots modulo a prime, Hensel-lifted past a root bound
    and rebuilt by rational reconstruction.  Each root's multiplicity comes
    from exact deflation over GF(q), from exact integer division by m x - n
    for a rational root n/m, and roots are returned in canonical order.
    """
    coeffs = [field.reduce(c) for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        raise ValueError("the zero polynomial has no well-defined root set")
    if field.is_prime_field:
        found = prime_field_roots(coeffs, field.modulus)
    else:
        found = rational_roots(coeffs)
    roots = [(Scalar(field, r), mult) for r, mult in found]
    roots.sort(key=lambda rm: rm[0].sort_key())
    return roots
