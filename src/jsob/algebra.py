"""Exact rational scalars, dense polynomials, and weighted integrals on [-1, 1].

The scalar field is ``fractions.Fraction``; every operation in this module is
exact.  A polynomial is stored only in its integer form, integer coefficients
over one common denominator; products, sums, scalings and derivatives are
integer loops, a product being a plain convolution.
The central integral is

    integrate_weighted(p, m) = integral of p(x) * (1 - x^2)^m over [-1, 1]

for integer m >= -1, a dot product of p's integer form with the moments of
(1 - x^2)^m, built per call by ``jacobi_moments`` as every Jacobi weight's
are.  The m = -1 case is only defined when (1 - x^2) divides p, which is
exactly membership of the polynomial in the weighted L^2 space with weight
(1 - x^2)^(-1).

Square roots of rationals enter through normalization constants; they are kept
closed under multiplication by the ``Surd`` type (a rational coefficient times
the square root of a rational, stored as its sign and its rational square, so
no radicand is ever factored) and by ``ScaledPolynomial`` (a polynomial times
the square root of a positive rational).

All values are immutable and all functions are pure.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import comb, gcd, isqrt, lcm
from operator import mul

__all__ = [
    "NotDivisible",
    "Polynomial",
    "ScaledPolynomial",
    "Surd",
    "ONE_MINUS_X2",
    "as_fraction",
    "clear_poles",
    "integrate_weighted",
    "jacobi_moments",
    "weighted_moments",
]

RationalLike = Fraction | int | str


class NotDivisible(ArithmeticError):
    """Requested division by a weight factor that does not divide the polynomial."""


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings, and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


class Frozen:
    """Base of the immutable value types and records, whose own class
    annotations are their fields (``_fields``, in order).  ``__init__(*values)``
    sets each once, through ``object.__setattr__``; any later assignment raises
    AttributeError.  Equality and hashing compare the fields, between instances
    of one class; ``_asdict`` maps each field name to its value."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes values for {self._fields}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._key()))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


def _int_poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two integer polynomials (plain convolution).

    The outer loop runs over the shorter operand and skips its zero
    coefficients: nearly every product here has a factor of at most three
    coefficients, a recurrence step or the weight 1 - x^2.
    """
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, v in enumerate(b, i):
                out[j] += c * v
    return out


class Polynomial(Frozen):
    """Dense polynomial over the rationals in the monomial basis.

    The one stored field is ``int_form = (ints, den)``: the coefficient of x^i
    is ints[i] / den, in lowest terms (den > 0 and gcd(den, *ints) = 1) and
    without trailing zeros, so the zero polynomial is ((), 1).  All
    arithmetic runs on it; ``coeffs``, the same coefficients as Fractions, is
    built the first time it is read.
    """

    int_form: tuple[tuple[int, ...], int]

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [as_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._store([c.numerator * (den // c.denominator) for c in cs], den)

    def _store(self, ints: list[int], den: int) -> None:
        while ints and ints[-1] == 0:
            ints.pop()
        g = gcd(den, *ints)
        if g != 1:
            ints = [c // g for c in ints]
            den //= g
        object.__setattr__(self, "int_form", (tuple(ints), den))

    @classmethod
    def from_int_form(cls, ints: Sequence[int], den: int) -> "Polynomial":
        """The polynomial sum_i (ints[i] / den) x^i, for den > 0."""
        poly = object.__new__(cls)
        poly._store(list(ints), den)
        return poly

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """``coeffs[i]`` is the coefficient of x^i; the zero polynomial has ()."""
        ints, den = self.int_form
        return tuple(Fraction(c, den) for c in ints)

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @property
    def is_zero(self) -> bool:
        return not self.int_form[0]

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.int_form[0]) - 1

    @property
    def leading(self) -> Fraction:
        return self.coeff(self.degree)

    def coeff(self, i: int) -> Fraction:
        ints, den = self.int_form
        return Fraction(ints[i], den) if 0 <= i < len(ints) else Fraction(0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        (a, da), (b, db) = self.int_form, other.int_form
        if len(a) < len(b):
            (a, da), (b, db) = (b, db), (a, da)
        den = lcm(da, db)
        out = [c * (den // da) for c in a]
        for i, c in enumerate(b):
            out[i] += c * (den // db)
        return Polynomial.from_int_form(out, den)

    def __neg__(self) -> "Polynomial":
        return -1 * self

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        (a, da) = self.int_form
        if isinstance(other, Polynomial):
            b, db = other.int_form
            return Polynomial.from_int_form(_int_poly_mul(a, b), da * db)
        c = as_fraction(other)
        return Polynomial.from_int_form([c.numerator * v for v in a], da * c.denominator)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.one()
        for _ in range(n):
            result = result * self
        return result

    def derivative(self, order: int = 1) -> "Polynomial":
        ints, den = self.int_form
        for _ in range(order):
            ints = [i * c for i, c in enumerate(ints)][1:]
        return Polynomial.from_int_form(ints, den)

    def __call__(self, x):
        """Evaluate by Horner's rule; exact for Fraction x, float for float x."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            elif i == 1:
                term = "x" if c == 1 else ("-x" if c == -1 else f"{c}*x")
            else:
                term = f"x^{i}" if c == 1 else (f"-x^{i}" if c == -1 else f"{c}*x^{i}")
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out


ONE_MINUS_X2 = Polynomial((1, 0, -1))


def _divide_out(p: Polynomial, at: int) -> Polynomial:
    """p / (1 - at * x) for at = 1 or -1 by synthetic division, whose last carry
    is the remainder p(at); NotDivisible when that is not zero."""
    ints, den = p.int_form
    carries = list(accumulate(reversed(ints), lambda carry, c: carry * at + c))
    if carries and carries.pop():
        raise NotDivisible(f"polynomial does not vanish at x = {at}")
    return Polynomial.from_int_form([-at * c for c in reversed(carries)], den)


def jacobi_moments(a: RationalLike, b: RationalLike, count: int) -> tuple[tuple[int, ...], int]:
    """The first ``count`` moments int x^i (1 - x)^a (1 + x)^b over [-1, 1],
    a, b > -1, as (ints, den) in lowest terms: absolute for integer a, b, from
    h_0 = 2^(a+b+1) a! b! / (a+b+1)!, else in units of h_0.  The recurrence
    (i + a + b + 2) mu_{i+1} = (b - a) mu_i + i mu_{i-1} runs in integers:
    mu_i = N_i / E_i, E_{i+1} = E_i (q i + s), N_{i+1} = d N_i + q i (q (i-1) + s) N_{i-1}
    with q = lcm(den a, den b), s = q (a + b + 2), d = q (b - a)."""
    a, b = as_fraction(a), as_fraction(b)
    if not (a > -1 and b > -1):
        raise ValueError("weight exponents must exceed -1")
    q = lcm(a.denominator, b.denominator)
    s, d = int(q * (a + b + 2)), int(q * (b - a))
    num, den = (2 ** (s - 1), (s - 1) * comb(s - 2, int(a))) if q == 1 else (1, 1)
    ints = [num, d * num][:count]
    for i in range(1, count - 1):
        ints.append(d * ints[i] + q * i * (q * (i - 1) + s) * ints[i - 1])
    # Over E_{count-1}: N_i times the suffix product of the factors q j + s, j >= i.
    tails = list(accumulate((q * i + s for i in reversed(range(count - 1))), mul, initial=1))
    ints, den = [c * t for c, t in zip(ints, reversed(tails))], den * tails[-1]
    g = gcd(den, *ints)
    return tuple(c // g for c in ints), den // g


def weighted_moments(p: Polynomial, moments: tuple, count: int) -> tuple[list[int], int]:
    """Integrals of p(x) x^i w(x) over [-1, 1] for i < count as (ints, den),
    the i-th being ints[i] / den: integer dot products of p's integer form with
    windows of ``moments``, the table of w, of at least deg p + count entries."""
    ints, den = p.int_form
    mu, mu_den = moments
    size = len(ints)
    return [sum(map(mul, ints, mu[i : i + size])) for i in range(count)], den * mu_den


def integrate_weighted(p: Polynomial, m: int) -> Fraction:
    """Exact value of the integral of p(x) (1 - x^2)^m over [-1, 1], m >= -1;
    for m = -1, p must vanish at both endpoints (NotDivisible otherwise)."""
    q, a, b = clear_poles(p, m, m)
    (value,), den = weighted_moments(q, jacobi_moments(a, b, len(q.int_form[0])), 1)
    return Fraction(value, den)


def clear_poles(p: Polynomial, a: int, b: int) -> tuple[Polynomial, int, int]:
    """(q, a', b') with q (1 - x)^a' (1 + x)^b' = p (1 - x)^a (1 + x)^b, integers
    a, b >= -1: an exponent -1 divides its linear factor out of p and becomes 0
    (NotDivisible when p does not vanish at that endpoint)."""
    if a < -1 or b < -1:
        raise ValueError("weight exponents must be >= -1")
    if a == -1:
        p, a = _divide_out(p, 1), 0
    if b == -1:
        p, b = _divide_out(p, -1), 0
    return p, a, b


class Surd(Frozen):
    """A scalar coeff * sqrt(radicand) with coeff, radicand rational, radicand >= 0.

    Stored as ``sign`` (-1, 0 or 1) and ``square = coeff^2 * radicand``, a
    Fraction; zero is (0, 0).  The pair is canonical without factoring
    anything, so the stored fields give equality and hashing.  ``coeff`` and
    ``radicand`` are a view built on first read: (value, 1) for a rational
    value, else (sign, square).
    """

    sign: int
    square: Fraction

    def __init__(self, coeff: RationalLike, radicand: RationalLike):
        self.__post_init__(coeff, radicand)

    def __post_init__(self, coeff: RationalLike, radicand: RationalLike):
        c, r = as_fraction(coeff), as_fraction(radicand)
        if r < 0:
            raise ValueError("radicand must be nonnegative")
        square = c * c * r
        Frozen.__init__(self, ((c > 0) - (c < 0)) if square else 0, square)

    @classmethod
    def from_rational(cls, value: RationalLike) -> "Surd":
        return cls(value, 1)

    @classmethod
    def zero(cls) -> "Surd":
        return cls(0, 0)

    @cached_property
    def _view(self) -> tuple[Fraction, Fraction]:
        num, den = self.square.numerator, self.square.denominator
        root_num, root_den = isqrt(num), isqrt(den)
        if root_num * root_num == num and root_den * root_den == den:
            return Fraction(self.sign * root_num, root_den), Fraction(1)
        return Fraction(self.sign), self.square

    @property
    def coeff(self) -> Fraction:
        return self._view[0]

    @property
    def radicand(self) -> Fraction:
        return self._view[1]

    @property
    def is_rational(self) -> bool:
        return self.radicand == 1

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.coeff

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.coeff)
        return f"{'-' if self.sign < 0 else ''}sqrt({self.square})"


class ScaledPolynomial(Frozen):
    """The function sqrt(scale_sq) * poly(x) with scale_sq a positive rational.

    Houses orthonormal families whose normalization constants are square roots
    of rationals.  The zero function is pinned to scale_sq = 1 so equality
    tests never meet 0 * sqrt(0).
    """

    scale_sq: Fraction
    poly: Polynomial

    def __init__(self, scale_sq: RationalLike, poly: Polynomial):
        s = as_fraction(scale_sq)
        if poly.is_zero:
            s = Fraction(1)
        elif s <= 0:
            raise ValueError("scale_sq must be positive")
        super().__init__(s, poly)

    @classmethod
    def of(cls, poly: Polynomial) -> "ScaledPolynomial":
        return cls(Fraction(1), poly)

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def derivative(self, order: int = 1) -> "ScaledPolynomial":
        return ScaledPolynomial(self.scale_sq, self.poly.derivative(order))

    def same_function(self, other: "ScaledPolynomial") -> bool:
        """Exact equality of the represented functions.

        Compares s1 * (q1 * q1) with s2 * (q2 * q2) coefficientwise, plus the
        sign of the leading coefficients, which determines the square roots.
        """
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        if (self.poly.leading > 0) != (other.poly.leading > 0):
            return False
        return self.scale_sq * (self.poly * self.poly) == other.scale_sq * (
            other.poly * other.poly
        )

    def __str__(self) -> str:
        if self.scale_sq == 1:
            return str(self.poly)
        return f"sqrt({self.scale_sq}) * ({self.poly})"
