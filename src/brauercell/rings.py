"""Exact coefficient arithmetic for the loop parameter.

Scalars throughout the package are plain Python ``int`` (arbitrary precision),
``fractions.Fraction``, ``Poly`` (a univariate polynomial in the loop
parameter delta, with integer or rational coefficients), or ``RatFunc``
(a quotient of two such polynomials, kept in canonical reduced form).

A polynomial is a dict mapping exponent -> coefficient with no stored zero
coefficients, so the zero polynomial is the empty dict and equality is
structural.  A rational function stores a coprime numerator/denominator pair
with monic denominator, so equality is structural there as well.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


class Poly:
    """Univariate polynomial in the loop parameter delta."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        elif isinstance(coeffs, (int, Fraction)):
            coeffs = {0: coeffs} if coeffs != 0 else {}
        self.coeffs = {e: c for e, c in coeffs.items() if c != 0}

    @classmethod
    def zero(cls) -> "Poly":
        return cls({})

    @classmethod
    def one(cls) -> "Poly":
        return cls({0: 1})

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls({0: c})

    @classmethod
    def delta(cls) -> "Poly":
        return cls({1: 1})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return max(self.coeffs) if self.coeffs else -1

    @property
    def lead(self) -> Scalar:
        return self.coeffs[self.degree]

    def is_constant(self) -> bool:
        return self.degree <= 0

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.coeffs.get(0, 0)

    def evaluate(self, x: Scalar) -> Scalar:
        """Value at delta = x, computed exactly by Horner's rule."""
        acc: Scalar = 0
        for e in range(self.degree, -1, -1):
            acc = acc * x + self.coeffs.get(e, 0)
        return acc

    def map_coeffs(self, f) -> "Poly":
        return Poly({e: f(c) for e, c in self.coeffs.items()})

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, RatFunc):
            return NotImplemented
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of Poly by zero scalar")
            inv = Fraction(1, 1) / other
            return Poly({e: c * inv for e, c in self.coeffs.items()})
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of Poly")
        out = Poly.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.coeffs.get(0, 0) == other
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.coeffs.get(0, 0))
        return hash(tuple(sorted(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*d" if c != 1 else "d")
            else:
                parts.append(f"{c}*d^{e}" if c != 1 else f"d^{e}")
        return " + ".join(parts).replace("+ -", "- ")

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Polynomial long division; exact over the rationals."""
        if other.is_zero:
            raise ZeroDivisionError("Poly division by zero")
        rem = dict(self.coeffs)
        quo: dict = {}
        dlead = other.degree
        clead = other.lead
        while rem:
            e = max(rem)
            if e < dlead:
                break
            q = Fraction(rem[e]) / Fraction(clead)
            if q.denominator == 1:
                q = int(q)
            quo[e - dlead] = q
            for e2, c2 in other.coeffs.items():
                tgt = e - dlead + e2
                v = rem.get(tgt, 0) - q * c2
                if v == 0:
                    rem.pop(tgt, None)
                else:
                    rem[tgt] = v
        return Poly(quo), Poly(rem)

    def to_json(self) -> dict:
        """Serialize as exponent -> decimal string."""
        return {str(e): str(c) for e, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, data: dict) -> "Poly":
        out = {}
        for e, c in data.items():
            out[int(e)] = Fraction(c) if "/" in c else int(c)
        return cls(out)


def _as_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    return NotImplemented


def poly_gcd_q(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals, by the Euclidean algorithm."""
    a = a.map_coeffs(Fraction)
    b = b.map_coeffs(Fraction)
    while not b.is_zero:
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero:
        return a
    return a / a.lead


class RatFunc:
    """Element of the rational function field Q(delta).

    Canonical form: denominator monic, numerator and denominator coprime,
    so ``==`` is structural.  ``evaluate`` returns None when the point is a
    pole ("not evaluable" is a value, not an error).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False):
        num = _as_poly(num)
        den = Poly.one() if den is None else _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("RatFunc with zero denominator")
        if _canonical:
            self.num, self.den = num, den
            return
        num = num.map_coeffs(Fraction)
        den = den.map_coeffs(Fraction)
        if num.is_zero:
            self.num, self.den = Poly.zero(), Poly.one()
            return
        g = poly_gcd_q(num, den)
        if g.degree > 0:
            num, _ = num.divmod(g)
            den, _ = den.divmod(g)
        lead = den.lead
        self.num = num / lead
        self.den = den / lead

    @classmethod
    def const(cls, c: Scalar) -> "RatFunc":
        return cls(Poly.const(Fraction(c)), Poly.one(), _canonical=True)

    @classmethod
    def delta(cls) -> "RatFunc":
        return cls(Poly.delta())

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls.const(0)

    @classmethod
    def one(cls) -> "RatFunc":
        return cls.const(1)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den == Poly.one()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self.num.coeffs.get(0, 0))

    def evaluate(self, x: Scalar):
        """Value at delta = x, or None if the denominator vanishes there."""
        d = self.den.evaluate(x)
        if d == 0:
            return None
        return Fraction(self.num.evaluate(x)) / Fraction(d)

    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero RatFunc")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.num.coeffs.get(0, 0) == other
        if isinstance(other, Poly):
            other = RatFunc(other)
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash((tuple(sorted(self.num.coeffs.items())),
                     tuple(sorted(self.den.coeffs.items()))))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        if self.den == Poly.one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "RatFunc":
        return cls(Poly.from_json(data["num"]), Poly.from_json(data["den"]))


def _as_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, Poly):
        return RatFunc(x)
    if isinstance(x, (int, Fraction)):
        return RatFunc.const(x)
    return NotImplemented


def as_ratfunc(x) -> RatFunc:
    """Coerce an int/Fraction/Poly/RatFunc coefficient into Q(delta)."""
    out = _as_ratfunc(x)
    if out is NotImplemented:
        raise TypeError(f"cannot coerce {x!r} to RatFunc")
    return out

