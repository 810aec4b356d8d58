"""Exact coefficient arithmetic for the loop parameter.

Coefficients throughout the package are plain Python ``int`` (arbitrary
precision), a residue mod p held as an ``int``, or ``Poly``, a univariate
polynomial over Z in the loop parameter delta.  Every generic coefficient
the package computes lies in Z[delta]; a quotient is only ever formed
after specializing delta, as an integer over an explicit integer
denominator.

A polynomial is a dict mapping exponent -> coefficient with no stored zero
coefficients, so the zero polynomial is the empty dict and equality is
structural.
"""

from __future__ import annotations


class Poly:
    """Univariate polynomial over Z in the loop parameter delta, built from
    None (zero), an int or a dict exponent -> int."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        elif isinstance(coeffs, int):
            coeffs = {0: coeffs} if coeffs != 0 else {}
        self.coeffs = {e: c for e, c in coeffs.items() if c != 0}

    @classmethod
    def zero(cls) -> "Poly":
        return cls({})

    @classmethod
    def one(cls) -> "Poly":
        return cls({0: 1})

    @classmethod
    def const(cls, c: int) -> "Poly":
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

    def is_constant(self) -> bool:
        return self.degree <= 0

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.coeffs.get(0, 0)

    def evaluate(self, x: int) -> int:
        """Value at delta = x, computed exactly by Horner's rule."""
        acc = 0
        for e in range(self.degree, -1, -1):
            acc = acc * x + self.coeffs.get(e, 0)
        return acc

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

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of Poly")
        out = Poly.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
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

    def to_json(self) -> dict:
        """Serialize as exponent -> decimal string."""
        return {str(e): str(c) for e, c in sorted(self.coeffs.items())}


def _as_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, int):
        return Poly.const(x)
    return NotImplemented
