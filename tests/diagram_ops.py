"""Diagram and algebra-element helpers that only the tests read: the length
(crossing number), the permutation sigma_D and the sign of a Brauer
diagram, which the sign lemma and the closed-form images check, and the
coefficient lookup, coefficient map and integrality check and conversion
of an algebra element.  The package needs none of them."""

import itertools
from fractions import Fraction

from brauercell.diagrams import AlgebraElement
from brauercell.matchings import BrauerDiagram, perm_sign
from brauercell.rings import Poly


def length(d: BrauerDiagram) -> int:
    """Minimal number of crossings: the number of interleaved strand pairs
    of a planar representative."""
    top, bot, vert = d.strand_types()
    count = 0
    for (a, b), (c, e) in itertools.combinations(vert, 2):
        if (a - c) * (b - e) < 0:
            count += 1
    for arcs in (top, bot):
        for (a, b), (c, e) in itertools.combinations(arcs, 2):
            if a < c < b < e or c < a < e < b:
                count += 1
        for (a, b) in arcs:
            for (i, j) in vert:
                pos = i if arcs is top else j
                if a < pos < b:
                    count += 1
    return count


def sigma(d: BrauerDiagram) -> tuple[int, ...]:
    """The permutation sigma_D of {1..2r} with i -> h_i, i+r -> k_i, where
    the strands are (h_i, k_i), h_i < k_i, h_1 < ... < h_r."""
    r = d.r
    out = [0] * (2 * r)
    for idx, (h, k) in enumerate(d.pairs, start=1):
        out[idx - 1] = h
        out[idx + r - 1] = k
    return tuple(out)


def sign(d: BrauerDiagram) -> int:
    return perm_sign(sigma(d))


def coeff(x: AlgebraElement, d: BrauerDiagram):
    return x.terms.get(d, 0)


def map_coeffs(x: AlgebraElement, f) -> AlgebraElement:
    return AlgebraElement(x.r, {d: f(c) for d, c in x.terms.items()}, x.delta)


def has_integer_coeffs(x: AlgebraElement) -> bool:
    for c in x.terms.values():
        if isinstance(c, Fraction) and c.denominator != 1:
            return False
        if isinstance(c, Poly):
            return False
    return True


def as_integer(x: AlgebraElement) -> AlgebraElement:
    if not has_integer_coeffs(x):
        raise ValueError("element does not have integer coefficients")
    return map_coeffs(x, int)
