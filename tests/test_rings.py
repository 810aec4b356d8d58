from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauercell.rings import Poly, _as_poly
from exact_ops import poly_divmod

d = Poly.delta()


def poly_eval(p, d0):
    """Exact value of p at delta = d0."""
    return p.evaluate(d0)


def exact_div(a, b):
    """Exact division a / b, raising if the quotient leaves the ring."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r != 0:
            raise ArithmeticError(f"non-exact integer division {a} / {b}")
        return q
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return Fraction(a) / Fraction(b)
    pa, pb = _as_poly(a), _as_poly(b)
    q, r = poly_divmod(pa, pb)
    if not r.is_zero:
        raise ArithmeticError(f"non-exact polynomial division {a} / {b}")
    return q


def test_poly_eval_examples():
    p = d * d + 1
    assert poly_eval(p, -2) == 5
    assert poly_eval(Poly.zero(), 7) == 0
    # delta + 2N vanishes at -2N by construction
    for n in (1, 2, 3):
        assert poly_eval(d + 2 * n, -2 * n) == 0


def test_poly_basics():
    assert (d - d).is_zero
    assert Poly.zero().degree == -1
    assert (2 * d ** 3).degree == 3
    assert d ** 0 == 1
    assert (d + 1) * (d - 1) == d * d - 1
    q, r = poly_divmod(d * d - 1, d - 1)
    assert q == d + 1 and r.is_zero


def test_poly_json_roundtrip():
    p = 3 * d ** 4 - 2 * d + 7
    assert Poly({int(e): int(c) for e, c in p.to_json().items()}) == p
    assert p.to_json() == {"0": "7", "1": "-2", "4": "3"}


scalars = st.integers(min_value=-6, max_value=6)


@st.composite
def polys(draw):
    coeffs = draw(st.dictionaries(st.integers(min_value=0, max_value=4),
                                  scalars, max_size=4))
    return Poly(coeffs)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


def test_exact_div():
    assert exact_div(6, 3) == 2
    with pytest.raises(ArithmeticError):
        exact_div(7, 3)
    assert exact_div(d * d - 1, d - 1) == d + 1
    with pytest.raises(ArithmeticError):
        exact_div(d * d + 1, d - 1)
    assert exact_div(Fraction(1, 2), Fraction(3, 4)) == Fraction(2, 3)
