import itertools
import random

import pytest

from brauercell.diagrams import AlgebraElement, diagram_mult, walled_filter
from brauercell.matchings import (BrauerDiagram, all_diagrams, all_permutation_diagrams,
                                  perm_mult, perm_sign, transposition)
from brauercell.murphy import MurphyBasis, young_sum
from brauercell.rings import Poly
from diagram_ops import coeff, length, sign as diagram_sign

DOUBLE_FACTORIALS = {1: 1, 2: 3, 3: 15, 4: 105, 5: 945, 6: 10395}


def elt(diag, coeff=1, delta=None):
    return AlgebraElement.from_diagram(diag, coeff, delta)


def diagram_stats(d: BrauerDiagram) -> tuple[int, int, int, int]:
    """(rank, corank, length, sign) of a diagram."""
    rank, corank = d.rank_corank()
    return rank, corank, length(d), diagram_sign(d)


def perm_to_diagram(pi: tuple[int, ...]) -> BrauerDiagram:
    return BrauerDiagram.from_perm(pi)


def test_canonical_encoding():
    a = BrauerDiagram(2, [(4, 3), (2, 1)])
    assert a.pairs == ((1, 2), (3, 4))
    with pytest.raises(ValueError):
        BrauerDiagram(2, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        BrauerDiagram(2, [(1, 2)])
    with pytest.raises(ValueError):
        BrauerDiagram(2, [(1, 3), (2, 5)])


def test_diagram_mult_examples():
    e1 = BrauerDiagram.e(1, 2)
    s1 = BrauerDiagram.s(1, 2)
    assert diagram_mult(e1, e1) == (e1, 1)
    assert diagram_mult(s1, s1) == (BrauerDiagram.identity(2), 0)
    e1_3, s2_3 = BrauerDiagram.e(1, 3), BrauerDiagram.s(2, 3)
    mid, l1 = diagram_mult(e1_3, s2_3)
    out, l2 = diagram_mult(mid, e1_3)
    assert (out, l1 + l2) == (e1_3, 0)


def oracle_mult(a: BrauerDiagram, b: BrauerDiagram) -> tuple[BrauerDiagram, int]:
    """The walk diagram_mult used before it interned its results: collect
    the glued strands as pairs, count the closed loops, and build a fresh
    diagram from the pairs."""
    r = a.r
    pa, pb = a._partner, b._partner
    pairs = []
    visited = [False] * (r + 1)  # middle vertices 1..r
    for start in range(1, r + 1):
        p = pa[start]
        if p <= r:
            if p > start:
                pairs.append((start, p))
            continue
        mid = p - r
        end = None
        while True:
            visited[mid] = True
            q = pb[mid]
            if q > r:
                end = r + (q - r)
                break
            visited[q] = True
            back = pa[q + r]
            if back <= r:
                end = back
                break
            mid = back - r
        if end <= r:
            if end > start:
                pairs.append((start, end))
        else:
            pairs.append((start, end))
    for start in range(1, r + 1):
        q = pb[r + start]
        if q > r:
            if q - r > start:
                pairs.append((r + start, r + q - r))
            continue
        if visited[q]:
            continue
        mid = q
        while True:
            visited[mid] = True
            back = pa[mid + r]
            if back <= r:
                raise ArithmeticError("chain from bottom must stay in the middle")
            nxt = back - r
            visited[nxt] = True
            q2 = pb[nxt]
            if q2 > r:
                pairs.append((r + start, q2) if q2 > r + start else (q2, r + start))
                break
            mid = q2
    loops = 0
    for v in range(1, r + 1):
        if visited[v]:
            continue
        loops += 1
        mid = v
        while not visited[mid]:
            visited[mid] = True
            nxt = pb[mid]
            visited[nxt] = True
            mid = pa[nxt + r] - r
    return BrauerDiagram(r, pairs), loops


def _assert_same_product(a, b):
    got, loops = diagram_mult(a, b)
    want, want_loops = oracle_mult(a, b)
    assert (got.pairs, got._partner, loops) == (want.pairs, want._partner, want_loops)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_diagram_mult_matches_oracle_on_every_pair(r):
    ds = all_diagrams(r)
    for a in ds:
        for b in ds:
            _assert_same_product(a, b)


@pytest.mark.parametrize("r", [5, 6])
def test_diagram_mult_matches_oracle_on_random_pairs(r):
    rng = random.Random(1000 + r)
    ds = all_diagrams(r)
    for _ in range(2000):
        _assert_same_product(rng.choice(ds), rng.choice(ds))


def test_diagram_mult_interns_its_products():
    ds = all_diagrams(3)
    for a, b in itertools.product(ds[::4], ds[::3]):
        assert diagram_mult(a, b)[0] is diagram_mult(a, b)[0]
    # a product reached from different factors is still the same object
    e1, s1 = BrauerDiagram.e(1, 3), BrauerDiagram.s(1, 3)
    assert diagram_mult(e1, e1)[0] is diagram_mult(s1, e1)[0]


def test_diagram_mult_rejects_a_malformed_chain():
    # top vertex 1 partnered with itself, bottom vertex 2 partnered with it:
    # no constructor accepts this, so it is assembled by hand
    bad = object.__new__(BrauerDiagram)
    bad.r, bad.pairs, bad._partner, bad._hash = 1, ((1, 2),), (0, 1, 1), 0
    with pytest.raises(ValueError):
        BrauerDiagram(1, [(1, 1)])
    with pytest.raises(ArithmeticError):
        diagram_mult(bad, BrauerDiagram.identity(1))


def test_mismatched_r():
    with pytest.raises(ValueError):
        diagram_mult(BrauerDiagram.identity(2), BrauerDiagram.identity(3))
    with pytest.raises(ValueError):
        AlgebraElement.one(2) * AlgebraElement.one(3)
    with pytest.raises(ValueError):
        AlgebraElement.one(2) * AlgebraElement.one(2, delta=3)


def test_stats_examples():
    assert diagram_stats(BrauerDiagram.identity(4)) == (4, 0, 0, 1)
    assert diagram_stats(BrauerDiagram.e(1, 2)) == (0, 1, 0, -1)
    assert diagram_stats(BrauerDiagram.s(1, 2)) == (2, 0, 1, -1)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_sign_lemma(r):
    for d in all_diagrams(r):
        rank, corank, length, sign = diagram_stats(d)
        assert rank + 2 * corank == r
        assert (-1) ** (corank + length) == sign


@pytest.mark.parametrize("r", list(DOUBLE_FACTORIALS))
def test_diagram_counts(r):
    diags = all_diagrams(r)
    assert len(diags) == DOUBLE_FACTORIALS[r]
    assert len(set(diags)) == len(diags)
    assert diags == sorted(diags, key=lambda d: d.pairs)


def test_perm_to_diagram():
    assert perm_to_diagram((1, 2, 3)) == BrauerDiagram.identity(3)
    assert perm_to_diagram((2, 1, 3)) == BrauerDiagram.s(1, 3)
    for p in itertools.permutations((1, 2, 3)):
        for q in itertools.permutations((1, 2, 3)):
            prod, loops = diagram_mult(perm_to_diagram(p), perm_to_diagram(q))
            assert loops == 0
            assert prod == perm_to_diagram(perm_mult(p, q))


def test_involution():
    for i in (1, 2):
        e = BrauerDiagram.e(i, 3)
        assert e.involution() == e
        s = BrauerDiagram.s(i, 3)
        assert s.involution() == s
    for p in itertools.permutations((1, 2, 3, 4)):
        d = perm_to_diagram(p)
        inv = [0] * 4
        for i, v in enumerate(p):
            inv[v - 1] = i + 1
        assert d.involution() == perm_to_diagram(tuple(inv))


def test_involution_involutive_and_antihomomorphism(rng):
    ds = all_diagrams(4)
    for _ in range(100):
        a = rng.choice(ds)
        assert a.involution().involution() == a
    for _ in range(50):
        a, b = elt(rng.choice(ds)), elt(rng.choice(ds))
        assert (a * b).involution() == b.involution() * a.involution()


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_brauer_relations(r):
    delta = Poly.delta()
    one = AlgebraElement.one(r)
    E = [None] + [elt(BrauerDiagram.e(i, r)) for i in range(1, r)]
    S = [None] + [elt(BrauerDiagram.s(i, r)) for i in range(1, r)]
    for i in range(1, r):
        assert E[i] * E[i] == E[i].scale(delta)
        assert S[i] * S[i] == one
        assert S[i] * E[i] == E[i] * S[i] == E[i]
    for i in range(1, r - 1):
        assert E[i] * E[i + 1] * E[i] == E[i]
        assert E[i + 1] * E[i] * E[i + 1] == E[i + 1]
        assert S[i] * S[i + 1] * S[i] == S[i + 1] * S[i] * S[i + 1]
        assert S[i] * E[i + 1] * E[i] == S[i + 1] * E[i]
    for i in range(1, r):
        for j in range(i + 2, r):
            assert E[i] * E[j] == E[j] * E[i]
            assert S[i] * S[j] == S[j] * S[i]
            assert S[i] * E[j] == E[j] * S[i]


def test_associativity_random(rng):
    for _ in range(200):
        r = rng.randint(2, 5)
        ds = all_diagrams(r)
        a, b, c = (elt(rng.choice(ds)) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_element_mult_specialized():
    # b_2 * e_1 = (2 + delta) e_1, zero at delta = -2
    one, s1, e1 = (AlgebraElement.one(2), elt(BrauerDiagram.s(1, 2)),
                   elt(BrauerDiagram.e(1, 2)))
    b2 = one + s1 + e1
    prod = b2 * e1
    assert coeff(prod, BrauerDiagram.e(1, 2)) == Poly.delta() + 2
    b2s = b2.specialize(-2)
    assert (b2s * e1.specialize(-2)).is_zero
    # x_(2) e_1 = 2 e_1
    assert (one + s1) * e1 == e1.scale(2)
    assert ((one + s1) * (one - s1)).is_zero


def test_walled_filter():
    assert walled_filter(1, 1, BrauerDiagram.identity(2)) == (True, 1)
    e11 = BrauerDiagram(2, [(1, 2), (3, 4)])
    assert walled_filter(1, 1, e11) == (True, -1)
    assert walled_filter(1, 1, BrauerDiagram.s(1, 2)) == (False, None)
    # e_{a,b} with the nested horizontal pair has sign -1 in general
    for (a, b) in [(2, 1), (1, 2), (2, 2)]:
        r = a + b
        eab = BrauerDiagram(r, [(1, r), (r + 1, 2 * r)]
                            + [(j, r + j) for j in range(2, r)])
        assert walled_filter(a, b, eab) == (True, -1)
    with pytest.raises(ValueError):
        walled_filter(1, 1, BrauerDiagram.identity(3))


def test_walled_diagrams_biject_with_permutations():
    # (a,b)-walled diagrams of B_{a+b} are counted by (a+b)!
    import math
    for (a, b) in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        count = sum(1 for d in all_diagrams(a + b) if walled_filter(a, b, d)[0])
        assert count == math.factorial(a + b)


def test_walled_sign_matches_sigma_sign():
    for (a, b) in [(1, 1), (2, 1), (2, 2)]:
        for d in all_diagrams(a + b):
            ok, sign = walled_filter(a, b, d)
            if ok:
                assert sign == diagram_sign(d)


def test_tensor_and_embed():
    e1 = elt(BrauerDiagram.e(1, 2))
    one2 = AlgebraElement.one(2)
    assert e1.tensor(one2) == elt(BrauerDiagram.e(1, 4))
    assert one2.tensor(e1) == elt(BrauerDiagram.e(3, 4))
    assert e1.embed(4) == elt(BrauerDiagram.e(1, 4))


def test_sign_twist():
    x = young_sum((2,), 2, signed=False)
    assert x.sign_twist() == young_sum((2,), 2, signed=True)
    e1 = elt(BrauerDiagram.e(1, 2))
    with pytest.raises(ValueError):
        e1.sign_twist()


def test_json_roundtrip():
    d = BrauerDiagram(3, [(1, 4), (2, 3), (5, 6)])
    data = d.to_json()
    assert data == {"r": 3, "strands": [[1, 4], [2, 3], [5, 6]]}
    assert BrauerDiagram(data["r"], [tuple(p) for p in data["strands"]]) == d
    a = elt(d, 2) + AlgebraElement.one(3)
    dumped = a.to_json()
    # sorted by canonical diagram encoding: (2,3) precedes the identity's (2,5)
    assert [item["coeff"] for item in dumped] == ["2", "1"]


def test_permutation_diagrams_order():
    perms = all_permutation_diagrams(3)
    assert len(perms) == 6
    assert all(d.is_permutation() for d in perms)
    assert perms == sorted(perms, key=lambda d: d.pairs)


def test_perm_sign():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign(transposition(1, 3, 3)) == -1
    assert perm_sign((2, 3, 1)) == 1


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_enumerated_diagrams_are_the_interned_products(r):
    """A product equal to an enumerated diagram is that very object."""
    one = BrauerDiagram.identity(r)
    for d in all_diagrams(r) + all_permutation_diagrams(r):
        assert diagram_mult(one, d)[0] is d
        assert diagram_mult(d, one)[0] is d


@pytest.mark.parametrize("flavor,delta0", [("brauer-murphy", -2), ("brauer-dual-murphy", 3)])
def test_gram_at_delta0_compares_no_diagrams(monkeypatch, flavor, delta0):
    """Every diagram the Gram looks up is found by identity, so
    BrauerDiagram.__eq__ is never called."""
    mb = MurphyBasis(4, flavor)
    calls = []
    eq = BrauerDiagram.__eq__
    monkeypatch.setattr(BrauerDiagram, "__eq__",
                        lambda self, other: calls.append(1) or eq(self, other))
    for v in mb.vertices:
        mb.gram_matrix(v, delta0)
        assert not calls, v
