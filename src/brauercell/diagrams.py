"""Brauer diagrams and the diagram algebra.

A diagram on r strands is a perfect matching of the 2r vertices
{1..r} (top, left to right) and {r+1..2r} (bottom, left to right), stored
canonically as pairs (i, j) with i < j sorted by first coordinate.  The
product a*b stacks a over b (a's bottom row glued to b's top row), removes
closed loops, and multiplies the coefficient by the loop parameter once per
loop.

AlgebraElement is a sparse formal sum of diagrams.  Its ``delta`` attribute
selects the ring: None means the generic ground ring (loops contribute the
polynomial delta), an int/Fraction value means the specialization at that
loop parameter.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .rings import Poly

# ---------------------------------------------------------------------------
# permutations, as tuples of 1-indexed images; composition acts left-to-right


def perm_mult(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Composition "apply p, then q": (perm_mult(p, q))(i) = q(p(i))."""
    return tuple(q[p[i] - 1] for i in range(len(p)))


def perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


def perm_sign(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def transposition(i: int, j: int, n: int) -> tuple[int, ...]:
    p = list(range(1, n + 1))
    p[i - 1], p[j - 1] = j, i
    return tuple(p)


def cycle_perm(a: int, i: int, n: int) -> tuple[int, ...]:
    """The element s_{a,i} = s_a s_{a+1} ... s_{i-1}, i.e. the cycle
    (i, i-1, ..., a); requires a <= i."""
    p = list(range(1, n + 1))
    if a < i:
        for k in range(a + 1, i + 1):
            p[k - 1] = k - 1
        p[a - 1] = i
    return tuple(p)


class BrauerDiagram:
    """An r-strand Brauer diagram (immutable, hashable)."""

    __slots__ = ("r", "pairs", "_partner", "_hash")

    def __init__(self, r: int, pairs):
        norm = tuple(sorted((i, j) if i < j else (j, i) for i, j in pairs))
        self.r = r
        self.pairs = norm
        partner = [0] * (2 * r + 1)
        seen = 0
        for i, j in norm:
            if not (1 <= i < j <= 2 * r) or partner[i] or partner[j]:
                raise ValueError(f"not a perfect matching on 2*{r} vertices: {pairs}")
            partner[i], partner[j] = j, i
            seen += 2
        if seen != 2 * r:
            raise ValueError(f"not a perfect matching on 2*{r} vertices: {pairs}")
        self._partner = tuple(partner)
        self._hash = hash((r, norm))

    @classmethod
    def identity(cls, r: int) -> "BrauerDiagram":
        return cls(r, [(i, r + i) for i in range(1, r + 1)])

    @classmethod
    def s(cls, i: int, r: int) -> "BrauerDiagram":
        """Generator s_i: the transposition (i, i+1) as a diagram."""
        pairs = [(k, r + k) for k in range(1, r + 1) if k not in (i, i + 1)]
        pairs += [(i, r + i + 1), (i + 1, r + i)]
        return cls(r, pairs)

    @classmethod
    def e(cls, i: int, r: int) -> "BrauerDiagram":
        """Generator e_i: horizontal strands (i, i+1) on top and bottom."""
        pairs = [(k, r + k) for k in range(1, r + 1) if k not in (i, i + 1)]
        pairs += [(i, i + 1), (r + i, r + i + 1)]
        return cls(r, pairs)

    @classmethod
    def e_pair(cls, i: int, j: int, r: int) -> "BrauerDiagram":
        """Horizontal pairs {i,j} on top and bottom, verticals elsewhere."""
        pairs = [(k, r + k) for k in range(1, r + 1) if k not in (i, j)]
        pairs += [(i, j), (r + i, r + j)]
        return cls(r, pairs)

    @classmethod
    def from_perm(cls, pi: tuple[int, ...]) -> "BrauerDiagram":
        r = len(pi)
        return cls(r, [(i, r + pi[i - 1]) for i in range(1, r + 1)])

    def involution(self) -> "BrauerDiagram":
        """Reflection in a horizontal line (vertex i <-> i+r)."""
        r = self.r
        flip = lambda v: v + r if v <= r else v - r
        return BrauerDiagram(r, [(flip(i), flip(j)) for i, j in self.pairs])

    def is_permutation(self) -> bool:
        return all(i <= self.r < j for i, j in self.pairs)

    def to_perm(self) -> tuple[int, ...]:
        if not self.is_permutation():
            raise ValueError("diagram has horizontal strands")
        out = [0] * self.r
        for i, j in self.pairs:
            out[i - 1] = j - self.r
        return tuple(out)

    def strand_types(self):
        """(top, bot, vert): horizontal top pairs, horizontal bottom pairs
        (bottom positions 1..r), and vertical pairs (top, bottom position)."""
        r = self.r
        top, bot, vert = [], [], []
        for i, j in self.pairs:
            if j <= r:
                top.append((i, j))
            elif i > r:
                bot.append((i - r, j - r))
            else:
                vert.append((i, j - r))
        return top, bot, vert

    def rank_corank(self) -> tuple[int, int]:
        vert = sum(1 for i, j in self.pairs if i <= self.r < j)
        return vert, (self.r - vert) // 2

    def length(self) -> int:
        """Minimal number of crossings: the number of interleaved strand
        pairs of a planar representative."""
        top, bot, vert = self.strand_types()
        count = 0
        for (a, b), (c, d) in itertools.combinations(vert, 2):
            if (a - c) * (b - d) < 0:
                count += 1
        for arcs in (top, bot):
            for (a, b), (c, d) in itertools.combinations(arcs, 2):
                if a < c < b < d or c < a < d < b:
                    count += 1
            for (a, b) in arcs:
                for (i, j) in vert:
                    pos = i if arcs is top else j
                    if a < pos < b:
                        count += 1
        return count

    def sigma(self) -> tuple[int, ...]:
        """The permutation sigma_D of {1..2r} with i -> h_i, i+r -> k_i,
        where the strands are (h_i, k_i), h_i < k_i, h_1 < ... < h_r."""
        r = self.r
        out = [0] * (2 * r)
        for idx, (h, k) in enumerate(self.pairs, start=1):
            out[idx - 1] = h
            out[idx + r - 1] = k
        return tuple(out)

    def sign(self) -> int:
        return perm_sign(self.sigma())

    def tensor(self, other: "BrauerDiagram") -> "BrauerDiagram":
        """Side-by-side juxtaposition, self on the left."""
        ra, rb, r = self.r, other.r, self.r + other.r

        def shift_a(v):
            return v if v <= ra else v + rb

        def shift_b(v):
            return v + ra if v <= rb else v + 2 * ra

        pairs = [(shift_a(i), shift_a(j)) for i, j in self.pairs]
        pairs += [(shift_b(i), shift_b(j)) for i, j in other.pairs]
        return BrauerDiagram(r, pairs)

    def embed(self, r: int) -> "BrauerDiagram":
        """Standard embedding into B_r by identity strands on the right."""
        if r < self.r:
            raise ValueError("cannot embed into fewer strands")
        if r == self.r:
            return self
        return self.tensor(BrauerDiagram.identity(r - self.r))

    def to_json(self) -> dict:
        return {"r": self.r, "strands": [list(p) for p in self.pairs]}

    @classmethod
    def from_json(cls, data: dict) -> "BrauerDiagram":
        return cls(data["r"], [tuple(p) for p in data["strands"]])

    def __eq__(self, other):
        return (isinstance(other, BrauerDiagram)
                and self.r == other.r and self.pairs == other.pairs)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.pairs < other.pairs

    def __repr__(self):
        return f"BrauerDiagram({self.r}, {list(self.pairs)})"


# partner tuple -> the one diagram with that matching, filled by diagram_mult
# and by the enumerations; it holds at most (2r-1)!! entries per r
_INTERNED: dict[tuple[int, ...], BrauerDiagram] = {}


def _interned(d: BrauerDiagram) -> BrauerDiagram:
    return _INTERNED.setdefault(d._partner, d)


def diagram_mult(a: BrauerDiagram, b: BrauerDiagram) -> tuple[BrauerDiagram, int]:
    """Stack a over b; returns the resulting diagram and the loop count.

    Equal products are the same object: the result is looked up by its
    partner tuple, and only a matching not seen before is built, by the
    validating constructor."""
    if a.r != b.r:
        raise ValueError("strand count mismatch")
    r = a.r
    pa, pb = a._partner, b._partner
    # Vertex spaces: final top = a's top (1..r); middle m = a's bottom m + r
    # glued to b's top m; final bottom = b's bottom (r+1..2r).
    out = [0] * (2 * r + 1)
    visited = [False] * (r + 1)  # middle vertices 1..r
    for start in range(1, r + 1):
        if out[start]:
            continue
        end = pa[start]
        while end > r:  # walk down through the middle
            mid = end - r
            visited[mid] = True
            end = pb[mid]
            if end > r:
                break  # reached the final bottom
            visited[end] = True
            end = pa[end + r]
            if end <= r:
                break  # back at the final top
        out[start], out[end] = end, start
    for start in range(r + 1, 2 * r + 1):
        if out[start]:
            continue
        end = pb[start]
        while end <= r:  # walk up through the middle
            visited[end] = True
            end = pa[end + r]
            if end <= r:
                raise ArithmeticError("chain from bottom must stay in the middle")
            visited[end - r] = True
            end = pb[end - r]
        out[start], out[end] = end, start
    # remaining middle vertices form closed loops
    loops = 0
    for mid in range(1, r + 1):
        if visited[mid]:
            continue
        loops += 1
        while not visited[mid]:
            visited[mid] = True
            nxt = pb[mid]
            visited[nxt] = True
            mid = pa[nxt + r] - r
    key = tuple(out)
    d = _INTERNED.get(key)
    if d is None:
        d = _INTERNED[key] = BrauerDiagram(
            r, [(i, j) for i, j in enumerate(out) if 0 < i < j])
    return d, loops


def all_diagrams(r: int) -> list[BrauerDiagram]:
    """All (2r-1)!! diagrams of B_r, in lexicographic canonical order.

    This order is the global diagram-basis order used by every matrix.
    Each diagram is the interned object of its matching, the one that
    ``diagram_mult`` returns, so a lookup of a product is by identity."""
    out = []

    def rec(free: tuple[int, ...], acc: list):
        if not free:
            out.append(_interned(BrauerDiagram(r, acc)))
            return
        first, rest = free[0], free[1:]
        for k, second in enumerate(rest):
            acc.append((first, second))
            rec(rest[:k] + rest[k + 1:], acc)
            acc.pop()

    rec(tuple(range(1, 2 * r + 1)), [])
    out.sort(key=lambda d: d.pairs)
    return out


def all_permutation_diagrams(r: int) -> list[BrauerDiagram]:
    """Permutation diagrams of B_r (the symmetric group), in the same
    lexicographic canonical order used by all_diagrams, interned as there."""
    out = [_interned(BrauerDiagram.from_perm(p))
           for p in itertools.permutations(range(1, r + 1))]
    out.sort(key=lambda d: d.pairs)
    return out


def walled_filter(r1: int, r2: int, d: BrauerDiagram):
    """Whether d is an (r1, r2)-walled diagram, and if so its sign.

    Walled: every vertical strand stays on its own side of the wall between
    positions r1 and r1+1, and every horizontal strand crosses it.  The sign
    is the sign of the permutation obtained by exchanging the top and bottom
    vertices to the right of the wall."""
    if r1 + r2 != d.r:
        raise ValueError("wall does not match strand count")
    r = d.r
    top, bot, vert = d.strand_types()
    left = lambda pos: pos <= r1
    for i, j in vert:
        if left(i) != left(j):
            return False, None
    for arcs in (top, bot):
        for i, j in arcs:
            if left(i) == left(j):
                return False, None
    # exchange top and bottom vertices to the right of the wall
    perm = [0] * r
    for i, j in vert:
        if left(i):
            perm[i - 1] = j
        else:
            perm[j - 1] = i
    for i, j in top:  # i left, j right: becomes vertical top i -> bottom j
        perm[i - 1] = j
    for i, j in bot:
        perm[j - 1] = i
    return True, perm_sign(tuple(perm))


class AlgebraElement:
    """Sparse element of B_r over an exact ring.

    ``delta`` is None for the generic ground ring (a loop multiplies the
    coefficient by the polynomial delta) or an exact scalar for the
    specialized algebra."""

    __slots__ = ("r", "delta", "terms")

    def __init__(self, r: int, terms=None, delta=None):
        self.r = r
        self.delta = delta
        self.terms = {}
        if terms:
            for d, c in (terms.items() if isinstance(terms, dict) else terms):
                if not _zero(c):
                    if d in self.terms:
                        c = self.terms[d] + c
                        if _zero(c):
                            del self.terms[d]
                            continue
                    self.terms[d] = c

    @classmethod
    def zero(cls, r: int, delta=None) -> "AlgebraElement":
        return cls(r, {}, delta)

    @classmethod
    def one(cls, r: int, delta=None) -> "AlgebraElement":
        return cls(r, {BrauerDiagram.identity(r): 1}, delta)

    @classmethod
    def from_diagram(cls, d: BrauerDiagram, coeff=1, delta=None) -> "AlgebraElement":
        return cls(d.r, {d: coeff}, delta)

    @classmethod
    def from_perm(cls, pi: tuple[int, ...], coeff=1, delta=None) -> "AlgebraElement":
        return cls(len(pi), {BrauerDiagram.from_perm(pi): coeff}, delta)

    def _loop_factor(self):
        return Poly.delta() if self.delta is None else self.delta

    def _check_compat(self, other: "AlgebraElement"):
        if self.r != other.r:
            raise ValueError(f"strand count mismatch: {self.r} vs {other.r}")
        if self.delta != other.delta:
            raise ValueError(f"ring mismatch: delta={self.delta} vs {other.delta}")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_compat(other)
            out = dict(self.terms)
            for d, c in other.terms.items():
                v = out.get(d, 0) + c
                if _zero(v):
                    out.pop(d, None)
                else:
                    out[d] = v
            return AlgebraElement(self.r, out, self.delta)
        return NotImplemented

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgebraElement(self.r, {d: -c for d, c in self.terms.items()}, self.delta)

    def scale(self, c) -> "AlgebraElement":
        if _zero(c):
            return AlgebraElement.zero(self.r, self.delta)
        return AlgebraElement(self.r, {d: c * v for d, v in self.terms.items()}, self.delta)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check_compat(other)
            loop = self._loop_factor()
            out: dict = {}
            for da, ca in self.terms.items():
                for db, cb in other.terms.items():
                    d, loops = diagram_mult(da, db)
                    c = ca * cb
                    if loops:
                        c = c * loop ** loops
                    v = out.get(d, 0) + c
                    if _zero(v):
                        out.pop(d, None)
                    else:
                        out[d] = v
            return AlgebraElement(self.r, out, self.delta)
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return self.scale(other)
        return NotImplemented

    def involution(self) -> "AlgebraElement":
        return AlgebraElement(self.r, {d.involution(): c for d, c in self.terms.items()},
                              self.delta)

    def sign_twist(self) -> "AlgebraElement":
        """The automorphism w -> sgn(w) w; defined on permutation elements."""
        out = {}
        for d, c in self.terms.items():
            if not d.is_permutation():
                raise ValueError("sign twist is only defined on permutation elements")
            out[d] = c * perm_sign(d.to_perm())
        return AlgebraElement(self.r, out, self.delta)

    def tensor(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.delta != other.delta:
            raise ValueError("ring mismatch in tensor")
        out = {}
        for da, ca in self.terms.items():
            for db, cb in other.terms.items():
                out[da.tensor(db)] = ca * cb
        return AlgebraElement(self.r + other.r, out, self.delta)

    def embed(self, r: int) -> "AlgebraElement":
        if r == self.r:
            return self
        return AlgebraElement(r, {d.embed(r): c for d, c in self.terms.items()},
                              self.delta)

    def specialize(self, d0) -> "AlgebraElement":
        """Specialize the generic element at delta = d0."""
        if self.delta is not None:
            raise ValueError("element is already specialized")
        out = {}
        for d, c in self.terms.items():
            v = c.evaluate(d0) if isinstance(c, Poly) else c
            if v != 0:
                out[d] = v
        return AlgebraElement(self.r, out, d0)

    def with_delta(self, d0) -> "AlgebraElement":
        """Retag a generic element with integer coefficients at delta = d0."""
        return self.specialize(d0) if self.delta is None else self

    def map_coeffs(self, f) -> "AlgebraElement":
        return AlgebraElement(self.r, {d: f(c) for d, c in self.terms.items()}, self.delta)

    def coeff(self, d: BrauerDiagram):
        return self.terms.get(d, 0)

    def has_integer_coeffs(self) -> bool:
        for c in self.terms.values():
            if isinstance(c, Fraction) and c.denominator != 1:
                return False
            if isinstance(c, Poly):
                return False
        return True

    def as_integer(self) -> "AlgebraElement":
        if not self.has_integer_coeffs():
            raise ValueError("element does not have integer coefficients")
        return self.map_coeffs(lambda c: int(c))

    def __eq__(self, other):
        if isinstance(other, AlgebraElement):
            return (self.r == other.r and self.delta == other.delta
                    and self.terms == other.terms)
        return NotImplemented

    def __repr__(self):
        if self.is_zero:
            return f"AlgebraElement({self.r}, 0)"
        body = " + ".join(f"{c}*{d.pairs}" for d, c in sorted(self.terms.items(),
                                                              key=lambda t: t[0].pairs))
        return f"AlgebraElement({self.r}, {body})"

    def to_json(self) -> list:
        items = sorted(self.terms.items(), key=lambda t: t[0].pairs)
        return [{"diagram": d.to_json(), "coeff": _coeff_json(c)} for d, c in items]


def _coeff_json(c):
    if isinstance(c, (int, Fraction)):
        return str(c)
    return c.to_json()


def _zero(c) -> bool:
    if isinstance(c, Poly):
        return c.is_zero
    return c == 0
