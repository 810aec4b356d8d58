"""Brauer diagrams as perfect matchings, and the permutations among them.

A diagram on r strands is a perfect matching of the 2r vertices
{1..r} (top, left to right) and {r+1..2r} (bottom, left to right), stored
canonically as pairs (i, j) with i < j sorted by first coordinate.  The
enumerations of B_r and of the symmetric group return interned diagrams,
one object per matching (``interned``), shared with ``diagrams.diagram_mult``.

This module does not import ``rings``: the tensor side (``tensorrep`` and
the ``dims`` command) reads diagrams only, and loads them without the
diagram algebra over Z[delta], which is ``diagrams``.
"""

from __future__ import annotations

import itertools

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

    def __eq__(self, other):
        return (isinstance(other, BrauerDiagram)
                and self.r == other.r and self.pairs == other.pairs)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.pairs < other.pairs

    def __repr__(self):
        return f"BrauerDiagram({self.r}, {list(self.pairs)})"


_INTERNED: dict[tuple[int, ...], BrauerDiagram] = {}   # at most (2r-1)!! per r


def interned(partner: tuple[int, ...]) -> BrauerDiagram:
    """The one diagram with this partner tuple (0, then the vertex matched
    to each of 1..2r), built by the validating constructor on first sight."""
    d = _INTERNED.get(partner)
    if d is None:   # keyed by the diagram's own tuple, so the argument is not kept
        d = BrauerDiagram(len(partner) // 2, [(i, j) for i, j in enumerate(partner) if 0 < i < j])
        _INTERNED[d._partner] = d
    return d


def all_diagrams(r: int) -> list[BrauerDiagram]:
    """All (2r-1)!! diagrams of B_r, in lexicographic canonical order.

    This order is the global diagram-basis order used by every matrix.
    Each diagram is the ``interned`` object of its matching, the one that
    ``diagrams.diagram_mult`` returns, so a lookup of a product is by identity."""
    out = []
    partner = [0] * (2 * r + 1)

    def rec(free: tuple[int, ...]):
        if not free:
            out.append(interned(tuple(partner)))
            return
        first, rest = free[0], free[1:]
        for k, second in enumerate(rest):
            partner[first], partner[second] = second, first
            rec(rest[:k] + rest[k + 1:])

    rec(tuple(range(1, 2 * r + 1)))
    out.sort(key=lambda d: d.pairs)
    return out


def all_permutation_diagrams(r: int) -> list[BrauerDiagram]:
    """Permutation diagrams of B_r (the symmetric group), in the same
    lexicographic canonical order used by all_diagrams, interned as there."""
    out = [interned((0, *(r + i for i in p), *perm_inverse(p)))
           for p in itertools.permutations(range(1, r + 1))]
    out.sort(key=lambda d: d.pairs)
    return out
