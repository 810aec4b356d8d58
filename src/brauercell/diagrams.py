"""The diagram algebra: products of Brauer diagrams and their formal sums.

The product a*b of two diagrams (``matchings.BrauerDiagram``) stacks a
over b (a's bottom row glued to b's top row), removes closed loops, and
multiplies the coefficient by the loop parameter once per loop.

AlgebraElement is a sparse formal sum of diagrams.  Its ``delta`` attribute
selects the ring: None means the generic ground ring Z[delta] (loops
contribute the polynomial delta, coefficients are ``Poly`` or int), an int
means the specialization at that loop parameter (coefficients are ints).
A coefficient, int or ``Poly``, is falsy exactly when it is zero, and no
zero is stored.
"""

from __future__ import annotations

from .matchings import BrauerDiagram, interned, perm_sign
from .rings import Poly


def diagram_mult(a: BrauerDiagram, b: BrauerDiagram) -> tuple[BrauerDiagram, int]:
    """Stack a over b; returns the resulting diagram and the loop count.

    Equal products are the same object: the result is looked up by its
    partner tuple (``matchings.interned``)."""
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
    return interned(tuple(out)), loops


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
    coefficient by the polynomial delta) or an int for the specialized
    algebra.  ``terms`` is a dict diagram -> coefficient."""

    __slots__ = ("r", "delta", "terms")

    def __init__(self, r: int, terms=None, delta=None):
        self.r = r
        self.delta = delta
        self.terms = {d: c for d, c in terms.items() if c} if terms else {}

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
                if v:
                    out[d] = v
                else:
                    out.pop(d, None)
            return AlgebraElement(self.r, out, self.delta)
        return NotImplemented

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgebraElement(self.r, {d: -c for d, c in self.terms.items()}, self.delta)

    def scale(self, c) -> "AlgebraElement":
        if not c:
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
                    if v:
                        out[d] = v
                    else:
                        out.pop(d, None)
            return AlgebraElement(self.r, out, self.delta)
        if isinstance(other, (int, Poly)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Poly)):
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
            if v:
                out[d] = v
        return AlgebraElement(self.r, out, d0)

    def with_delta(self, d0) -> "AlgebraElement":
        """Retag a generic element with integer coefficients at delta = d0."""
        return self.specialize(d0) if self.delta is None else self

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
        return [{"diagram": d.to_json(),
                 "coeff": c.to_json() if isinstance(c, Poly) else str(c)}
                for d, c in items]
