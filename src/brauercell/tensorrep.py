"""Exact matrix representations of the Brauer algebra on symplectic and
orthogonal tensor space, and the place-permutation action of the symmetric
group.

Conventions (pinned by tests):

* symplectic: V of dimension 2N with the Darboux pairing
  <v_i, v_{2N+1-i}> = 1 for i <= N, = -1 for i > N; e_i acts by E_i and
  s_i by -S_i; loop parameter -2N.
* orthogonal: V of dimension N with (v_i, v_j) = [j = N+1-i]; e_i -> E_i,
  s_i -> S_i; loop parameter N.
* symmetric: the unsigned place-permutation action of the symmetric
  group on (Z^N)^{tensor r}; diagrams must be permutations.

Matrices act on row vectors from the right, so rep(ab) = rep(a) rep(b).
A diagram's image is given by ``TensorRep.diagram_columns`` on chosen rows;
``image_vectors`` and ``image_rank`` read it, and their ranks are taken by
``exactmat.rank``.

Orbit rows.  Every rank and zero test on images reads only the rows of
``TensorRep.orbit_rows()``: one word per orbit of the letter group H acting
on the words of length r over the letters {0..d-1} of V (d = dim V).  For
the symplectic and orthogonal flavors H is the group of permutations of the
letters that commute with iota(x) = d-1-x (they permute the pairs
{x, iota(x)} and may swap the two ends of a pair); for the symmetric
flavor H is all of S_N.  Reading the orbit rows alone is exact:

1. Each pi in H lifts to a signed permutation matrix g_pi, v_x -> eps_x
   v_pi(x), in O(V), Sp(V) or S_N.  Orthogonal and symmetric: every
   eps_x = 1, as [pi(x) + pi(y) = d-1] = [x + y = d-1].  Symplectic: for
   each pair {x, iota(x)} with x < N put eps_x = 1 and eps_iota(x) =
   <v_pi(x), v_iota(pi(x))>, which keeps the Darboux form on that pair.
2. Phi(e_i) contracts places i, i+1 with the form and inserts omega, the
   tensor of the form's dual bases; both are invariant under the group of
   the form.  Phi(s_i) is a place permutation up to sign.  So every Phi(x)
   commutes with g_pi^{tensor r}, which gives Phi(x)[pi w, pi w'] =
   +-Phi(x)[w, w'] with the sign eps(w) eps(w') of the words: each row, and
   likewise each column, is a signed relabelling of the orbit row of its
   orbit.
3. Restricting to the orbit rows is therefore injective on {Phi(x)}: an
   image whose orbit rows vanish is zero.  The signs are +-1, so this holds
   over Z and mod every p, and ranks and zero tests are unchanged.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from typing import TYPE_CHECKING

from .errors import CapExceeded
from .exactmat import rank
from .matchings import BrauerDiagram, perm_sign

if TYPE_CHECKING:   # the diagram algebra is only named in annotations here
    from .diagrams import AlgebraElement


# the default cap on the tensor dimension dim V ** r (--max-tensor-dim)
MAX_TENSOR_DIM = 65536

# flavor -> (dim V(N), loop value delta0(N)); permutations close no loops
FLAVOR_SPACE = {
    "symplectic": (lambda n: 2 * n, lambda n: -2 * n),
    "orthogonal": (lambda n: n, lambda n: n),
    "symmetric": (lambda n: n, lambda n: None),
}


class TensorRep:
    """The representation of B_r (or the symmetric group) on V^{tensor r}."""

    def __init__(self, flavor: str, n: int, r: int, max_tensor_dim: int = MAX_TENSOR_DIM):
        if flavor not in FLAVOR_SPACE:
            raise ValueError(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self.n = n
        self.r = r
        dim_fn, delta_fn = FLAVOR_SPACE[flavor]
        self.dim = dim_fn(n)
        self.delta0 = delta_fn(n)
        # the form, built once: pair_sign[x] = <v_x, v_{d-1-x}>, the only
        # nonzero pairing of v_x; omega = sum_x v_x^* tensor v_x as triples
        # (a, b, coeff), the component on v_a tensor v_b
        d = self.dim
        self.pair_sign = self.omega = None
        if self.delta0 is not None:
            self.pair_sign = [-1 if flavor == "symplectic" and x >= n else 1
                              for x in range(d)]
            self.omega = [(d - 1 - b, b, self.pair_sign[b]) for b in range(d)]
        self.size = self.dim ** r
        if self.size > max_tensor_dim:
            raise CapExceeded(
                f"tensor dimension {self.dim}^{r} exceeds the cap {max_tensor_dim}")
        self._orbit_rows: tuple[int, ...] | None = None
        self._orbit_words: dict[int, tuple[int, ...]] = {}
        self._orbit_letters: list[tuple[int, ...]] = []

    # -- index bookkeeping ---------------------------------------------------

    def idx(self, word: tuple[int, ...]) -> int:
        out = 0
        for a in word:
            out = out * self.dim + a
        return out

    def word(self, i: int) -> tuple[int, ...]:
        """The word of index i, inverse to ``idx``."""
        out = [0] * self.r
        for j in range(self.r - 1, -1, -1):
            i, out[j] = divmod(i, self.dim)
        return tuple(out)

    def orbit_rows(self) -> tuple[int, ...]:
        """The indices, increasing, of the words fixed by the canonical
        relabelling, one per orbit of the letter group H (module docstring).
        The relabelling scans a word left to right.  Symplectic and
        orthogonal: each new letter pair {x, d-1-x}, in order of first
        appearance, goes to the next free pair {k, d-1-k}, with its
        first-seen letter sent to k; the middle letter of an odd d stays
        fixed.  Symmetric: the letters are renumbered in order of first
        occurrence.  So the fixed words are built letter by letter: after k
        classes have been used, a word continues with a letter of those
        classes (or the middle letter) or with the next new one, k.  The
        words, and their letter table, are kept for ``diagram_columns``."""
        if self._orbit_rows is None:
            d = self.dim
            if self.omega is None:
                classes, known = d, range
            else:
                classes = d // 2
                middle = [d // 2] if d % 2 else []

                def known(k):
                    return [*range(k), *range(d - k, d), *middle]
            level = [((), 0)]
            for _ in range(self.r):
                level = [(w + (a,), k) for w, k in level for a in known(k)] + [
                    (w + (k,), k + 1) for w, k in level if k < classes]
            self._orbit_words = {self.idx(w): w for w, _ in level}
            self._orbit_rows = tuple(sorted(self._orbit_words))
            self._orbit_letters = list(zip(*map(self._orbit_words.get, self._orbit_rows)))
        return self._orbit_rows

    # -- representation of diagrams ------------------------------------------

    def diagram_columns(self, diag: BrauerDiagram, rows) -> tuple[list, list, list]:
        """Image of a diagram on the word indices in the sequence ``rows``,
        as three columns (heads, coeffs, lows): row k of the image is
        {h + lows[k]: coeffs[k] * v for (h, v) in heads}, and zero when
        coeffs[k] is 0.  It is built by a generator-product factorization
        D = P(sigma) (e_1 e_3 ... e_{2s-1}) P(tau).  Each word is moved by
        sigma; the rows of E_1 E_3 ... E_{2s-1} contract places (1, 2), ...,
        (2s-1, 2s) with the form and put omega there; tau relabels the
        columns.  So every nonzero row has the same omega part, the heads
        (column, value), shifted by the row's offset from its vertical
        strands and scaled by its coefficient from the contractions.

        The rows are read by columns of their letter table letters[place][k]
        (``orbit_rows`` keeps that of the orbit rows): one pass per
        contracted pair gives the coefficients, one per vertical strand the
        column offsets."""
        if diag.r != self.r:
            raise ValueError("strand count mismatch")
        if self.flavor == "symmetric" and not diag.is_permutation():
            raise ValueError("symmetric flavor: diagram has horizontal strands")
        top, bot, vert = diag.strand_types()
        s = len(top)
        sigma = [0] * self.r
        tau = [0] * self.r
        for k, (i, j) in enumerate(top):
            sigma[i - 1] = 2 * k + 1
            sigma[j - 1] = 2 * k + 2
        for k, (i, j) in enumerate(bot):
            tau[2 * k] = i
            tau[2 * k + 1] = j
        for k, (i, j) in enumerate(vert):
            sigma[i - 1] = 2 * s + k + 1
            tau[2 * s + k] = j
        sign = 1
        if self.flavor == "symplectic":
            sign = perm_sign(sigma) * perm_sign(tau)
        d, r = self.dim, self.r
        # after sigma, place q holds the letter of place source[q]
        source = [0] * r
        for j, q in enumerate(sigma):
            source[q - 1] = j
        weights = [d ** (r - q) for q in tau]
        # the omega part of each row, relabelled by tau: (column, value)
        heads = [(0, sign)]
        omega, pair = self.omega, self.pair_sign
        for k in range(0, 2 * s, 2):
            heads = [(h + a * weights[k] + b * weights[k + 1], c * coeff)
                     for h, c in heads for a, b, coeff in omega]
        if rows is self._orbit_rows:
            letters = self._orbit_letters
        else:
            words = [self.word(i) for i in rows]
            letters = [[w[q] for w in words] for q in range(r)]
        coeffs = [1] * len(rows)
        for k in range(0, 2 * s, 2):
            coeffs = [c * pair[x] if c and x + y == d - 1 else 0
                      for c, x, y in zip(coeffs, letters[source[k]], letters[source[k + 1]])]
        lows = [0] * len(rows)
        for j, weight in zip(source[2 * s:], weights[2 * s:]):
            lows = [low + x * weight for low, x in zip(lows, letters[j])]
        return heads, coeffs, lows

    def check_element(self, a: AlgebraElement) -> None:
        """Raise unless ``a`` has r strands and, for the Brauer flavors, the
        loop parameter of the flavor's specialization."""
        if a.r != self.r:
            raise ValueError("strand count mismatch")
        if self.delta0 is not None and a.delta != self.delta0:
            raise ValueError(
                f"element has delta={a.delta}, representation needs {self.delta0}")


def image_vectors(elements, rep: TensorRep):
    """The images of ``elements`` (``TensorRep.check_element``) on the orbit
    rows of ``rep`` only, which keeps ranks and zero tests (module
    docstring), each flattened to the row vector {i * rep.size + j: value}
    of its entries (i, j); an iterator, which images each element when it
    is read.  Each diagram's ``diagram_columns`` are read once per call and
    kept as its heads and two machine-int arrays over its nonzero rows: the
    base offset i * rep.size + low and the coefficient."""
    rows = rep.orbit_rows()
    bases = [i * rep.size for i in rows]
    images: dict[BrauerDiagram, tuple] = {}
    for a in elements:
        rep.check_element(a)
        vec: dict[int, int] = {}
        for d, c in a.terms.items():
            image = images.get(d)
            if image is None:
                heads, coeffs, lows = rep.diagram_columns(d, rows)
                starts, scales = array("q"), array("q")
                for base, x, low in zip(bases, coeffs, lows):
                    if x:
                        starts.append(base + low)
                        scales.append(x)
                image = images[d] = heads, starts, scales
            heads, starts, scales = image
            for start, x in zip(starts, scales):
                x *= c
                for h, v in heads:
                    key = start + h
                    vec[key] = vec.get(key, 0) + x * v
        yield {k: x for k, x in vec.items() if x}


def image_lines(vectors) -> list[dict[int, int]]:
    """The transpose of the sparse rows ``vectors`` (an iterable, read once,
    so the rows need not all be held): one line per nonzero column,
    {row position: value}.  rank A = rank A^T over any field, and
    ``exactmat.rank`` stops once its pivots number as many as the distinct
    columns, which here is the count of nonzero rows."""
    lines: dict[int, dict[int, int]] = {}
    for g, vec in enumerate(vectors):
        for key, x in vec.items():
            lines.setdefault(key, {})[g] = x
    return list(lines.values())


def image_rank(diagrams, rep: TensorRep, p: int | None = None) -> int:
    """Rank of the span of the images of ``diagrams``, over Q, or over F_p
    when the prime ``p`` is given.  Each image is built and read on
    ``rep.orbit_rows()`` only, which keeps the rank over Z and mod every p
    (module docstring).

    The rank is taken by columns, as in ``image_lines``: ``exactmat.rank`` is
    given one line per nonzero entry (i, j) of the images, {diagram index:
    value}, and its stop rule ends the elimination once the rank reaches
    the number of diagrams with a nonzero image.  The lines are written in
    one pass from each diagram's ``diagram_columns``, and the Q rank
    consumes them."""
    rows, size = rep.orbit_rows(), rep.size
    bases = [i * size for i in rows]
    by_entry: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for g, d in enumerate(diagrams):
        heads, coeffs, lows = rep.diagram_columns(d, rows)
        for base, c, low in zip(bases, coeffs, lows):
            if c:
                base += low
                for h, v in heads:
                    by_entry[base + h][g] = c * v
    lines = list(by_entry.values())
    del by_entry
    return rank(lines, p)
