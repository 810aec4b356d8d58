"""Exact matrix representations of the Brauer algebra on symplectic and
orthogonal tensor space, the place-permutation action of the symmetric
group, and the Pfaffian/minor functionals attached to diagrams.

Conventions (pinned by tests):

* symplectic: V of dimension 2N with the Darboux pairing
  <v_i, v_{2N+1-i}> = 1 for i <= N, = -1 for i > N; e_i acts by E_i and
  s_i by -S_i; loop parameter -2N.
* orthogonal: V of dimension N with (v_i, v_j) = [j = N+1-i]; e_i -> E_i,
  s_i -> S_i; loop parameter N.
* permutation: the unsigned place-permutation action of the symmetric
  group on (Z^N)^{tensor r}; diagrams must be permutations.

Matrices act on row vectors from the right, so rep(ab) = rep(a) rep(b).
All matrices are sparse dicts of integer entries.

Orbit rows.  Every rank and zero test on images reads only the rows of
``TensorRep.orbit_rows()``: one word per orbit of the letter group H acting
on the words of length r over the letters {0..d-1} of V (d = dim V).  For
the symplectic and orthogonal flavors H is the group of permutations of the
letters that commute with iota(x) = d-1-x (they permute the pairs
{x, iota(x)} and may swap the two ends of a pair); for the permutation
flavor H is all of S_N.  Reading the orbit rows alone is exact:

1. Each pi in H lifts to a signed permutation matrix g_pi, v_x -> eps_x
   v_pi(x), in O(V), Sp(V) or S_N.  Orthogonal and permutation: every
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

import itertools
from array import array

from .diagrams import AlgebraElement, BrauerDiagram, perm_sign
from .errors import CapExceeded
from .exactmat import rank_modp, sparse_rank_q


class SparseMat:
    """Sparse integer (or rational) matrix: rows[i] = {j: value}."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows=None):
        self.n = n
        self.rows: dict[int, dict[int, int]] = rows if rows is not None else {}

    def add(self, i: int, j: int, v) -> None:
        if v == 0:
            return
        row = self.rows.setdefault(i, {})
        w = row.get(j, 0) + v
        if w == 0:
            row.pop(j, None)
            if not row:
                self.rows.pop(i, None)
        else:
            row[j] = w

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def to_vector(self) -> dict[int, int]:
        """Flatten to a sparse row vector of length n*n."""
        out = {}
        for i, row in self.rows.items():
            base = i * self.n
            for j, v in row.items():
                out[base + j] = v
        return out

    def __eq__(self, other):
        return isinstance(other, SparseMat) and self.n == other.n and self.rows == other.rows

    def __repr__(self):
        return f"SparseMat({self.n}, nnz={self.nnz()})"


class BilinearStructure:
    """The pairing table and dual basis data for one flavor."""

    def __init__(self, flavor: str, n: int):
        if flavor not in ("symplectic", "orthogonal"):
            raise ValueError(f"no bilinear structure for flavor {flavor!r}")
        self.flavor = flavor
        self.n = n
        self.dim = 2 * n if flavor == "symplectic" else n

    def pair(self, i: int, j: int) -> int:
        """[v_i, v_j] for 0-indexed basis vectors."""
        d = self.dim
        if i + j != d - 1:
            return 0
        if self.flavor == "orthogonal":
            return 1
        return 1 if i < self.n else -1

    def omega(self) -> list[tuple[int, int, int]]:
        """omega = sum_i v_i^* tensor v_i as triples (a, b, coeff): the
        component on v_a tensor v_b."""
        d = self.dim
        out = []
        for b in range(d):
            a = d - 1 - b
            coeff = 1
            if self.flavor == "symplectic" and b >= self.n:
                coeff = -1
            out.append((a, b, coeff))
        return out


class TensorRep:
    """The representation of B_r (or the symmetric group) on V^{tensor r}."""

    def __init__(self, flavor: str, n: int, r: int, max_tensor_dim: int = 65536):
        if flavor not in ("symplectic", "orthogonal", "permutation"):
            raise ValueError(f"unknown flavor {flavor!r}")
        self.flavor = flavor
        self.n = n
        self.r = r
        if flavor == "symplectic":
            self.dim = 2 * n
            self.epsilon = -1
            self.delta0 = -2 * n
            self.form = BilinearStructure("symplectic", n)
        elif flavor == "orthogonal":
            self.dim = n
            self.epsilon = 1
            self.delta0 = n
            self.form = BilinearStructure("orthogonal", n)
        else:
            self.dim = n
            self.epsilon = 1
            self.delta0 = None
            self.form = None
        self.size = self.dim ** r
        if self.size > max_tensor_dim:
            raise CapExceeded(
                f"tensor dimension {self.dim}^{r} exceeds the cap {max_tensor_dim}")
        self._orbit_rows: tuple[int, ...] | None = None

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
        fixed.  Permutation: the letters are renumbered in order of first
        occurrence.  So the fixed words are built letter by letter: after k
        classes have been used, a word continues with a letter of those
        classes (or the middle letter) or with the next new one, k."""
        if self._orbit_rows is None:
            d = self.dim
            if self.form is None:
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
            self._orbit_rows = tuple(sorted(self.idx(w) for w, _ in level))
        return self._orbit_rows

    # -- place permutations ---------------------------------------------------

    def place_matrix(self, pi: tuple[int, ...]) -> SparseMat:
        """Unsigned place permutation: the factor in place j moves to place
        pi(j), so its digit weight becomes dim^(r - pi(j))."""
        weights = [self.dim ** (self.r - p) for p in pi]
        return SparseMat(self.size, {i: {sum(map(int.__mul__, self.word(i), weights)): 1}
                                     for i in range(self.size)})

    # -- representation of diagrams ------------------------------------------

    def rep_diagram(self, diag: BrauerDiagram, rows=None) -> SparseMat:
        """Image of a diagram via a generator-product factorization
        D = P(sigma) (e_1 e_3 ... e_{2s-1}) P(tau), built on the word
        indices in ``rows`` only (all rows when ``rows`` is None).  Each
        word is moved by sigma; the rows of E_1 E_3 ... E_{2s-1} contract
        places (1, 2), ..., (2s-1, 2s) with the form and put omega there;
        tau relabels the columns."""
        if diag.r != self.r:
            raise ValueError("strand count mismatch")
        if self.flavor == "permutation" and not diag.is_permutation():
            raise ValueError("permutation flavor: diagram has horizontal strands")
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
        if s:
            omega = self.form.omega()
            pair = [self.form.pair(x, d - 1 - x) for x in range(d)]
        for k in range(0, 2 * s, 2):
            heads = [(h + a * weights[k] + b * weights[k + 1], c * coeff)
                     for h, c in heads for a, b, coeff in omega]
        low_source, low_weights = source[2 * s:], weights[2 * s:]
        words = (enumerate(itertools.product(range(d), repeat=r)) if rows is None
                 else ((i, self.word(i)) for i in rows))
        out = SparseMat(self.size)
        for i, w in words:
            c = 1
            for k in range(0, 2 * s, 2):
                x = w[source[k]]
                if x + w[source[k + 1]] != d - 1:
                    break
                c *= pair[x]
            else:
                low = sum(w[j] * x for j, x in zip(low_source, low_weights))
                out.rows[i] = {h + low: c * v for h, v in heads}
        return out

    def rep_diagram_closed_form(self, diag: BrauerDiagram) -> SparseMat:
        """Image of a diagram straight from the strand structure: top
        horizontal strands contract with the form, bottom ones insert omega,
        vertical ones place-permute; the symplectic case carries the global
        sign (-1)^{length}."""
        if diag.r != self.r:
            raise ValueError("strand count mismatch")
        if self.flavor == "permutation":
            if not diag.is_permutation():
                raise ValueError("permutation flavor: diagram has horizontal strands")
            return self.place_matrix(diag.to_perm())
        top, bot, vert = diag.strand_types()
        d = self.dim
        sign = (-1) ** diag.length() if self.flavor == "symplectic" else 1
        omega = self.form.omega()
        m = SparseMat(self.size)
        for tchoice in itertools.product(range(d), repeat=len(top)):
            cin = sign
            in_word = [0] * self.r
            for (i, j), x in zip(top, tchoice):
                y = d - 1 - x
                c = self.form.pair(x, y)
                if c == 0:
                    cin = 0
                    break
                cin *= c
                in_word[i - 1] = x
                in_word[j - 1] = y
            if cin == 0:
                continue
            for vchoice in itertools.product(range(d), repeat=len(vert)):
                for (i, _j), x in zip(vert, vchoice):
                    in_word[i - 1] = x
                row = self.idx(tuple(in_word))
                out_word = [0] * self.r
                for (_i, j), x in zip(vert, vchoice):
                    out_word[j - 1] = x
                for bchoice in itertools.product(range(len(omega)), repeat=len(bot)):
                    cout = cin
                    for (i, j), k in zip(bot, bchoice):
                        a, b, coeff = omega[k]
                        out_word[i - 1] = a
                        out_word[j - 1] = b
                        cout *= coeff
                    m.add(row, self.idx(tuple(out_word)), cout)
        return m

    def check_element(self, a: AlgebraElement) -> None:
        """Raise unless ``a`` has r strands and, for the Brauer flavors, the
        loop parameter of the flavor's specialization."""
        if a.r != self.r:
            raise ValueError("strand count mismatch")
        if self.delta0 is not None and a.delta != self.delta0:
            raise ValueError(
                f"element has delta={a.delta}, representation needs {self.delta0}")

    def rep_element(self, a: AlgebraElement, rows=None) -> SparseMat:
        """Image of an algebra element (``check_element``), built on the
        word indices in ``rows`` only (all rows when ``rows`` is None)."""
        self.check_element(a)
        out = SparseMat(self.size)
        for diag, c in a.terms.items():
            for i, row in self.rep_diagram(diag, rows).rows.items():
                for j, v in row.items():
                    out.add(i, j, c * v)
        return out


def image_vectors(elements, rep: TensorRep) -> list[dict[int, int]]:
    """The images of ``elements`` (``TensorRep.check_element``) on the orbit
    rows of ``rep`` only, which keeps ranks and zero tests (module
    docstring), each flattened as by ``SparseMat.to_vector``.  Each
    diagram's image is built once per call and kept as three machine-int
    arrays: row position, column and value."""
    rows = rep.orbit_rows()
    starts = [i * rep.size for i in rows]
    images: dict[BrauerDiagram, tuple] = {}
    out = []
    for a in elements:
        rep.check_element(a)
        vec: dict[int, int] = {}
        for d, c in a.terms.items():
            image = images.get(d)
            if image is None:
                m = rep.rep_diagram(d, rows).rows
                entries = [(k, j, x) for k, i in enumerate(rows)
                           for j, x in m.get(i, {}).items()]
                image = images[d] = tuple(array("q", column) for column in zip(*entries))
            for k, j, x in zip(*image):
                key = starts[k] + j
                vec[key] = vec.get(key, 0) + c * x
        out.append({k: x for k, x in vec.items() if x})
    return out


def image_rank(generators, rep: TensorRep, field="Q") -> int:
    """Rank of the span of the vectorized images of the given elements,
    over Q or over F_p (field = ("Fp", p)).  Each image is built and read
    on ``rep.orbit_rows()`` only, which keeps the rank over Z and mod every
    p (module docstring)."""
    rows = rep.orbit_rows()
    vecs = [rep.rep_element(a, rows=rows).to_vector() for a in generators]
    if field == "Q":
        return sparse_rank_q(vecs)
    name, p = field
    if name != "Fp":
        raise ValueError(f"unknown field {field!r}")
    return rank_modp(vecs, p)


# -- Pfaffian and determinant functionals -------------------------------------


def pfaffian_interleaved(a: list[list]) -> int:
    """Pfaffian of a skew-symmetric matrix by first-row expansion, in the
    interleaved (i_1 j_1 i_2 j_2 ...) vertex-ordering convention, so that
    Pf([[0, x], [-x, 0]]) = x and the 4x4 value is a12 a34 - a13 a24 + a14 a23."""
    n = len(a)
    if n % 2:
        raise ValueError("Pfaffian needs even size")
    if n == 0:
        return 1

    def rec(rows: tuple[int, ...]):
        if not rows:
            return 1
        i = rows[0]
        rest = rows[1:]
        total = 0
        for k, j in enumerate(rest):
            v = a[i][j]
            if v:
                sub = rest[:k] + rest[k + 1:]
                total += (-1) ** k * v * rec(sub)
        return total

    return rec(tuple(range(n)))


def pfaffian_recursive(a: list[list]) -> int:
    """Pfaffian in the rows-then-columns (h_1..h_r k_1..k_r) vertex-ordering
    convention realized by the diagram signs sgn(sigma_D); it differs from
    the interleaved convention by the shuffle sign (-1)^{r(r-1)/2}."""
    r = len(a) // 2
    shuffle = -1 if (r * (r - 1) // 2) % 2 else 1
    return shuffle * pfaffian_interleaved(a)


def pfaffian_diagram_sum(a: list[list]) -> int:
    """Pfaffian as the signed sum over Brauer diagrams: sum_D sgn(sigma_D)
    prod_{(i,j) in D} a[i][j] (1-indexed strands over 2r points)."""
    from .diagrams import all_diagrams
    n = len(a)
    if n % 2:
        raise ValueError("Pfaffian needs even size")
    r = n // 2
    total = 0
    for diag in all_diagrams(r):
        term = diag.sign()
        for i, j in diag.pairs:
            term *= a[i - 1][j - 1]
            if term == 0:
                break
        total += term
    return total


def pfaffian_functional(r: int, n: int, xs: list[int]) -> int:
    """Signed diagram sum of symplectic pairings over 2r basis-vector
    indices (0-indexed into the 2N-dimensional Darboux basis)."""
    if len(xs) != 2 * r:
        raise ValueError("need 2r vector indices")
    form = BilinearStructure("symplectic", n)
    a = [[form.pair(xs[i], xs[j]) if i != j else 0 for j in range(2 * r)]
         for i in range(2 * r)]
    for i in range(2 * r):
        for j in range(i):
            a[i][j] = -a[j][i]
    return pfaffian_diagram_sum(a)


def walled_det_sum(a: int, b: int, w: list[list]) -> int:
    """Signed sum over (a,b)-walled diagrams of prod_{(i,j) in D} w[i][j],
    for a symmetric 2r x 2r value table (r = a + b).  Equals the determinant
    of the r x r matrix (x_i, y_j) under the standard reindexing."""
    from .diagrams import all_diagrams, walled_filter
    r = a + b
    total = 0
    for diag in all_diagrams(r):
        ok, sign = walled_filter(a, b, diag)
        if not ok:
            continue
        term = sign
        for i, j in diag.pairs:
            term *= w[i - 1][j - 1]
            if term == 0:
                break
        total += term
    return total


def walled_det_matrix(a: int, b: int, w: list[list]) -> list[list]:
    """The r x r matrix (x_i, y_j) built from the 2r-point value table by the
    reindexing x = (w_1..w_a, w_{r+a+1}..w_{2r}), y = (w_{r+1}..w_{r+a},
    w_{a+1}..w_r)."""
    r = a + b
    xi = list(range(a)) + list(range(r + a, 2 * r))
    yi = list(range(r, r + a)) + list(range(a, r))
    return [[w[xi[i]][yi[j]] for j in range(r)] for i in range(r)]
