"""Cellular (Murphy and dual-Murphy) bases of the symmetric group algebras
and the Brauer algebras over the generic ground ring.

Four flavors share one construction:

* ``symmetric`` / ``symmetric-dual``: the tower of symmetric group algebras
  inside the span of permutation diagrams; branching graph = Young's lattice.
* ``brauer-murphy`` / ``brauer-dual-murphy``: the Brauer tower; branching
  graph adds box-removal edges, cell generators acquire a suffix of e's.

Every basis element m_st = d_s* m_lambda d_t is expanded in the diagram
basis, a whole cell (vertex) at a time, the first time that cell is read
(``MurphyBasis.elements``); the expansion is an integer combination of
diagrams whose corank equals the vertex corank, which makes the transition
matrix to the diagram basis block diagonal by corank, each block of
determinant +-1.

So the coefficient of m_(v,s,t) in any element is an integer linear
functional of its diagram coefficients, the same at every loop value.  The
Gram matrices and the matrices of right multiplication (Jucys-Murphy
elements included) on a cell module read only the coefficients of
m_(v,0,t); they are computed as the cell-row functionals phi_(v,0,t)
applied to products, with no expansion over Q(delta).
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product

from . import branching as br
from .branching import Partition, Path, Vertex, conjugate
from .diagrams import AlgebraElement, diagram_mult
from .errors import CapExceeded
from .exactmat import ExactMatrix, inverse_columns
from .matchings import (BrauerDiagram, all_diagrams, all_permutation_diagrams, cycle_perm,
                        perm_inverse, perm_mult, perm_sign, transposition)
from .rings import Poly

# the default cap on r of ``murphy_basis`` (--max-r may raise it)
MAX_R = 6

FLAVORS = {
    "symmetric": (True, False),
    "symmetric-dual": (True, True),
    "brauer-murphy": (False, False),
    "brauer-dual-murphy": (False, True),
}


def _perm_elt(p: tuple[int, ...], r: int, coeff=1) -> AlgebraElement:
    full = tuple(p) + tuple(range(len(p) + 1, r + 1))
    return AlgebraElement.from_perm(full, coeff)


def young_sum(shape: Partition, r: int, signed: bool, delta=None) -> AlgebraElement:
    """The (signed) sum over the Young subgroup S_shape, whose blocks are
    consecutive runs of 1, 2, ..., embedded at width r."""
    blocks, start = [], 1
    for part in shape:
        blocks.append(range(start, start + part))
        start += part
    rest = tuple(range(start, r + 1))
    terms = {}
    for parts in product(*map(permutations, blocks)):
        p = sum(parts, ()) + rest
        terms[BrauerDiagram.from_perm(p)] = perm_sign(p) if signed else 1
    return AlgebraElement(r, terms, delta)


def _box_added(mu: Partition, lam: Partition) -> tuple[int, int]:
    """The (row, col) with lam = mu + box; raises if not an edge."""
    for pos in br.addable_boxes(mu):
        if br.add_box(mu, pos) == lam:
            return pos
    raise ValueError(f"{lam} is not {mu} plus one box")


def sym_branching_factors(mu: Partition, lam: Partition, dual: bool,
                          r: int) -> tuple[AlgebraElement, AlgebraElement]:
    """Branching factor pair (d, u) for the Young-lattice edge mu -> lam in
    the symmetric group algebra, embedded at width r.

    The plain factors are d = s_{a,i} and u = s_{i,a} sum_{k=0}^{mu_j}
    s_{a,a-k}, where the new box sits in row j, a is the number of boxes of
    lam in rows <= j, and i = |lam|.  The dual pair (b, v) is obtained by
    conjugating the edge and applying the sign automorphism, which is what
    makes the compatibility y_lam b = v* y_mu hold on every edge."""
    if dual:
        d, u = sym_branching_factors(conjugate(mu), conjugate(lam), False, r)
        return d.sign_twist(), u.sign_twist()
    i = sum(lam)
    row, _col = _box_added(mu, lam)
    a = sum(lam[:row])
    d = _perm_elt(cycle_perm(a, i, i), r)
    mu_j = mu[row - 1] if row - 1 < len(mu) else 0
    s_ia = perm_inverse(cycle_perm(a, i, i))
    acc = AlgebraElement.zero(r)
    for k in range(mu_j + 1):
        s_a_ak = perm_inverse(cycle_perm(a - k, a, i))
        acc = acc + _perm_elt(perm_mult(s_ia, s_a_ak), r)
    return d, acc


def e_suffix(last: int, l: int, r: int) -> AlgebraElement:
    """The element e_{last}^{(l)} = e_{last-2l+2} e_{last-2l+4} ... e_{last},
    an l-factor product of every-other e generators, at width r."""
    out = AlgebraElement.one(r)
    for m in range(l):
        idx = last - 2 * (l - 1) + 2 * m
        if idx < 1:
            raise ValueError("e suffix index out of range")
        out = out * AlgebraElement.from_diagram(BrauerDiagram.e(idx, r))
    return out


def brauer_cell_generator(v: Vertex, dual: bool, r: int | None = None) -> AlgebraElement:
    """x_{(lam,l)} = x_lam e_{k-1}^{(l)}, k = level, where x_lam is the plain
    sum over the Young subgroup of lam; or, when ``dual``, the y version,
    with y_lam the signed sum over the Young subgroup of the conjugate.
    Only that sum is built, and at l = 0 the e-suffix is the identity."""
    k = v.level
    if r is None:
        r = k
    base = (young_sum(conjugate(v.lam), r, signed=True) if dual
            else young_sum(v.lam, r, signed=False))
    return base * e_suffix(k - 1, v.l, r) if v.l else base


def brauer_branching_factors(a: Vertex, b: Vertex, dual: bool,
                             r: int) -> tuple[AlgebraElement, AlgebraElement]:
    """Branching factor pair (d, u) for the Brauer-graph edge a -> b.

    Box added (corank kept): the symmetric-group factors for the underlying
    Young-lattice edge, lifted to permutation diagrams, times e_{k-1}^{(l)}
    resp. e_k^{(l)}.  Box removed (corank + 1): the roles of d and u swap
    across the reflection, with suffixes e_{k-1}^{(l)} resp. e_k^{(l+1)}."""
    k = a.level
    if b.level != k + 1:
        raise ValueError("not a level-raising edge")
    if b.l == a.l and sum(b.lam) == sum(a.lam) + 1:
        sd, su = sym_branching_factors(a.lam, b.lam, dual, r)
        return sd * e_suffix(k - 1, a.l, r), su * e_suffix(k, a.l, r)
    if b.l == a.l + 1 and sum(b.lam) == sum(a.lam) - 1:
        sd, su = sym_branching_factors(b.lam, a.lam, dual, r)
        return su * e_suffix(k - 1, a.l, r), sd * e_suffix(k, a.l + 1, r)
    raise ValueError(f"not an edge: {a} -> {b}")


@lru_cache(maxsize=None)
def jm_element(i: int, r: int, add_only: bool = False) -> AlgebraElement:
    """Jucys-Murphy element L_i = sum_{j<i} (s_{ji} - e_{ji}); the e part is
    dropped for the symmetric group tower.  L_1 = 0."""
    out = AlgebraElement.zero(r)
    for j in range(1, i):
        out = out + AlgebraElement.from_diagram(
            BrauerDiagram.from_perm(transposition(j, i, r)))
        if not add_only:
            out = out - AlgebraElement.from_diagram(BrauerDiagram.e_pair(j, i, r))
    return out


class MurphyBasis:
    """A full cellular basis of B_r (or of the symmetric group algebra)
    over the generic ground ring, expanded in the diagram basis."""

    def __init__(self, r: int, flavor: str):
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        self.r = r
        self.flavor = flavor
        self.add_only, self.dual = FLAVORS[flavor]

        verts = list(br.vertices_at_level(r, self.add_only))
        verts.sort(key=self._dominance_key)
        self.vertices: list[Vertex] = verts
        self.paths: dict[Vertex, list[Path]] = {
            v: list(br.enumerate_paths(v, self.add_only)) for v in verts}
        self.generators: dict[Vertex, AlgebraElement] = {
            v: brauer_cell_generator(v, self.dual, r) for v in verts}

        self._edge_cache: dict[tuple[Vertex, Vertex], tuple] = {}
        self.d_elements: dict[tuple[Vertex, int], AlgebraElement] = {}
        for v in verts:
            for ti, t in enumerate(self.paths[v]):
                self.d_elements[(v, ti)] = self.path_d(t)

        self.index: list[tuple[Vertex, int, int]] = [
            (v, s, t) for v in verts for s in range(len(self.paths[v]))
            for t in range(len(self.paths[v]))]
        self.elements = CellElements(self)
        self.col_of = {key: i for i, key in enumerate(self.index)}

        if self.add_only:
            self.diagrams = all_permutation_diagrams(r)
        else:
            self.diagrams = all_diagrams(r)
        self.diag_index = {d: i for i, d in enumerate(self.diagrams)}
        if len(self.index) != len(self.diagrams):
            raise ArithmeticError("basis size does not match algebra dimension")
        self._functionals: dict[int, dict[tuple[Vertex, int], dict[int, int]]] = {}
        self._grams: dict[tuple[Vertex, object], ExactMatrix] = {}

    # -- ordering ----------------------------------------------------------

    def _dominance_key(self, v: Vertex):
        lam = conjugate(v.lam) if self.dual else v.lam
        return (-v.l, tuple(-p for p in lam))

    # -- construction helpers ----------------------------------------------

    def edge_factors(self, a: Vertex, b: Vertex) -> tuple[AlgebraElement, AlgebraElement]:
        key = (a, b)
        if key not in self._edge_cache:
            if self.add_only:
                sd, su = sym_branching_factors(a.lam, b.lam, self.dual, self.r)
                self._edge_cache[key] = (sd, su)
            else:
                self._edge_cache[key] = brauer_branching_factors(a, b, self.dual, self.r)
        return self._edge_cache[key]

    def path_d(self, t: Path, delta=None) -> AlgebraElement:
        """d_t, the product of the d factors of the edges of t, last edge
        first; formed at delta = ``delta`` when it is given, else generic."""
        out = AlgebraElement.one(self.r, delta)
        for a, b in reversed(list(zip(t, t[1:]))):
            factor = self.edge_factors(a, b)[0]
            out = out * (factor if delta is None else factor.specialize(delta))
        return out

    def expand_cell(self, v: Vertex) -> dict[tuple[Vertex, int, int], AlgebraElement]:
        """The m_(v,s,t) = (d_s* m_lambda) d_t of the cell of v in the
        diagram basis; raises unless each is an integer diagram sum.  Called
        by ``elements`` on the first read of the cell."""
        gen = self.generators[v]
        n = len(self.paths[v])
        lefts = [self.d_elements[(v, s)].involution() * gen for s in range(n)]
        cell = {}
        for s in range(n):
            for t in range(n):
                elt = cell[(v, s, t)] = lefts[s] * self.d_elements[(v, t)]
                if not all(type(c) is int for c in elt.terms.values()):
                    raise ArithmeticError(
                        f"Murphy element at {v} is not an integer diagram sum")
        return cell

    # -- cell-row functionals -----------------------------------------------

    def cell_functional(self, v: Vertex, t: int) -> dict[int, int]:
        """phi_(v,0,t): the integer weights, over diagram indices, whose dot
        product with an element's diagram coefficients is its coefficient
        of m_(v,0,t), at every loop value.  The functionals of one corank
        block are the columns of the block's inverse at the rows of the
        m_(v,0,t); they are computed together, by one integer elimination of
        the block with a right-hand side for those rows only, and kept."""
        if v.l not in self._functionals:
            self._functionals[v.l] = self._block_functionals(v.l)
        return self._functionals[v.l][(v, t)]

    def _block_functionals(self, corank: int) -> dict[tuple[Vertex, int], dict[int, int]]:
        keys = [key for key in self.index if key[0].l == corank]
        rows = [{self.diag_index[d]: c for d, c in self.elements[key].terms.items()}
                for key in keys]
        wanted = [k for k, (_v, s, _t) in enumerate(keys) if not s]
        try:
            phis = inverse_columns(rows, wanted)
        except ArithmeticError as exc:
            raise ArithmeticError(f"cell functional of corank {corank}: {exc}") from None
        return {(keys[k][0], keys[k][2]): phi for k, phi in zip(wanted, phis)}

    def cell_coefficient(self, v: Vertex, t: int, x: AlgebraElement):
        """The coefficient of m_(v,0,t) in x: phi_(v,0,t) applied to x.  An
        int 0 when it vanishes, a Poly only when it depends on delta."""
        phi = self.cell_functional(v, t)
        index = self.diag_index
        acc: dict = {}   # power of delta -> coefficient
        for d, c in x.terms.items():
            f = phi.get(index[d])
            if not f:
                continue
            if isinstance(c, Poly):
                for e, k in c.coeffs.items():
                    acc[e] = acc.get(e, 0) + f * k
            else:
                acc[0] = acc.get(0, 0) + f * c
        return _poly_or_constant(acc)

    # -- derived data --------------------------------------------------------

    def transition_dets(self) -> dict[int, int]:
        """Determinant of each corank block of the transition matrix from the
        cellular basis to the diagram basis (integer entries)."""
        out = {}
        coranks = sorted({v.l for v in self.vertices})
        for l in coranks:
            cols = [key for key in self.index if key[0].l == l]
            block_diags = [d for d in self.diagrams if d.rank_corank()[1] == l]
            dpos = {d: i for i, d in enumerate(block_diags)}
            mat = []
            for key in cols:
                row = [0] * len(block_diags)
                for d, c in self.elements[key].terms.items():
                    row[dpos[d]] = c
                mat.append(row)
            out[l] = ExactMatrix(mat).det()
        return out

    def cell_action(self, v: Vertex, a: AlgebraElement) -> list[list]:
        """Matrix of right multiplication by a on the cell module of v, in
        the basis {m_t}: row s holds the coefficients of m_s * a."""
        if a.delta is not None:
            raise ValueError("cell_action over the generic ring requires a generic element")
        n = len(self.paths[v])
        out = []
        for s in range(n):
            prod = self.elements[(v, 0, s)] * a
            out.append([self.cell_coefficient(v, t, prod) for t in range(n)])
        return out

    def gram_matrix(self, v: Vertex, delta0=None) -> ExactMatrix:
        """Gram matrix of the bilinear form on the cell module of v: entry
        (s, t) is the coefficient of m_(v,0,0) in m_(v,0,s) m_(v,t,0), over
        the generic ground ring or at delta = delta0.  It is kept, as the
        functionals are; callers must not change it.

        As m_st = d_s* m_lambda d_t and m_lambda* = m_lambda, m_(v,0,s)
        m_(v,t,0) = X (d_s d_t*) X* with X = d_0* m_lambda; phi_(v,0,0) is
        linear, so G(s, t) = sum c psi(D) over the terms c D of d_s d_t*,
        with psi(D) = phi_(v,0,0)(X D X*) formed once per distinct D.  Only
        s <= t is formed: m_(v,s,t)* = m_(v,t,s) gives phi_(v,0,0)(z*) =
        phi_(v,0,0)(z), and * swaps m_(v,0,s) m_(v,t,0) and m_(v,0,t) m_(v,s,0).
        The m_st are integer diagram sums, so the Gram at delta0 is the
        generic one, summed per power of delta, evaluated there."""
        if (v, delta0) in self._grams:
            return self._grams[(v, delta0)]
        n = len(self.paths[v])
        ds = [self.d_elements[(v, s)] for s in range(n)]
        stars = [{(b, 0): c for b, c in d.involution().terms.items()} for d in ds]
        x = ds[0].involution() * self.generators[v]
        x_star = {(b, 0): c for b, c in x.involution().terms.items()}
        phi, index = self.cell_functional(v, 0), self.diag_index
        psi: dict = {}   # D -> power of delta -> coefficient in phi_(v,0,0)(X D X*)
        rows = [[0] * n for _ in range(n)]
        for s, t in combinations_with_replacement(range(n), 2):
            powers: dict = {}
            for (d, e), c in _products(ds[s].terms, stars[t]).items():
                if d not in psi:
                    psi[d] = {}
                    for (z, k), cz in _products(x.terms, _products({d: 1}, x_star)).items():
                        psi[d][k] = psi[d].get(k, 0) + cz * phi.get(index[z], 0)
                for k, f in psi[d].items():
                    powers[e + k] = powers.get(e + k, 0) + c * f
            rows[s][t] = rows[t][s] = (_poly_or_constant(powers) if delta0 is None
                                       else Poly(powers).evaluate(delta0))
        return self._grams.setdefault((v, delta0), ExactMatrix(rows))

    def jm_action(self, i: int, v: Vertex) -> list[list]:
        """Matrix of right multiplication by L_i on the cell module of v."""
        if not 1 <= i <= self.r:
            raise ValueError("JM index out of range")
        return self.cell_action(v, jm_element(i, self.r, self.add_only))

    def basis_json(self) -> list:
        out = []
        for (v, s, t) in self.index:
            out.append({
                "vertex": v.to_json(),
                "s": [w.to_json() for w in self.paths[v][s]],
                "t": [w.to_json() for w in self.paths[v][t]],
                "element": self.elements[(v, s, t)].to_json(),
            })
        return out


class CellElements(Mapping):
    """The basis elements m_(v,s,t) of a ``MurphyBasis``, keyed (v, s, t)
    and iterated in ``index`` order.  A cell is expanded in the diagram
    basis (``MurphyBasis.expand_cell``) the first time one of its keys is
    read, and kept; a reader that needs some cells pays for those only."""

    def __init__(self, basis: MurphyBasis):
        self._basis = basis
        self._cells: dict[tuple[Vertex, int, int], AlgebraElement] = {}

    def __getitem__(self, key):
        elt = self._cells.get(key)
        if elt is None:
            if key not in self._basis.col_of:
                raise KeyError(key)
            self._cells.update(self._basis.expand_cell(key[0]))
            elt = self._cells[key]
        return elt

    def __iter__(self):
        return iter(self._basis.index)

    def __len__(self):
        return len(self._basis.index)


def _products(left: dict, right: dict) -> dict:
    """The terms of left * right: left maps diagrams, right (diagram, power
    of delta) pairs to integers, and the product is keyed as right is."""
    out: dict = {}
    for a, ca in left.items():
        for (b, e), cb in right.items():
            d, loops = diagram_mult(a, b)
            out[d, e + loops] = out.get((d, e + loops), 0) + ca * cb
    return out


def _poly_or_constant(powers: dict):
    """The Poly with these coefficients per power of delta, or its constant
    value (an int 0 when it vanishes) when it does not depend on delta."""
    out = Poly(powers)
    return out if out.degree > 0 else out.constant_value()


@lru_cache(maxsize=None)
def _cached_basis(r: int, flavor: str) -> MurphyBasis:
    return MurphyBasis(r, flavor)


def murphy_basis(r: int, flavor: str, max_r: int | None = None) -> MurphyBasis:
    """Construct (and cache) the cellular basis of the given flavor, for r
    up to the cap ``max_r`` (``MAX_R`` when it is not given)."""
    cap = MAX_R if max_r is None else max_r
    if r > cap:
        raise CapExceeded(f"r={r} exceeds the basis cap {cap}")
    return _cached_basis(r, flavor)


def gram_matrix(v: Vertex, basis: MurphyBasis):
    return basis.gram_matrix(v)


def jm_action(i: int, v: Vertex, basis: MurphyBasis) -> list[list]:
    return basis.jm_action(i, v)
