"""Cellular (Murphy and dual-Murphy) bases of the symmetric group algebras
and the Brauer algebras over the generic ground ring.

Four flavors share one construction:

* ``symmetric`` / ``symmetric-dual``: the tower of symmetric group algebras
  inside the span of permutation diagrams; branching graph = Young's lattice.
* ``brauer-murphy`` / ``brauer-dual-murphy``: the Brauer tower; branching
  graph adds box-removal edges, cell generators acquire a suffix of e's.

Every basis element m_st = d_s* m_lambda d_t is expanded in the diagram
basis at construction time; the expansion is an integer combination of
diagrams whose corank equals the vertex corank, which makes the transition
matrix to the diagram basis block diagonal by corank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import branching as br
from .branching import Partition, Path, Vertex, conjugate
from .diagrams import (AlgebraElement, BrauerDiagram, all_diagrams,
                       all_permutation_diagrams, cycle_perm, perm_inverse,
                       transposition, young_subgroup_sum)
from .errors import CapExceeded
from .exactmat import ExactMatrix, LinearSolver

FLAVORS = {
    "symmetric": (True, False),
    "symmetric-dual": (True, True),
    "brauer-murphy": (False, False),
    "brauer-dual-murphy": (False, True),
}


def _perm_elt(p: tuple[int, ...], r: int, coeff=1) -> AlgebraElement:
    full = tuple(p) + tuple(range(len(p) + 1, r + 1))
    return AlgebraElement.from_perm(full, coeff)


def sym_cell_generators(lam: Partition, r: int) -> tuple[AlgebraElement, AlgebraElement]:
    """x_lam (plain sum over the Young subgroup of lam) and y_lam (signed sum
    over the Young subgroup of the conjugate), embedded at width r."""
    return (young_sum(lam, r, signed=False),
            young_sum(conjugate(lam), r, signed=True))


def young_sum(shape: Partition, r: int, signed: bool, delta=None) -> AlgebraElement:
    """The (signed) sum over the Young subgroup S_shape, whose blocks are
    consecutive runs of 1, 2, ..., embedded at width r."""
    blocks, start = [], 1
    for part in shape:
        blocks.append(list(range(start, start + part)))
        start += part
    return young_subgroup_sum(blocks, r, signed=signed, delta=delta)


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
        acc = acc + _perm_elt(perm_mult_full(s_ia, s_a_ak), r)
    return d, acc


def perm_mult_full(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    n = max(len(p), len(q))
    p = tuple(p) + tuple(range(len(p) + 1, n + 1))
    q = tuple(q) + tuple(range(len(q) + 1, n + 1))
    return tuple(q[p[i] - 1] for i in range(n))


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
    """x_{(lam,l)} = x_lam e_{k-1}^{(l)} (or the y version), k = level."""
    k = v.level
    if r is None:
        r = k
    x, y = sym_cell_generators(v.lam, r)
    base = y if dual else x
    return base * e_suffix(k - 1, v.l, r)


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


@dataclass(frozen=True)
class CellDatum:
    """Per-vertex cell data: the generator, the ordered path list, and the
    (d, u) branching factor pair for every edge used by those paths."""

    flavor: str
    vertex: Vertex
    generator: AlgebraElement
    paths: tuple[Path, ...]
    edge_factors: dict


class MurphyBasis:
    """A full cellular basis of B_r (or of the symmetric group algebra)
    over the generic ground ring, expanded in the diagram basis."""

    MAX_R = 6

    def __init__(self, r: int, flavor: str, max_r: int | None = None):
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {flavor!r}")
        cap = self.MAX_R if max_r is None else max_r
        if r > cap:
            raise CapExceeded(f"r={r} exceeds the basis cap {cap}")
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
                self.d_elements[(v, ti)] = self._path_d(t)

        self.index: list[tuple[Vertex, int, int]] = []
        self.elements: dict[tuple[Vertex, int, int], AlgebraElement] = {}
        for v in verts:
            gen = self.generators[v]
            n = len(self.paths[v])
            lefts = [self.d_elements[(v, s)].involution() * gen for s in range(n)]
            for s in range(n):
                for t in range(n):
                    elt = lefts[s] * self.d_elements[(v, t)]
                    if not elt.has_integer_coeffs():
                        raise ArithmeticError(
                            f"Murphy element at {v} is not an integer diagram sum")
                    self.elements[(v, s, t)] = elt.as_integer()
                    self.index.append((v, s, t))
        self.col_of = {key: i for i, key in enumerate(self.index)}

        if self.add_only:
            self.diagrams = all_permutation_diagrams(r)
        else:
            self.diagrams = all_diagrams(r)
        self.diag_index = {d: i for i, d in enumerate(self.diagrams)}
        if len(self.index) != len(self.diagrams):
            raise ArithmeticError("basis size does not match algebra dimension")
        self._solvers: dict[int, LinearSolver] = {}
        self._block_cols: dict[int, list[int]] = {}

    # -- ordering ----------------------------------------------------------

    def _dominance_key(self, v: Vertex):
        lam = conjugate(v.lam) if self.dual else v.lam
        return (-v.l, tuple(-p for p in lam))

    def dominates(self, a: Vertex, b: Vertex) -> bool:
        return br.vertex_dominates(a, b, self.dual)

    def strictly_dominates(self, a: Vertex, b: Vertex) -> bool:
        return br.vertex_strictly_dominates(a, b, self.dual)

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

    def _path_d(self, t: Path) -> AlgebraElement:
        out = AlgebraElement.one(self.r)
        for a, b in reversed(list(zip(t, t[1:]))):
            out = out * self.edge_factors(a, b)[0]
        return out

    def u_element(self, t: Path) -> AlgebraElement:
        out = AlgebraElement.one(self.r)
        for a, b in zip(t, t[1:]):
            out = out * self.edge_factors(a, b)[1]
        return out

    # -- expansion in the basis ---------------------------------------------

    def _solver(self, corank: int) -> LinearSolver:
        if corank not in self._solvers:
            cols = [i for i, (v, _s, _t) in enumerate(self.index) if (v.l == corank)]
            rows = []
            for i in cols:
                elt = self.elements[self.index[i]]
                rows.append({self.diag_index[d]: c for d, c in elt.terms.items()})
            self._solvers[corank] = LinearSolver(rows)
            self._block_cols[corank] = cols
        return self._solvers[corank]

    def expand(self, a: AlgebraElement) -> list:
        """Coefficients of a in the cellular basis, aligned with .index."""
        if a.r != self.r:
            raise ValueError("strand count mismatch")
        by_corank: dict[int, dict] = {}
        for d, c in a.terms.items():
            by_corank.setdefault(d.rank_corank()[1], {})[self.diag_index[d]] = c
        out = [0] * len(self.index)
        for corank, vec in by_corank.items():
            solver = self._solver(corank)
            coeffs = solver.solve(vec)
            for pos, c in zip(self._block_cols[corank], coeffs):
                if c != 0:
                    out[pos] = c
        return out

    def expand_map(self, a: AlgebraElement) -> dict:
        coeffs = self.expand(a)
        return {self.index[i]: c for i, c in enumerate(coeffs) if c != 0}

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
            coeffs = self.expand_map(prod)
            out.append([coeffs.get((v, 0, t), 0) for t in range(n)])
        return out

    def gram_matrix(self, v: Vertex) -> ExactMatrix:
        """Gram matrix of the bilinear form on the cell module of v, over the
        generic ground ring."""
        n = len(self.paths[v])
        rights = [self.elements[(v, t, 0)] for t in range(n)]
        rows = []
        for s in range(n):
            left = self.elements[(v, 0, s)]
            row = []
            for t in range(n):
                coeffs = self.expand_map(left * rights[t])
                row.append(coeffs.get((v, 0, 0), 0))
            rows.append(row)
        return ExactMatrix(rows)

    def jm_action(self, i: int, v: Vertex) -> list[list]:
        """Matrix of right multiplication by L_i on the cell module of v."""
        if not 1 <= i <= self.r:
            raise ValueError("JM index out of range")
        return self.cell_action(v, jm_element(i, self.r, self.add_only))

    def cell_datum(self, v: Vertex) -> CellDatum:
        """The cell data attached to one vertex."""
        factors = {}
        for t in self.paths[v]:
            for a, b in zip(t, t[1:]):
                if (a, b) not in factors:
                    factors[(a, b)] = self.edge_factors(a, b)
        return CellDatum(self.flavor, v, self.generators[v],
                         tuple(self.paths[v]), factors)

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


@lru_cache(maxsize=None)
def _cached_basis(r: int, flavor: str) -> MurphyBasis:
    return MurphyBasis(r, flavor, max_r=max(r, MurphyBasis.MAX_R))


def murphy_basis(r: int, flavor: str, max_r: int | None = None) -> MurphyBasis:
    """Construct (and cache) the cellular basis of the given flavor."""
    cap = MurphyBasis.MAX_R if max_r is None else max_r
    if r > cap:
        raise CapExceeded(f"r={r} exceeds the basis cap {cap}")
    return _cached_basis(r, flavor)


def gram_matrix(v: Vertex, basis: MurphyBasis):
    return basis.gram_matrix(v)


def jm_action(i: int, v: Vertex, basis: MurphyBasis) -> list[list]:
    return basis.jm_action(i, v)
