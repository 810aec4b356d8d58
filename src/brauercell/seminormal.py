"""Gelfand-Zeitlin idempotents on cell modules over Z[delta], seminormal
vectors, and their specialization at the tensor-space loop value.

The idempotent F_t of a path t is built by Lagrange interpolation in the
commuting Jucys-Murphy matrices, level by level along the path:

    F_t = F_{t'} * prod_{s != t, s' = t'} (L_k - kappa_s(k)) / (kappa_t(k) - kappa_s(k)),

everything acting on one cell module.  Every L_k and every content lies in
Z[delta], so F_t = N_t / D_t: the numerator N_t is the product of the
factors L_k - kappa_s(k), a matrix over Z[delta], and the denominator D_t
is the product of the content differences, one nonzero polynomial.  A
quotient is only formed at a specialization delta = delta0.  The seminormal
vector f_t = m_t F_t is row t of F_t; it is unitriangular in the Murphy
basis with respect to dominance of paths and diagonalizes the bilinear
form.
"""

from __future__ import annotations

from itertools import combinations

from . import branching as br
from .branching import Path, Vertex
from .murphy import MurphyBasis
from .rings import Poly

Matrix = list[list]   # entries int or Poly


# Contents of the branching graph's edges, in Z[delta].  They live here, with
# their one reader, so that ``branching`` (which ``dims`` loads) needs no
# coefficient ring.


def box_content(pos: tuple[int, int]) -> int:
    """Column minus row of a box."""
    return pos[1] - pos[0]


def edge_content(a: Vertex, b: Vertex) -> Poly:
    """Content of an edge a -> b of the Brauer branching graph, the
    eigenvalue of the Jucys-Murphy element on it: c(box) when adding,
    1 - delta - c(box) when removing."""
    if sum(b.lam) == sum(a.lam) + 1:
        for pos in br.addable_boxes(a.lam):
            if br.add_box(a.lam, pos) == b.lam:
                return Poly.const(box_content(pos))
    elif sum(b.lam) == sum(a.lam) - 1:
        for pos in br.removable_boxes(a.lam):
            if br.remove_box(a.lam, pos) == b.lam:
                return Poly({0: 1 - box_content(pos), 1: -1})
    raise ValueError(f"not an edge: {a} -> {b}")


def residue_collisions(level: int, delta0, flavor: str, n: int,
                       add_only: bool = False) -> list:
    """Sibling-edge content collisions after specializing delta.

    Returns triples (prefix, b, c) of a permissible path prefix and two
    distinct extensions, at least one permissible, whose edge contents agree
    at delta = delta0.  An empty list is the sufficient condition for the
    specialized Gelfand-Zeitlin idempotents of permissible paths to be
    evaluable."""
    pred = br.PERMISSIBLE[flavor]
    out = []
    for u in br.vertices_at_level(level - 1, add_only):
        if not pred(u, n):
            continue
        for b, c in combinations(br.successors(u, add_only), 2):
            if not (pred(b, n) or pred(c, n)):
                continue
            if edge_content(u, b).evaluate(delta0) == edge_content(u, c).evaluate(delta0):
                out.append((u, b, c))
    return out


def _content(a: Vertex, b: Vertex):
    """kappa of the edge a -> b, as an int when it does not depend on delta."""
    kappa = edge_content(a, b)
    return kappa.constant_value() if kappa.is_constant() else kappa


def _times_shifted(a: Matrix, jm_rows: list[list[tuple]], kappa) -> Matrix:
    """a * (L - kappa), with row k of L given by its nonzero (j, L[k][j])."""
    out = []
    for arow in a:
        orow = [-kappa * x if x else 0 for x in arow]
        for k, x in enumerate(arow):
            if x:
                for j, y in jm_rows[k]:
                    orow[j] = orow[j] + x * y
        out.append(orow)
    return out


def _at(x, x0, k: int):
    """(x / (delta - x0)^k) at delta = x0, for x an int or a Poly over Z:
    k synthetic divisions by the monic delta - x0, which keep the quotient
    integral, then Horner's rule.  None when a division leaves a remainder,
    that is when (delta - x0)^k does not divide x."""
    if not x:
        return 0
    coeffs = ([x.coeffs.get(e, 0) for e in range(x.degree, -1, -1)]
              if isinstance(x, Poly) else [x])
    for _ in range(k):
        acc, quo = 0, []
        for c in coeffs:
            acc = acc * x0 + c
            quo.append(acc)
        if quo.pop():
            return None
        coeffs = quo
    acc = 0
    for c in coeffs:
        acc = acc * x0 + c
    return acc


def cleared_at(num: Matrix, den: Poly, x0) -> tuple[list[list[int]], int] | None:
    """F = num / den at delta = x0 as an integer matrix M and one integer q
    with F(x0) = M / q.  den is divided once by its factor (delta - x0)^k,
    and every entry of num exactly by (delta - x0)^k, before evaluating.
    None when an entry lacks that factor: a pole of F at x0."""
    k = 0
    while (q := _at(den, x0, k)) == 0:
        k += 1
    rows = []
    for row in num:
        out = [_at(x, x0, k) for x in row]
        if None in out:
            return None
        rows.append(out)
    return rows, q


def _dot(x: list[int], y: list[int]) -> int:
    return sum(a * b for a, b in zip(x, y) if a)


def _row_times(x: list[int], mat: list[list[int]]) -> list[int]:
    """The row vector x * mat."""
    out = [0] * len(mat[0])
    for a, row in zip(x, mat):
        if a:
            for j, y in enumerate(row):
                out[j] += a * y
    return out


class SeminormalData:
    """Per-vertex seminormal package over Z[delta]."""

    def __init__(self, basis: MurphyBasis, vertex: Vertex, paths: list[Path],
                 jm_matrices: list[Matrix],
                 idempotents: dict[int, tuple[Matrix, Poly]]):
        self.basis = basis
        self.vertex = vertex
        self.paths = paths
        self.jm_matrices = jm_matrices    # L_1 .. L_r on the cell module
        self.idempotents = idempotents    # path index -> (N_t, D_t)


def gz_idempotents(basis: MurphyBasis, vertex: Vertex) -> SeminormalData:
    """Interpolated Gelfand-Zeitlin idempotents acting on one cell module."""
    paths = basis.paths[vertex]
    n = len(paths)
    jms = [basis.jm_action(i, vertex) for i in range(1, basis.r + 1)]

    # level-by-level interpolation over the prefixes of the module's paths
    level: dict[Path, tuple[Matrix, Poly]] = {
        (br.EMPTY,): ([[int(i == j) for j in range(n)] for i in range(n)], Poly.one())}
    for k in range(1, basis.r + 1):
        jm_rows = [[(j, y) for j, y in enumerate(row) if y] for row in jms[k - 1]]
        cur: dict[Path, tuple[Matrix, Poly]] = {}
        for t in paths:
            p = t[:k + 1]
            if p in cur:
                continue
            num, den = level[p[:-1]]
            kappa_t = _content(p[-2], p[-1])
            for s in br.successors(p[-2], basis.add_only):
                if s != p[-1]:
                    kappa_s = _content(p[-2], s)
                    num = _times_shifted(num, jm_rows, kappa_s)
                    den = den * (kappa_t - kappa_s)
            cur[p] = (num, den)
        level = cur

    idempotents = {ti: level[t] for ti, t in enumerate(paths)}
    return SeminormalData(basis, vertex, list(paths), jms, idempotents)


class QuotientSeminormalRecord:
    """Outcome of specializing one vertex's seminormal data at delta0."""

    def __init__(self, vertex: Vertex, delta0, permissible: list[int]):
        self.vertex = vertex
        self.delta0 = delta0
        self.permissible = permissible
        self.skipped = False
        self.reason = ""
        self.collisions: list = []
        self.checks: list = []   # (name, passed)

    def add(self, name: str, passed: bool) -> None:
        self.checks.append((name, bool(passed)))

    @property
    def passed(self) -> bool:
        return all(ok for _n, ok in self.checks)

    def to_json(self) -> dict:
        return {"vertex": self.vertex.to_json(), "delta0": str(self.delta0),
                "permissible_paths": self.permissible, "skipped": self.skipped,
                "reason": self.reason,
                "collisions": [[v.to_json() for v in c] for c in self.collisions],
                "checks": [{"name": n, "pass": ok} for n, ok in self.checks]}


def quotient_record(vertex: Vertex, paths: list[Path], delta0, flavor: str,
                    n: int) -> QuotientSeminormalRecord:
    """The record of one vertex before any check: the indices of its
    permissible paths, and skipped when the vertex is not permissible, as
    no quotient cell survives there.  It reads the paths alone, so a
    vertex that is not permissible needs no idempotents."""
    record = QuotientSeminormalRecord(vertex, delta0, [
        ti for ti, t in enumerate(paths) if br.path_permissible(t, flavor, n)])
    if not br.PERMISSIBLE[flavor](vertex, n):
        record.skipped = True
        record.reason = "vertex not permissible: no quotient cell survives"
    return record


def specialize_quotient(sd: SeminormalData, delta0, flavor: str,
                        n: int) -> QuotientSeminormalRecord:
    """Verify the quotient seminormal structure at delta = delta0:

    * every permissible F_t = N_t / D_t is evaluable once the factors
      (delta - delta0) common to N_t and D_t are cancelled,
    * the specialized seminormal Gram diagonal is nonzero on the permissible
      paths and pairwise orthogonality survives, with the specialized Murphy
      Gram of rank equal to the permissible path count,
    * the specialized idempotents act as matrix units on the quotient by the
      Gram radical.

    When a permissible F_t fails to be evaluable, the record reports the
    sibling-edge residue collisions responsible (the orthogonal even case)
    and skips the remaining checks instead of failing.

    Every check is an identity over Z.  F_t(delta0) = M_t / q_t with M_t an
    integer matrix and q_t a nonzero integer (``cleared_at``), so f_t, row t
    of F_t, is M_t[t] / q_t.  With G the Gram at delta0, H_t = M_t G^T is
    formed once (entry (a, i) is row a of M_t dotted with row i of G), so
    that x M_t lies in the radical {w : G w^T = 0} iff x H_t = 0, and
    D_t = H_t[t] . M_t[t] = q_t^2 <f_t, f_t>.  A vector lies in the radical
    iff every nonzero multiple of it does, so each rational test below is
    its integer multiple:

    * <f_t, f_t> != 0 iff D_t != 0, and <f_s, f_t> = 0 iff
      H_s[s] . M_t[t] = 0;
    * w F_t is in the radical iff w H_t = 0;
    * f_s F_t - delta_st f_s is in the radical iff M_s[s] H_t = 0 for
      s != t, and M_t[t] H_t = q_t H_t[t];
    * row a of E_tt - F_t, that is (G f_t^T)[a] / <f_t, f_t> f_t - F_t[a],
      times q_t D_t, is q_t H_t[t][a] M_t[t] - D_t M_t[a], which is in the
      radical iff q_t H_t[t][a] H_t[t] = D_t H_t[a]."""
    record = quotient_record(sd.vertex, sd.paths, delta0, flavor, n)
    if record.skipped:
        return record

    perm = record.permissible
    m, q = {}, {}
    for t in perm:
        cleared = cleared_at(*sd.idempotents[t], delta0)
        if cleared is None:
            collisions = []
            for level in range(1, sd.basis.r + 1):
                collisions += residue_collisions(level, delta0, flavor, n,
                                                    sd.basis.add_only)
            record.collisions = collisions
            record.skipped = True
            record.reason = ("interpolation denominators vanish at the "
                             "specialization; residue collisions reported")
            # a non-evaluable permissible idempotent without a residue
            # collision to blame would contradict the quotient seminormal
            # theorem
            record.add("non-evaluable idempotents explained by residue "
                       "collisions", bool(collisions))
            return record
        m[t], q[t] = cleared
    record.add("permissible idempotents evaluable", True)

    gram = sd.basis.gram_matrix(sd.vertex, delta0)
    g0 = gram.rows
    # f_t is row t of F_t, so it is evaluable with F_t
    record.add("permissible seminormal vectors evaluable", True)
    h = {t: [[_dot(row, g) for g in g0] for row in m[t]] for t in perm}

    diag = {t: _dot(m[t][t], h[t][t]) for t in perm}
    record.add("specialized <f_t, f_t> nonzero for permissible t",
               all(diag.values()))
    orthogonal = all(not _dot(m[t][t], h[s][s])
                     for s in perm for t in perm if s != t)
    record.add("specialized <f_s, f_t> zero for s != t", orthogonal)

    record.add("specialized Gram rank = permissible path count",
               gram.rank() == len(perm))

    # matrix units on the quotient by the Gram radical, as honest operators
    # on the specialized module: E_st(w) = <w, f_s> / <f_s, f_s> * f_t.
    if all(diag.values()):
        # the specialized idempotents preserve the radical ...
        rad_basis = gram.kernel()
        record.add("specialized idempotents preserve the Gram radical",
                   not any(any(_row_times(w, h[t])) for t in perm for w in rad_basis))

        # ... and induce the diagonal matrix units on the quotient:
        # f_s F_t = delta_{st} f_s modulo the radical.
        induced_ok = all(
            _row_times(m[s][s], h[t]) == ([q[t] * y for y in h[t][t]] if s == t
                                          else [0] * len(h[t][t]))
            for s in perm for t in perm)
        record.add("specialized F_t induce the diagonal matrix units", induced_ok)

        # The matrix units E_st(w) = <w, f_s> / <f_s, f_s> * f_t compose as
        # w E_st E_uv = <w, f_s> / <f_s, f_s> * <f_t, f_u> / <f_u, f_u> * f_v,
        # that is E_st E_uv = <f_t, f_u> / <f_u, f_u> * E_sv.  Every
        # <f_t, f_t> is nonzero here, so f_s, f_v and w -> <w, f_s> are all
        # nonzero and E_sv != 0.  Hence the law E_st E_uv = delta_tu E_sv holds
        # for all s, t, u, v iff <f_t, f_u> = 0 for t != u: the orthogonality
        # checked above.
        record.add("quotient matrix-unit law", orthogonal)

        # E_tt agrees with the specialized idempotent modulo the radical:
        # row a of E_tt is <e_a, f_t> / <f_t, f_t> * f_t
        agree = all([q[t] * h[t][t][a] * y for y in h[t][t]]
                    == [diag[t] * y for y in h[t][a]]
                    for t in perm for a in range(len(g0)))
        record.add("E_tt = specialized F_t modulo the radical", agree)
    return record
