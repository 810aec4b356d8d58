"""Gelfand-Zeitlin idempotents on cell modules over the rational function
field, seminormal vectors, and their specialization at the tensor-space
loop value.

The idempotent F_t of a path t is built by Lagrange interpolation in the
commuting Jucys-Murphy matrices, level by level along the path:

    F_t = F_{t'} * prod_{s != t, s' = t'} (L_k - kappa_s(k)) / (kappa_t(k) - kappa_s(k)),

everything acting on one cell module.  The seminormal vector is
f_t = m_t F_t, which is unitriangular in the Murphy basis with respect to
dominance of paths and diagonalizes the bilinear form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import branching as br
from .branching import Path, Vertex
from .murphy import MurphyBasis
from .rings import RatFunc, as_ratfunc

Matrix = list[list]


def _mat_identity(n: int) -> Matrix:
    return [[RatFunc.one() if i == j else RatFunc.zero() for j in range(n)]
            for i in range(n)]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    m = len(b[0]) if b else 0
    out = [[RatFunc.zero() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for k, v in enumerate(arow):
            if v.is_zero:
                continue
            brow = b[k]
            for j in range(m):
                if not brow[j].is_zero:
                    orow[j] = orow[j] + v * brow[j]
    return out


def _mat_lift(rows) -> Matrix:
    return [[as_ratfunc(x) for x in row] for row in rows]


def _mat_shift(a: Matrix, c: RatFunc) -> Matrix:
    """a - c * identity."""
    n = len(a)
    return [[a[i][j] - c if i == j else a[i][j] for j in range(n)] for i in range(n)]


def _mat_scale(a: Matrix, c: RatFunc) -> Matrix:
    return [[x * c for x in row] for row in a]


@dataclass
class SeminormalData:
    """Per-vertex seminormal package over the rational function field."""

    basis: MurphyBasis
    vertex: Vertex
    paths: list[Path]
    jm_matrices: list[Matrix]               # L_1 .. L_r on the cell module
    idempotents: dict[int, Matrix]          # path index -> F_t
    vectors: dict[int, list[RatFunc]]       # path index -> f_t (Murphy coords)
    gram: Matrix                            # Murphy-basis Gram, lifted
    gram_f: dict[int, RatFunc]              # <f_t, f_t>

    def form(self, x: list[RatFunc], y: list[RatFunc]) -> RatFunc:
        n = len(x)
        out = RatFunc.zero()
        for i in range(n):
            if x[i].is_zero:
                continue
            for j in range(n):
                if not self.gram[i][j].is_zero and not y[j].is_zero:
                    out = out + x[i] * self.gram[i][j] * y[j]
        return out


def gz_idempotents(basis: MurphyBasis, vertex: Vertex) -> SeminormalData:
    """Interpolated Gelfand-Zeitlin idempotents acting on one cell module."""
    paths = basis.paths[vertex]
    n = len(paths)
    r = basis.r
    jms = [_mat_lift(basis.jm_action(i, vertex)) for i in range(1, r + 1)]

    # level-by-level interpolation over the prefixes of the module's paths
    level_maps: list[dict[Path, Matrix]] = [{(br.EMPTY,): _mat_identity(n)}]
    for k in range(1, r + 1):
        prefixes = {}
        for t in paths:
            prefixes.setdefault(t[:k + 1], None)
        jm_k = jms[k - 1]
        cur: dict[Path, Matrix] = {}
        for p in prefixes:
            parent = p[:-1]
            fmat = level_maps[-1].get(parent)
            if fmat is None:
                continue
            target = p[-1]
            kappa_t = as_ratfunc(br.edge_content(p[-2], target))
            mat = fmat
            siblings = (br.young_edges(p[-2]) if basis.add_only
                        else br.brauer_edges(p[-2]))
            for s in siblings:
                if s == target:
                    continue
                kappa_s = as_ratfunc(br.edge_content(p[-2], s))
                factor = _mat_scale(_mat_shift(jm_k, kappa_s),
                                    RatFunc.one() / (kappa_t - kappa_s))
                mat = _mat_mul(mat, factor)
            cur[p] = mat
        level_maps.append(cur)

    idempotents = {ti: level_maps[-1][t] for ti, t in enumerate(paths)}
    gram = _mat_lift(basis.gram_matrix(vertex).rows)
    vectors = {}
    gram_f = {}
    data = SeminormalData(basis, vertex, list(paths), jms, idempotents,
                          vectors, gram, gram_f)
    for ti in range(n):
        vectors[ti] = list(idempotents[ti][ti])
    for ti in range(n):
        gram_f[ti] = data.form(vectors[ti], vectors[ti])
    return data


def jm_seminormal_check(sd: SeminormalData) -> bool:
    """f_t L_i = kappa_t(i) f_t for every path t and JM index i."""
    for ti, t in enumerate(sd.paths):
        contents = br.sn_contents(t)
        f = sd.vectors[ti]
        for i in range(1, sd.basis.r + 1):
            jm = sd.jm_matrices[i - 1]
            kappa = as_ratfunc(contents[i - 1])
            got = [RatFunc.zero() for _ in f]
            for a, va in enumerate(f):
                if va.is_zero:
                    continue
                for b in range(len(f)):
                    if not jm[a][b].is_zero:
                        got[b] = got[b] + va * jm[a][b]
            if any(got[b] != kappa * f[b] for b in range(len(f))):
                return False
    return True


@dataclass
class QuotientSeminormalRecord:
    """Outcome of specializing one vertex's seminormal data at delta0."""

    vertex: Vertex
    delta0: object
    permissible: list[int]
    skipped: bool = False
    reason: str = ""
    collisions: list = field(default_factory=list)
    checks: list = field(default_factory=list)   # (name, passed)

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


def specialize_quotient(sd: SeminormalData, delta0, flavor: str,
                        n: int) -> QuotientSeminormalRecord:
    """Verify the quotient seminormal structure at delta = delta0:

    * every permissible F_t is evaluable (after reduction),
    * the specialized seminormal Gram diagonal is nonzero on the permissible
      paths and pairwise orthogonality survives, with the specialized Murphy
      Gram of rank equal to the permissible path count,
    * the specialized idempotents act as matrix units on the quotient by the
      Gram radical.

    When a permissible F_t fails to be evaluable, the record reports the
    sibling-edge residue collisions responsible (the orthogonal even case)
    and skips the remaining checks instead of failing."""
    pred = br.PERMISSIBLE[flavor]
    npaths = len(sd.paths)
    record = QuotientSeminormalRecord(sd.vertex, delta0, [
        ti for ti, t in enumerate(sd.paths) if all(pred(v, n) for v in t)])
    if not pred(sd.vertex, n):
        record.skipped = True
        record.reason = "vertex not permissible: no quotient cell survives"
        return record

    evaluable = {}
    for ti in record.permissible:
        mat = sd.idempotents[ti]
        ev = [[x.evaluate(delta0) for x in row] for row in mat]
        if any(v is None for row in ev for v in row):
            evaluable[ti] = None
        else:
            evaluable[ti] = ev
    if any(v is None for v in evaluable.values()):
        collisions = []
        for level in range(1, sd.basis.r + 1):
            collisions += br.residue_collisions(level, delta0, flavor, n,
                                                sd.basis.add_only)
        record.collisions = collisions
        record.skipped = True
        record.reason = ("interpolation denominators vanish at the "
                         "specialization; residue collisions reported")
        # a non-evaluable permissible idempotent without a residue collision
        # to blame would contradict the quotient seminormal theorem
        record.add("non-evaluable idempotents explained by residue collisions",
                   bool(collisions))
        return record
    record.add("permissible idempotents evaluable", True)

    g0 = [[x.evaluate(delta0) for x in row] for row in sd.gram]
    if any(v is None for row in g0 for v in row):
        raise ArithmeticError(f"Murphy Gram at {sd.vertex} has a pole at {delta0}")
    f0 = {}
    ok = True
    for ti in record.permissible:
        fv = [x.evaluate(delta0) for x in sd.vectors[ti]]
        ok &= all(v is not None for v in fv)
        f0[ti] = fv
    record.add("permissible seminormal vectors evaluable", ok)

    def form0(x, y):
        return sum(x[i] * g0[i][j] * y[j]
                   for i in range(npaths) for j in range(npaths))

    diag = {ti: form0(f0[ti], f0[ti]) for ti in record.permissible}
    record.add("specialized <f_t, f_t> nonzero for permissible t",
               all(v != 0 for v in diag.values()))
    orthogonal = all(form0(f0[s], f0[t]) == 0
                     for s in record.permissible for t in record.permissible
                     if s != t)
    record.add("specialized <f_s, f_t> zero for s != t", orthogonal)

    from .exactmat import ExactMatrix
    rank = ExactMatrix(g0).rank()
    record.add("specialized Gram rank = permissible path count",
               rank == len(record.permissible))

    # matrix units on the quotient by the Gram radical, as honest operators
    # on the specialized module: E_st(w) = <w, f_s> / <f_s, f_s> * f_t.
    perm = record.permissible
    if all(v != 0 for v in diag.values()):
        def in_radical(vec) -> bool:
            return all(sum(g0[i][j] * vec[j] for j in range(npaths)) == 0
                       for i in range(npaths))

        # the specialized idempotents preserve the radical ...
        rad_basis = ExactMatrix(g0).kernel()
        preserves = True
        for t in perm:
            for w in rad_basis:
                img = [sum(w[a] * evaluable[t][a][b] for a in range(npaths))
                       for b in range(npaths)]
                preserves &= in_radical(img)
        record.add("specialized idempotents preserve the Gram radical", preserves)

        # ... and induce the diagonal matrix units on the quotient:
        # f_s F_t = delta_{st} f_s modulo the radical.
        induced_ok = True
        for s in perm:
            for t in perm:
                vec = [sum(f0[s][a] * evaluable[t][a][b] for a in range(npaths))
                       for b in range(npaths)]
                if s == t:
                    vec = [vec[b] - f0[s][b] for b in range(npaths)]
                induced_ok &= in_radical(vec)
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
        agree = True
        for t in perm:
            for a in range(npaths):
                c = Fraction(sum(g0[a][j] * f0[t][j] for j in range(npaths)), diag[t])
                row = [c * f0[t][b] - evaluable[t][a][b] for b in range(npaths)]
                agree &= in_radical(row)
        record.add("E_tt = specialized F_t modulo the radical", agree)
    return record
