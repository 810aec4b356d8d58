"""Kernel generators, the modified (split) cellular basis, and the
kernel/image certificates for diagram algebras acting on tensor space.

* symplectic: B_r at delta = -2N with the Murphy basis; marginal vertices
  have lam_1 = N+1 and carry the unsigned all-diagram sum b (a diagrammatic
  Pfaffian).
* orthogonal: B_r at delta = N with the dual-Murphy basis; marginal
  vertices have lam'_1 + lam'_2 = N+1 and carry signed walled-diagram sums d
  (diagrammatic minors).
* symmetric: the unsigned place-permutation action of the symmetric group
  on (Z^N)^{tensor r} with the dual-Murphy basis; marginal vertices have
  lam'_1 = N+1 and carry the antisymmetrizer on N+1 letters.

A marginal vertex's kernel generator is b = a head sum (``kernel_head``:
all of B_{lam_1}, the signed (lam'_1, lam'_2)-walled sum, or the
antisymmetrizer of S_{lam'_1}), times a Young-subgroup tail on the
remaining rows or columns, times the e-suffix of the vertex, and the
cell generator is m = b - b', b' from the corank >= 1 part of the head.
The correction beta' (``head_correction``) averages that part over the
orbits of the head's permutation group (S_{lam_1}, S_{lam'_1} x
S_{lam'_2}, or S_{lam'_1}); it is kept as the integral den beta', for one
integer den.  The tail and the e-suffix act on other strands and never
enter beta', so it depends on the head shape alone: ``SplitBasis`` forms
one correction per head shape and never b itself.  The antisymmetrizer
has no corank >= 1 part: beta' = 0 and beta = den = 1, so b = y_lam and
every a_t is d_t, and the dual-Murphy basis of the symmetric group
already splits, its kernel cells those of more than N rows.

The split basis replaces m_st by n_st = a_s* m a_t, where a_t corrects the
path at its first non-permissible vertex by the factorization den b =
m beta.  a_t is kept as A_t = den a_t over den, and the integral n_st is
A_s* m A_t divided exactly by den_s den_t; n_st = m_st when both paths
are permissible and maps to zero otherwise.
``certify_sft`` is the one kernel/image certificate for all three
flavors, and ``certify_sections`` picks the sections around it.
"""

from __future__ import annotations

from itertools import chain, islice
from math import lcm
from typing import NamedTuple

from . import branching as br
from .branching import (Vertex, algebra_dimension, conjugate,
                        expected_image_dimension)
from .diagrams import AlgebraElement, diagram_mult, walled_filter
from .exactmat import rank, spin_rank_q
from .matchings import BrauerDiagram, all_diagrams, all_permutation_diagrams
from .murphy import murphy_basis, young_sum
from .tensorrep import (FLAVOR_SPACE, MAX_TENSOR_DIM, TensorRep, image_lines,
                        image_rank, image_vectors)

FLAVOR_DATA = {
    # flavor -> the cellular basis the split basis is built on
    "symplectic": "brauer-murphy",
    "orthogonal": "brauer-dual-murphy",
    "symmetric": "symmetric-dual",
}
# the ideal line is spun for r up to this
IDEAL_MAX_R = 4
_BRAUER_LINES = ("kernel elements map to zero",
                 "image rank over Q = sum of squared permissible path counts",
                 "ideal generated by marginal generators has rank dim ker")
LINE_NAMES = {
    # flavor -> the names of the kernel, image and ideal lines of certify_sft
    "symplectic": _BRAUER_LINES,
    "orthogonal": _BRAUER_LINES,
    "symmetric": ("kernel cells map to zero", "image rank over Q",
                  "ideal generated by the antisymmetrizer has rank dim ker"),
}


def sum_all_diagrams(r: int, delta0) -> AlgebraElement:
    """The unsigned sum of all diagrams of B_r."""
    return AlgebraElement(r, {d: 1 for d in all_diagrams(r)}, delta0)


def walled_signed_sum(a: int, b: int, delta0) -> AlgebraElement:
    """The signed sum of (a,b)-walled diagrams of B_{a+b}."""
    terms = {}
    for d in all_diagrams(a + b):
        ok, sign = walled_filter(a, b, d)
        if ok:
            terms[d] = sign
    return AlgebraElement(a + b, terms, delta0)


def _orbit_correction(head: AlgebraElement, group: list) -> tuple[AlgebraElement, int]:
    """(den * beta', den), den the lcm of the stabilizer orders (1 when
    ``head`` is 0).  beta' is the sum of c_x/|stabilizer| over
    representatives x of the orbits of the permutation diagrams ``group``
    acting from the left on the terms of ``head`` (the corank >= 1 part of
    a head sum), so that the group sum times beta' equals ``head``.  The
    action is usually free, but not always: (12)(34) stabilizes the
    corank-2 (2,2)-walled diagrams, whence the stabilizer weights.  In the
    signed walled case stabilizers are necessarily even, so the signed
    orbit sums cannot cancel."""
    todo = dict(head.terms)
    reps = []   # (representative, coefficient, stabilizer order)
    while todo:
        rep = min(todo)
        orbit = set()
        for p in group:
            q, loops = diagram_mult(p, rep)
            if loops:
                raise ArithmeticError("a permutation times a diagram closed a loop")
            orbit.add(q)
        reps.append((rep, todo[rep], len(group) // len(orbit)))
        for q in orbit:
            del todo[q]
    den = lcm(*(stab for _, _, stab in reps))
    terms = {rep: coeff * (den // stab) for rep, coeff, stab in reps}
    return AlgebraElement(head.r, terms, head.delta), den


def head_shape(flavor: str, lam) -> tuple[int, ...]:
    """The head shape of a marginal vertex of shape ``lam``: (lam_1,), the
    padded (lam'_1, lam'_2), or (lam'_1,)."""
    if flavor == "symplectic":
        return lam[:1]
    conj = conjugate(lam) + (0,)
    return conj[:2] if flavor == "orthogonal" else conj[:1]


def kernel_head(flavor: str, shape: tuple[int, ...], delta0) -> AlgebraElement:
    """The head sum of ``shape``: all of B_{c} for (c,) (symplectic), the
    signed (c1, c2)-walled sum (orthogonal), or the antisymmetrizer of S_c
    for (c,) (symmetric)."""
    if flavor == "symplectic":
        return sum_all_diagrams(shape[0], delta0)
    if flavor == "orthogonal":
        return walled_signed_sum(*shape, delta0)
    return young_sum(shape, shape[0], True, delta0)


def head_correction(flavor: str, shape: tuple[int, ...], delta0) -> tuple[AlgebraElement, int]:
    """(beta'_int, den) of the head of ``shape``, at the head's width:
    ``_orbit_correction`` of the corank >= 1 part of ``kernel_head`` under
    the permutation group S_shape, so that the group sum times beta'_int is
    den times that part.  It is (0, 1) for the symmetric group."""
    head = kernel_head(flavor, shape, delta0)
    head_prime = AlgebraElement(head.r, {d: c for d, c in head.terms.items()
                                         if d.rank_corank()[1] >= 1}, delta0)
    return _orbit_correction(head_prime, list(young_sum(shape, head.r, False).terms))


def _exact_quotient(c: int, den: int, what: str) -> int:
    """c / den, which must be an integer; raises ArithmeticError naming
    ``what`` on a remainder."""
    q, rem = divmod(c, den)
    if rem:
        raise ArithmeticError(f"{what} is not integral: {c}/{den}")
    return q


class SplitBasis:
    """The modified cellular basis n_st of B_r(Z; delta0), or of Z S_r for
    the symmetric flavor, attached to a permissibility bound N, with
    per-path correction elements a_t, each kept as an integral A_t =
    den_t * a_t over its denominator den_t (1 on a permissible path)."""

    def __init__(self, r: int, n: int, flavor: str, max_r: int | None = None):
        self.flavor = flavor
        self.n = n
        self.r = r
        self.delta0 = FLAVOR_SPACE[flavor][1](n)
        self.basis = murphy_basis(r, FLAVOR_DATA[flavor], max_r)
        self.perm_pred = lambda v: br.PERMISSIBLE[flavor](v, n)

        # (beta_mu, den) per head shape, beta_mu None when beta'_int = 0
        self._betas: dict[tuple[int, ...], tuple[AlgebraElement | None, int]] = {}
        # (A_t, den_t) per (vertex, path index); (d_t, 1) for permissible paths
        self.a_elements: dict[tuple[Vertex, int], tuple[AlgebraElement, int]] = {}
        self.path_permissible: dict[tuple[Vertex, int], bool] = {}
        # d_{s0}* m_lambda per vertex, built on first read (``module_vector``)
        self._module_lefts: dict[Vertex, AlgebraElement] = {}
        # a_s* m_lambda per (vertex, path index), built on first read (``element``)
        self._lefts: dict[tuple[Vertex, int], AlgebraElement] = {}
        for v in self.basis.vertices:
            paths = self.basis.paths[v]
            for ti, t in enumerate(paths):
                perm = br.path_permissible(t, flavor, n)
                self.path_permissible[(v, ti)] = perm
                self.a_elements[(v, ti)] = (
                    (self.basis.d_elements[(v, ti)].specialize(self.delta0), 1) if perm
                    else self._correction(v, ti))

    def _correction(self, v: Vertex, ti: int) -> tuple[AlgebraElement, int]:
        """(A_t, den) with A_t = d_{t2} beta_mu d_{t1} = den * a_t, for the
        first non-permissible mu = t(k), with t1 = t(0..k) and t2 = t(k..),
        and beta_mu = den + beta'_int of the head shape of mu, formed once
        per shape; every product at delta0.  When beta_mu = 1 (the
        symmetric group) it is (d_t, 1), read off the basis."""
        t = self.basis.paths[v][ti]
        k = next(i for i, w in enumerate(t) if not self.perm_pred(w))
        shape = head_shape(self.flavor, t[k].lam)
        if shape not in self._betas:
            beta_prime, den = head_correction(self.flavor, shape, self.delta0)
            self._betas[shape] = (
                AlgebraElement.one(self.r, self.delta0).scale(den) + beta_prime.embed(self.r)
                if beta_prime.terms else None, den)
        beta, den = self._betas[shape]
        if beta is None:
            return self.basis.d_elements[(v, ti)].specialize(self.delta0), 1
        d1 = self.basis.path_d(t[:k + 1], self.delta0)
        d2 = self.basis.path_d(t[k:], self.delta0)
        return d2 * beta * d1, den

    def module_vector(self, v: Vertex, ti: int) -> list[int]:
        """Module coordinates of n_t = m_lambda a_t in the Murphy basis of
        the cell module of v: the coefficients of m_(v,0,u) in
        d_{s0}* m_lambda a_t, those of d_{s0}* m_lambda A_t divided exactly
        by den_t; raises ArithmeticError on a remainder.  Each call builds
        the vector; d_{s0}* m_lambda is kept per vertex."""
        left = self._module_lefts.get(v)
        if left is None:
            gen = self.basis.generators[v].specialize(self.delta0)
            left = self._module_lefts[v] = (
                self.basis.d_elements[(v, 0)].involution().specialize(self.delta0) * gen)
        a_t, den = self.a_elements[(v, ti)]
        elt = left * a_t
        return [_exact_quotient(self.basis.cell_coefficient(v, tj, elt), den,
                                f"split basis vector at {v}")
                for tj in range(len(self.basis.paths[v]))]

    # -- pair-level data -------------------------------------------------------

    def pair_permissible(self, v: Vertex, s: int, t: int) -> bool:
        return self.path_permissible[(v, s)] and self.path_permissible[(v, t)]

    def element(self, v: Vertex, s: int, t: int) -> AlgebraElement:
        """The full algebra element n_st = a_s* m_lambda a_t; when s and t
        are permissible, a_s = d_s and a_t = d_t, and it is the Murphy
        element m_st read at delta0.  Otherwise A_s* m_lambda A_t is divided
        exactly by den_s den_t, and a remainder raises ArithmeticError.  Each
        A_s* m_lambda formed is kept."""
        if self.pair_permissible(v, s, t):
            return self.basis.elements[(v, s, t)].specialize(self.delta0)
        a_s, den_s = self.a_elements[(v, s)]
        a_t, den_t = self.a_elements[(v, t)]
        left = self._lefts.get((v, s))
        if left is None:
            gen = self.basis.generators[v].specialize(self.delta0)
            left = self._lefts[(v, s)] = a_s.involution() * gen
        out = left * a_t
        den = den_s * den_t
        if den != 1:
            out.terms = {d: _exact_quotient(c, den, f"n_st at {v}")
                         for d, c in out.terms.items()}
        return out

    def iter_pairs(self):
        return iter(self.basis.index)

    def kernel_count(self) -> int:
        return sum(1 for v, s, t in self.iter_pairs()
                   if not self.pair_permissible(v, s, t))

    def to_json(self) -> list:
        out = []
        for v, s, t in self.iter_pairs():
            out.append({
                "vertex": v.to_json(),
                "s": [w.to_json() for w in self.basis.paths[v][s]],
                "t": [w.to_json() for w in self.basis.paths[v][t]],
                "kernel": not self.pair_permissible(v, s, t),
                "element": self.element(v, s, t).to_json(),
            })
        return out


class CheckResult(NamedTuple):
    name: str
    expected: object
    got: object
    passed: bool

    def to_json(self) -> dict:
        return {"name": self.name, "expected": self.expected, "got": self.got,
                "pass": self.passed}


class Certificate:
    def __init__(self, params: dict):
        self.params = params
        self.checks: list[CheckResult] = []

    def add(self, name: str, expected, got) -> CheckResult:
        res = CheckResult(name, expected, got, expected == got)
        self.checks.append(res)
        return res

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"params": self.params,
                "checks": [c.to_json() for c in self.checks],
                "pass": self.passed}


def ideal_generators(r: int, n: int, flavor: str, delta0) -> list[AlgebraElement]:
    """The small generating set of the kernel ideal: the single embedded
    all-diagram sum (symplectic), the embedded walled signed sums with
    a + b = N+1 (orthogonal), or the embedded antisymmetrizer (symmetric)."""
    if flavor not in FLAVOR_DATA:
        raise ValueError(flavor)
    if r < n + 1:
        return []
    shapes = ([(a, n + 1 - a) for a in range(n + 2)] if flavor == "orthogonal"
              else [(n + 1,)])
    return [kernel_head(flavor, shape, delta0).embed(r) for shape in shapes]


def ideal_span_rank(gens: list[AlgebraElement], r: int, flavor: str) -> int:
    """Rank over Q of span{D1 * g * D2} over all diagram pairs and all
    generators g, in diagram coordinates: the dimension of the two-sided
    ideal B g B of B_r (of the group algebra of S_r for the symmetric
    flavor) at the integer loop value of ``gens``.

    It is computed by spinning the g under left and right multiplication by
    s_1..s_{r-1} and, for the Brauer flavors, e_1..e_{r-1}.  The diagrams
    span the algebra, so span{D1 g D2} = B g B.  Every diagram is the
    product of a word in the s_i and e_i that closes no loop, so with
    coefficient 1, at every loop value; hence B g B is the smallest subspace
    that contains the g and is closed under multiplication by each s_i, e_i
    on either side.  That subspace is what ``spin_rank_q`` computes, exactly
    over Q, from tables of x * D and D * x for every generator x and
    diagram D."""
    symmetric = flavor == "symmetric"
    diagrams = all_permutation_diagrams(r) if symmetric else all_diagrams(r)
    index = {d: i for i, d in enumerate(diagrams)}
    delta0 = gens[0].delta if gens else None
    xs = [BrauerDiagram.s(i, r) for i in range(1, r)]
    if not symmetric:
        xs += [BrauerDiagram.e(i, r) for i in range(1, r)]
    maps = []
    for x in xs:
        for left in (True, False):
            table = []
            for d in diagrams:
                prod, loops = diagram_mult(x, d) if left else diagram_mult(d, x)
                table.append((index[prod], delta0 ** loops if loops else 1))
            maps.append(table)
    return spin_rank_q([{index[d]: c for d, c in g.terms.items()} for g in gens], maps)


def image_checks(image, count: int, kernel, diagrams, rep: TensorRep,
                 fields: tuple) -> tuple[bool, list[tuple[int, int]], int]:
    """The tensor-side lines of ``certify_sft``, from one pass of
    ``image_vectors`` over the ``count`` elements of ``image`` and then the
    ``kernel`` stream, on the orbit rows of ``rep`` (which keep ranks and
    zero tests, see ``tensorrep``): whether every kernel element maps to
    zero, the rank over F_p of the whole image for each p in ``fields``, and
    the rank over Q of the ``image`` elements, each taken by columns on
    their ``image_lines``.  The F_p ranks only read the lines; the Q rank,
    taken last, consumes them.

    The ``image`` elements and the kernel elements that the stream stands
    for make a Z-basis, and the kernel line holds only when those all map
    to zero; then the ``image`` elements span the image over Q, and
    rank_p(image) <= rank_p(Phi) <= rank_Q(Phi) = rank_Q(image) <=
    ``count``: a rank on the lines that reaches ``count`` is that of the
    whole image, never a mere lower bound.  One that falls short, or a
    failed kernel line, decides nothing, and the F_p rank is then
    ``image_rank`` of all the ``diagrams``."""
    vectors = image_vectors(chain(image, kernel), rep)
    lines = image_lines(islice(vectors, count))
    kernel_zero = not any(vectors)
    got_p = [(p, count if kernel_zero and rank(lines, p) == count
              else image_rank(diagrams, rep, p)) for p in fields]
    return kernel_zero, got_p, rank(lines)


def certify_sft(split: SplitBasis, max_tensor_dim: int = MAX_TENSOR_DIM,
                fields: tuple = ()) -> Certificate:
    """The kernel/image certificate of every flavor on its split basis:

    1. the images of permissible n_st are linearly independent of rank
       sum (#permissible paths)^2;
    2. every kernel-flagged n_st maps to zero;
    3. kernel count + permissible count = dim B_r;
    4. when r <= ``IDEAL_MAX_R``, the span of D1 g D2 over the small
       generating set has rank = dim ker;
    5. the image rank over F_p agrees with the rank over Q, for each p in
       ``fields``.

    Lines 1, 2 and 5 are ``image_checks`` of the permissible n_st, in
    ``iter_pairs`` order, and of m a_u for every path u that is not
    permissible, m being the cell generator at the end of u.

    Neither forms n_st = a_s* m a_t.  When s and t are permissible, a_s =
    d_s and a_t = d_t, so n_st = m_st, the Murphy element read at delta0.
    Otherwise some u in {s, t} is not permissible and n_st has the factor
    m a_u: n_st = a_s* (m a_t) when t is not, and n_st = (a_s* m) a_t =
    (m a_s)* a_t when s is not, since m* = m.  As Phi(x*) = Phi(x)^T,
    Phi(n_st) is then Phi(a_s)^T Phi(m a_t) or Phi(m a_s)^T Phi(a_t), so
    every kernel-flagged n_st maps to zero when every Phi(m a_u) does.  The
    stream holds m A_u, and Phi(m A_u) = den_u Phi(m a_u), so the zero test
    is unchanged.

    For the symmetric group beta = 1 and a path is permissible exactly
    when its end vertex is, so the stream is y_lam d_u over the paths u of
    the cells of more than N rows, which are never expanded; its lines keep
    Harterich's names (``LINE_NAMES``), without the pair count line and,
    for r <= N, the ideal line.
    """
    r, n, flavor, basis, delta0 = split.r, split.n, split.flavor, split.basis, split.delta0
    kernel_line, image_line, ideal_line = LINE_NAMES[flavor]
    symmetric = flavor == "symmetric"
    cert = Certificate({"flavor": flavor, "r": r, "N": n})
    rep = TensorRep(flavor, n, r, max_tensor_dim=max_tensor_dim)
    dim_alg = algebra_dimension(r, flavor)
    dim_im = expected_image_dimension(r, n, flavor)

    permissible = [key for key in split.iter_pairs() if split.pair_permissible(*key)]

    kernel_zero, got_p, got_q = image_checks(
        (basis.elements[key].specialize(delta0) for key in permissible), len(permissible),
        (basis.generators[v].specialize(delta0) * split.a_elements[(v, u)][0]
         for v in basis.vertices for u in range(len(basis.paths[v]))
         if not split.path_permissible[(v, u)]),
        basis.diagrams, rep, fields)
    cert.add(kernel_line, True, kernel_zero)
    if not symmetric:
        cert.add("permissible pair count", dim_im, len(permissible))
    cert.add(image_line, dim_im, got_q)
    cert.add("kernel count + image dimension", dim_alg,
             split.kernel_count() + dim_im)

    if r <= IDEAL_MAX_R:
        gens = ideal_generators(r, n, flavor, delta0)
        if gens or not symmetric:
            got = ideal_span_rank(gens, r, flavor) if gens else 0
            cert.add(ideal_line, dim_alg - dim_im, got)

    for p, got in got_p:
        cert.add(f"image rank over F_{p}", dim_im, got)
    return cert


def quotient_cell_modules(split: SplitBasis) -> Certificate:
    """Per permissible vertex: the Gram matrix specialized at the flavor's
    loop value has rank = #permissible paths, and every non-permissible
    split vector lies in its radical (G vec = 0).  That the vectors are
    linearly independent, and so span the radical, is not checked."""
    cert = Certificate({"flavor": split.flavor, "r": split.r, "N": split.n,
                        "delta0": split.delta0})
    for v in split.basis.vertices:
        if not split.perm_pred(v):
            continue
        paths = split.basis.paths[v]
        gram = split.basis.gram_matrix(v, split.delta0)
        g0 = gram.rows
        n_perm = sum(1 for ti in range(len(paths)) if split.path_permissible[(v, ti)])
        got = gram.rank()
        cert.add(f"Gram rank at {v.lam},{v.l}", n_perm, got)
        radical_ok = True
        for ti in range(len(paths)):
            if split.path_permissible[(v, ti)]:
                continue
            vec = split.module_vector(v, ti)
            image = [sum(g0[i][j] * vec[j] for j in range(len(vec)))
                     for i in range(len(vec))]
            radical_ok &= all(x == 0 for x in image)
        cert.add(f"kernel vectors lie in the Gram radical at {v.lam},{v.l}",
                 True, radical_ok)
    return cert


def certify_sections(split: SplitBasis, max_tensor_dim: int, fields: tuple,
                     seminormal_cap: int) -> tuple[dict, bool]:
    """The sections of ``certify`` on ``split``, each as JSON, and whether
    they all pass; the one place that picks a flavor's sections.  Every
    flavor has ``certify_sft``, for the symmetric group as its one section
    ``harterich``.  The Brauer flavors: ``split_basis`` (``certify_sft``),
    ``quotient_cell_modules`` and, when r <= ``seminormal_cap``,
    ``seminormal``, one record per vertex, in which a vertex that is not
    permissible is skipped and does not count towards the pass."""
    cert = certify_sft(split, max_tensor_dim=max_tensor_dim, fields=fields)
    if split.flavor == "symmetric":
        return {"harterich": cert.to_json()}, cert.passed
    quo = quotient_cell_modules(split)
    sections = {"split_basis": cert.to_json(), "quotient_cell_modules": quo.to_json()}
    passed = cert.passed and quo.passed
    if split.r <= seminormal_cap:
        from . import seminormal as sn   # loaded only when its section runs
        records = [sn.specialize_quotient(sn.gz_idempotents(split.basis, v),
                                          split.delta0, split.flavor, split.n)
                   if split.perm_pred(v) else
                   sn.quotient_record(v, split.basis.paths[v], split.delta0,
                                      split.flavor, split.n)
                   for v in split.basis.vertices]
        sections["seminormal"] = [rec.to_json() for rec in records]
        passed = passed and all(rec.passed for rec in records if not rec.skipped)
    return sections, passed
