from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import pytest

import brauercell.branching as br
from brauercell import murphy
from brauercell.branching import Path, Vertex
from brauercell.cli import main
from brauercell.diagrams import AlgebraElement, diagram_mult
from brauercell.errors import CapExceeded
from brauercell.exactmat import inverse_columns
from brauercell.matchings import BrauerDiagram, all_diagrams
from brauercell.murphy import (FLAVORS, brauer_branching_factors,
                               brauer_cell_generator, e_suffix, jm_element,
                               murphy_basis, sym_branching_factors)
from brauercell.rings import Poly
from brauercell.sft import SplitBasis
from cell_ops import (eager_elements, path_strictly_dominates, strictly_dominates,
                      sn_contents, sym_cell_generators, transpose, vertex_dominates)
from diagram_ops import has_integer_coeffs, map_coeffs
from exact_ops import LinearSolver

BRAUER_FLAVORS = ["brauer-murphy", "brauer-dual-murphy"]
ALL_FLAVORS = list(FLAVORS)


def elt(d, coeff=1):
    return AlgebraElement.from_diagram(d, coeff)


# -- the expansion in the cellular basis, kept as the oracle of the cell-row
# functionals: one exact solve per corank block of the transition matrix,
# with the basis elements as rows, one power of delta at a time.

@lru_cache(maxsize=None)
def _block_solver(r: int, flavor: str, corank: int):
    mb = murphy_basis(r, flavor, max_r=r)
    cols = [i for i, (v, _s, _t) in enumerate(mb.index) if v.l == corank]
    rows = [{mb.diag_index[d]: c for d, c in mb.elements[mb.index[i]].terms.items()}
            for i in cols]
    return LinearSolver(rows), cols


def expand(mb, a: AlgebraElement) -> list:
    """Coefficients of a in the cellular basis, aligned with mb.index: a
    Poly where they depend on delta, else an int or Fraction."""
    if a.r != mb.r:
        raise ValueError("strand count mismatch")
    by_block: dict = {}
    for d, c in a.terms.items():
        for e, k in (c.coeffs.items() if isinstance(c, Poly) else [(0, c)]):
            block = by_block.setdefault(d.rank_corank()[1], {})
            block.setdefault(e, {})[mb.diag_index[d]] = k
    out = [Poly.zero() for _ in mb.index]
    for corank, powers in by_block.items():
        solver, cols = _block_solver(mb.r, mb.flavor, corank)
        for e, vec in powers.items():
            for pos, c in zip(cols, solver.solve(vec)):
                if c:
                    out[pos] = out[pos] + Poly({e: c})
    return [c.constant_value() if c.is_constant() else c for c in out]


def expand_map(mb, a: AlgebraElement) -> dict:
    return {mb.index[i]: c for i, c in enumerate(expand(mb, a)) if c != 0}


def oracle_gram(mb, v: Vertex) -> list[list]:
    n = len(mb.paths[v])
    return [[expand_map(mb, mb.elements[(v, 0, s)] * mb.elements[(v, t, 0)])
             .get((v, 0, 0), 0) for t in range(n)] for s in range(n)]


def oracle_cell_action(mb, v: Vertex, a: AlgebraElement) -> list[list]:
    n = len(mb.paths[v])
    out = []
    for s in range(n):
        coeffs = expand_map(mb, mb.elements[(v, 0, s)] * a)
        out.append([coeffs.get((v, 0, t), 0) for t in range(n)])
    return out


def u_element(mb, t: Path) -> AlgebraElement:
    out = AlgebraElement.one(mb.r)
    for a, b in zip(t, t[1:]):
        out = out * mb.edge_factors(a, b)[1]
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


def cell_datum(mb, v: Vertex) -> CellDatum:
    factors = {}
    for t in mb.paths[v]:
        for a, b in zip(t, t[1:]):
            if (a, b) not in factors:
                factors[(a, b)] = mb.edge_factors(a, b)
    return CellDatum(mb.flavor, v, mb.generators[v], tuple(mb.paths[v]), factors)


def perm_sum(r, *perms_and_coeffs):
    out = AlgebraElement.zero(r)
    for p, c in perms_and_coeffs:
        out = out + AlgebraElement.from_perm(p, c)
    return out


def test_sym_cell_generators():
    x2, y2 = sym_cell_generators((2,), 2)
    assert x2 == perm_sum(2, ((1, 2), 1), ((2, 1), 1))
    # y_lam is the signed sum over the Young subgroup of the conjugate,
    # so y_(2) = 1 and y_(1,1) = 1 - s_1
    assert y2 == AlgebraElement.one(2)
    x11, y11 = sym_cell_generators((1, 1), 2)
    assert x11 == AlgebraElement.one(2)
    assert y11 == perm_sum(2, ((1, 2), 1), ((2, 1), -1))


def test_sym_branching_factor_examples():
    d, u = sym_branching_factors((1,), (2,), False, 2)
    assert d == AlgebraElement.one(2)
    assert u == perm_sum(2, ((1, 2), 1), ((2, 1), 1))
    d, _u = sym_branching_factors((1, 1), (2, 1), False, 3)
    assert d == elt(BrauerDiagram.s(2, 3))
    with pytest.raises(ValueError):
        sym_branching_factors((2,), (2, 2), False, 4)


@pytest.mark.parametrize("dual", [False, True])
def test_sym_compatibility_all_edges(dual):
    r = 5
    for level in range(5):
        for a in br.vertices_at_level(level, True):
            for b in br.young_edges(a):
                xa, ya = sym_cell_generators(a.lam, r)
                xb, yb = sym_cell_generators(b.lam, r)
                ga, gb = (ya, yb) if dual else (xa, xb)
                d, u = sym_branching_factors(a.lam, b.lam, dual, r)
                assert gb * d == u.involution() * ga


@pytest.mark.parametrize("dual", [False, True])
def test_brauer_cell_generator_equals_young_sum_times_suffix(dual):
    """The generator builds only the Young sum it uses and skips the
    identity suffix at l = 0; it equals (y or x) times e_{k-1}^{(l)} built
    from both sums, at its own level and embedded at width 6."""
    for r in range(1, 7):
        for v in br.vertices_at_level(r, False):
            for width in (r, 6):
                x, y = sym_cell_generators(v.lam, width)
                want = (y if dual else x) * e_suffix(r - 1, v.l, width)
                got = brauer_cell_generator(v, dual, width)
                assert got == want
                assert got.delta is None


def test_brauer_cell_generator_examples():
    assert brauer_cell_generator(Vertex((), 1), False, 2) == elt(BrauerDiagram.e(1, 2))
    x20 = brauer_cell_generator(Vertex((2,), 0), False, 2)
    assert x20 == perm_sum(2, ((1, 2), 1), ((2, 1), 1))
    assert brauer_cell_generator(Vertex((1,), 1), False, 3) == elt(BrauerDiagram.e(2, 3))


def test_brauer_branching_factor_examples():
    # box-removal edge ((1),0) -> ((),1): d = 1, u = e_1
    d, u = brauer_branching_factors(Vertex((1,), 0), Vertex((), 1), False, 2)
    assert d == AlgebraElement.one(2)
    assert u == elt(BrauerDiagram.e(1, 2))
    # box-addition edge ((1),0) -> ((2),0): the symmetric-group factors
    d, u = brauer_branching_factors(Vertex((1,), 0), Vertex((2,), 0), False, 2)
    assert d == AlgebraElement.one(2)
    assert u == perm_sum(2, ((1, 2), 1), ((2, 1), 1))
    with pytest.raises(ValueError):
        brauer_branching_factors(Vertex((1,), 0), Vertex((3,), 0), False, 4)


@pytest.mark.parametrize("dual", [False, True])
def test_brauer_compatibility_all_edges_to_level_5(dual):
    for level in range(5):
        r = level + 1
        for a in br.vertices_at_level(level):
            for b in br.brauer_edges(a):
                ga = brauer_cell_generator(a, dual, r)
                gb = brauer_cell_generator(b, dual, r)
                d, u = brauer_branching_factors(a, b, dual, r)
                assert gb * d == u.involution() * ga


def test_murphy_basis_b2():
    mb = murphy_basis(2, "brauer-murphy")
    by_vertex = {v: mb.elements[(v, 0, 0)] for v in mb.vertices}
    assert by_vertex[Vertex((2,), 0)] == perm_sum(2, ((1, 2), 1), ((2, 1), 1))
    assert by_vertex[Vertex((1, 1), 0)] == AlgebraElement.one(2)
    assert by_vertex[Vertex((), 1)] == elt(BrauerDiagram.e(1, 2))
    assert set(mb.transition_dets().values()) <= {1, -1}


def test_symmetric_dual_basis_count():
    mb = murphy_basis(3, "symmetric-dual")
    assert len(mb.index) == 6
    sizes = {v: len(mb.paths[v]) for v in mb.vertices}
    assert sizes == {Vertex((3,), 0): 1, Vertex((2, 1), 0): 2, Vertex((1, 1, 1), 0): 1}


@pytest.mark.parametrize("flavor", ALL_FLAVORS)
@pytest.mark.parametrize("r", [2, 3, 4])
def test_transition_unimodular_and_corank_pure(flavor, r):
    mb = murphy_basis(r, flavor)
    assert set(mb.transition_dets().values()) <= {1, -1}
    for (v, s, t), e in mb.elements.items():
        assert all(d.rank_corank()[1] == v.l for d in e.terms)
        assert has_integer_coeffs(e)


def test_expand_examples():
    mb = murphy_basis(2, "brauer-murphy")
    coeffs = expand_map(mb, AlgebraElement.one(2))
    assert coeffs == {(Vertex((1, 1), 0), 0, 0): 1}
    # expanding a basis element gives a unit vector
    key = (Vertex((2,), 0), 0, 0)
    assert expand_map(mb, mb.elements[key]) == {key: 1}
    # delta * e_1 expands with coefficient delta on the corank-1 cell
    de1 = elt(BrauerDiagram.e(1, 2)).scale(Poly.delta())
    assert expand_map(mb, de1) == {(Vertex((), 1), 0, 0): Poly.delta()}
    with pytest.raises(ValueError):
        expand(mb, AlgebraElement.one(3))


def test_gram_examples():
    mb = murphy_basis(2, "brauer-murphy")
    assert mb.gram_matrix(Vertex((), 1)).rows == [[Poly.delta()]]
    assert mb.gram_matrix(Vertex((2,), 0)).rows == [[2]]


@pytest.mark.parametrize("flavor", BRAUER_FLAVORS)
@pytest.mark.parametrize("r", [2, 3, 4])
def test_gram_symmetric(flavor, r):
    mb = murphy_basis(r, flavor)
    for v in mb.vertices:
        g = mb.gram_matrix(v)
        assert g.rows == transpose(g).rows


def test_jm_action_examples():
    mb = murphy_basis(2, "brauer-murphy")
    assert mb.jm_action(2, Vertex((2,), 0)) == [[1]]
    assert mb.jm_action(2, Vertex((1, 1), 0)) == [[-1]]
    assert mb.jm_action(2, Vertex((), 1)) == [[1 - Poly.delta()]]
    assert mb.jm_action(1, Vertex((2,), 0)) == [[0]]


@pytest.mark.parametrize("flavor", BRAUER_FLAVORS + ["symmetric"])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_jm_triangular_with_content_diagonal(flavor, r):
    mb = murphy_basis(r, flavor)
    for v in mb.vertices:
        paths = mb.paths[v]
        for i in range(1, r + 1):
            mat = mb.jm_action(i, v)
            for s, t_path in enumerate(paths):
                kappa = sn_contents(t_path)[i - 1]
                assert mat[s][s] == kappa
                for t in range(len(paths)):
                    if t != s and mat[s][t] != 0:
                        assert path_strictly_dominates(paths[t], paths[s], mb.dual)


@pytest.mark.parametrize("flavor", BRAUER_FLAVORS)
def test_involution_law_exact(flavor):
    mb = murphy_basis(3, flavor)
    for v in mb.vertices:
        n = len(mb.paths[v])
        for s in range(n):
            for t in range(n):
                assert mb.elements[(v, s, t)].involution() == mb.elements[(v, t, s)]


@pytest.mark.parametrize("flavor", BRAUER_FLAVORS)
@pytest.mark.parametrize("r", [2, 3, 4])
def test_cellular_multiplication_law(flavor, r, rng):
    """m_st * a has lambda-block supported on row s with coefficients
    independent of s, modulo strictly dominating cells."""
    mb = murphy_basis(r, flavor)
    ds = all_diagrams(r)
    for _ in range(4):
        a = elt(rng.choice(ds)) + elt(rng.choice(ds), rng.randint(-2, 2))
        for v in mb.vertices[:4]:
            n = len(mb.paths[v])
            rows = {}
            for s in range(min(n, 3)):
                for t in range(min(n, 2)):
                    coeffs = expand_map(mb, mb.elements[(v, s, t)] * a)
                    for (w, u1, u2), c in coeffs.items():
                        if w == v:
                            assert u1 == s
                        else:
                            assert strictly_dominates(mb, w, v)
                    rows[(s, t)] = [coeffs.get((v, s, u), 0) for u in range(n)]
            for t in range(min(n, 2)):
                base = rows[(0, t)]
                for s in range(1, min(n, 3)):
                    assert rows[(s, t)] == base


@pytest.mark.parametrize("flavor", BRAUER_FLAVORS)
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_path_compatibility(flavor, r):
    """u_t* = m_nu d_t for every path."""
    mb = murphy_basis(r, flavor)
    for v in mb.vertices:
        gen = mb.generators[v]
        for ti in range(len(mb.paths[v])):
            u = u_element(mb, mb.paths[v][ti])
            assert u.involution() == gen * mb.d_elements[(v, ti)]


@pytest.mark.parametrize("flavor", BRAUER_FLAVORS)
def test_restriction_filtration_shadow(flavor):
    """Right multiplication by generators of B_{r-1} is block-triangular with
    respect to dominance of the penultimate vertex."""
    r = 4
    mb = murphy_basis(r, flavor)
    gens = [elt(BrauerDiagram.s(i, r)) for i in range(1, r - 1)]
    gens += [elt(BrauerDiagram.e(i, r)) for i in range(1, r - 1)]
    for v in mb.vertices:
        paths = mb.paths[v]
        for g in gens:
            for s in range(len(paths)):
                coeffs = expand_map(mb, mb.elements[(v, 0, s)] * g)
                for (w, u1, u2), c in coeffs.items():
                    if w != v:
                        continue
                    assert vertex_dominates(paths[u2][r - 1], paths[s][r - 1],
                                            mb.dual)


def test_cap():
    with pytest.raises(CapExceeded):
        murphy_basis(7, "brauer-murphy")


def test_jm_element():
    l2 = jm_element(2, 2)
    assert l2 == elt(BrauerDiagram.s(1, 2)) - elt(BrauerDiagram.e(1, 2))
    assert jm_element(1, 3).is_zero
    assert jm_element(2, 3, add_only=True) == elt(BrauerDiagram.s(1, 3))


def test_basis_json_deterministic():
    mb = murphy_basis(2, "brauer-murphy")
    assert mb.basis_json() == mb.basis_json()
    assert len(mb.basis_json()) == 3


def test_cell_datum():
    mb = murphy_basis(3, "brauer-murphy")
    v = Vertex((1,), 1)
    datum = cell_datum(mb, v)
    assert datum.flavor == "brauer-murphy"
    assert datum.generator == mb.generators[v]
    assert len(datum.paths) == 3
    for (a, b), (dfac, ufac) in datum.edge_factors.items():
        gb = brauer_cell_generator(b, False, 3)
        ga = brauer_cell_generator(a, False, 3)
        assert gb * dfac == ufac.involution() * ga


@pytest.mark.parametrize("add_only", [False, True])
def test_jm1_selfadjoint_and_commutes_with_lower_algebra(add_only):
    """(JM1): L_i = L_i*, and L_i commutes pointwise with the subalgebra on
    the first i-1 strands."""
    r = 4
    for i in range(1, r + 1):
        li = jm_element(i, r, add_only)
        assert li.involution() == li
        gens = [AlgebraElement.from_perm(
            tuple(range(1, r + 1))[:j - 1] + (j + 1, j) + tuple(range(j + 2, r + 1)))
            for j in range(1, i - 1)]
        if not add_only:
            gens += [elt(BrauerDiagram.e(j, r)) for j in range(1, i - 1)]
        for g in gens:
            assert li * g == g * li


@pytest.mark.parametrize("flavor", BRAUER_FLAVORS + ["symmetric"])
def test_jm2_central_sum_acts_by_content_sum(flavor):
    """(JM2): L_1 + ... + L_r acts on each cell module as the scalar
    d(lambda) = sum of the contents, independently of the path."""
    r = 4
    mb = murphy_basis(r, flavor)
    total = AlgebraElement.zero(r)
    for i in range(1, r + 1):
        total = total + jm_element(i, r, mb.add_only)
    for v in mb.vertices:
        paths = mb.paths[v]
        sums = {tuple(sorted(sum(sn_contents(t), Poly.zero()).coeffs.items()))
                for t in paths}
        assert len(sums) == 1  # d(lambda) is path independent
        d_lam = sum(sn_contents(paths[0]), Poly.zero())
        mat = mb.cell_action(v, total)
        n = len(paths)
        for s in range(n):
            for t in range(n):
                expected = d_lam if s == t else Poly.zero()
                assert mat[s][t] == expected


def test_expand_roundtrip_random(rng):
    for flavor in BRAUER_FLAVORS:
        mb = murphy_basis(4, flavor)
        ds = all_diagrams(4)
        for _ in range(5):
            a = AlgebraElement.zero(4)
            for _k in range(4):
                a = a + elt(rng.choice(ds), rng.randint(-3, 3))
            coeffs = expand(mb, a)
            back = AlgebraElement.zero(4)
            for c, key in zip(coeffs, mb.index):
                if c != 0:
                    back = back + map_coeffs(mb.elements[key], lambda x, c=c: x * c)
            assert map_coeffs(back, _normalize_frac) == map_coeffs(a, _normalize_frac)


def _normalize_frac(x):
    f = Fraction(x) if not isinstance(x, Poly) else x
    return f


def test_gram_full_equation():
    """m_{u0,s} m_{t,u0} = <m_s, m_t> m_{u0,u0} plus strictly dominating
    cells -- the defining equation of the form, checked in full."""
    for flavor in BRAUER_FLAVORS:
        mb = murphy_basis(3, flavor)
        for v in mb.vertices:
            n = len(mb.paths[v])
            gram = mb.gram_matrix(v)
            for s in range(n):
                for t in range(n):
                    prod = mb.elements[(v, 0, s)] * mb.elements[(v, t, 0)]
                    coeffs = expand_map(mb, prod)
                    for (w, u1, u2), c in coeffs.items():
                        if w == v:
                            assert (u1, u2) == (0, 0)
                            assert c == gram[s, t]
                        else:
                            assert strictly_dominates(mb, w, v)
                    if gram[s, t] == 0:
                        assert (v, 0, 0) not in coeffs


@pytest.mark.parametrize("flavor", ALL_FLAVORS)
@pytest.mark.parametrize("r", [2, 3, 4])
def test_gram_and_jm_match_expansion_oracle(flavor, r):
    mb = murphy_basis(r, flavor)
    for v in mb.vertices:
        assert mb.gram_matrix(v).rows == oracle_gram(mb, v)
        for i in range(1, r + 1):
            assert mb.jm_action(i, v) == oracle_cell_action(
                mb, v, jm_element(i, r, mb.add_only))


@pytest.mark.parametrize("flavor", ALL_FLAVORS)
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_cell_functionals_invert_the_block(flavor, r):
    """phi_(v,0,t) takes m_(v,0,u) to 1 if u = t, else 0, and vanishes on
    every other basis element of its corank block."""
    mb = murphy_basis(r, flavor)
    for v in mb.vertices:
        for t in range(len(mb.paths[v])):
            phi = mb.cell_functional(v, t)
            assert all(type(c) is int for c in phi.values())
            for (w, s, u), m in mb.elements.items():
                if w.l != v.l:
                    continue
                got = sum(phi.get(mb.diag_index[d], 0) * c for d, c in m.terms.items())
                assert got == (1 if (w, s, u) == (v, 0, t) else 0)


def _solver_functionals(mb, corank: int) -> dict:
    """The cell-row functionals of one corank block by a general solve: the
    block transposed (one row per diagram, one column per basis element),
    and one LinearSolver solve for the unit vector of each m_(v,0,t)."""
    keys = [key for key in mb.index if key[0].l == corank]
    col = {key: k for k, key in enumerate(keys)}
    diags = [i for i, d in enumerate(mb.diagrams) if d.rank_corank()[1] == corank]
    row_of = {i: j for j, i in enumerate(diags)}
    rows = [{} for _ in diags]
    for key in keys:
        for d, c in mb.elements[key].terms.items():
            rows[row_of[mb.diag_index[d]]][col[key]] = c
    solver = LinearSolver(rows)
    return {(v, t): {diags[j]: c for j, c in enumerate(solver.solve({col[(v, s, t)]: 1})) if c}
            for v, s, t in keys if not s}


@pytest.mark.parametrize("flavor,r", [(f, r) for f in ALL_FLAVORS for r in range(1, 6)]
                         + [("symmetric-dual", 6)])
def test_cell_functionals_match_solver_oracle(flavor, r):
    mb = murphy_basis(r, flavor, max_r=r)
    for corank in sorted({v.l for v in mb.vertices}):
        expected = _solver_functionals(mb, corank)
        got = {(v, t): mb.cell_functional(v, t) for v, t in expected}
        assert got == expected
        assert all(type(c) is int for phi in got.values() for c in phi.values())


@lru_cache(maxsize=None)
def _oracle_gram_generic(r: int, flavor: str, v: Vertex) -> list[list]:
    return oracle_gram(murphy_basis(r, flavor), v)


@pytest.mark.parametrize("flavor,n", [("symplectic", 1), ("symplectic", 2),
                                      ("orthogonal", 2), ("orthogonal", 3)])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_specialized_gram_and_module_vectors_match_expansion_oracle(flavor, n, r):
    """At every permissible vertex: the Gram matrix formed at delta0 is the
    generic oracle Gram evaluated there, and the split module vectors are
    the oracle coefficients of m_(v,0,u) in d_{s0}* m a_t, those in
    d_{s0}* m A_t divided by den_t."""
    split = SplitBasis(r, n, flavor)
    mb, d0 = split.basis, split.delta0
    for v in mb.vertices:
        if not split.perm_pred(v):
            continue
        g0 = [[c.evaluate(d0) if isinstance(c, Poly) else c for c in row]
              for row in _oracle_gram_generic(r, mb.flavor, v)]
        assert mb.gram_matrix(v, d0).rows == g0
        npaths = len(mb.paths[v])
        left = (mb.d_elements[(v, 0)].involution() * mb.generators[v]).with_delta(d0)
        for t in range(npaths):
            a_t, den = split.a_elements[(v, t)]
            coeffs = expand_map(mb, left * a_t)
            assert split.module_vector(v, t) == [Fraction(coeffs.get((v, 0, u), 0), den)
                                                 for u in range(npaths)]


def per_pair_gram(mb, v: Vertex, delta0=None) -> list[list]:
    """The Gram as gram_matrix formed it before it read each distinct
    diagram product once: phi_(v,0,0) of one element product per entry."""
    n = len(mb.paths[v])
    pairs = [(mb.elements[(v, 0, t)], mb.elements[(v, t, 0)]) for t in range(n)]
    if delta0 is not None:
        pairs = [(a.with_delta(delta0), b.with_delta(delta0)) for a, b in pairs]
    return [[mb.cell_coefficient(v, 0, left * right) for _, right in pairs]
            for left, _ in pairs]


def _typed(rows):
    return [[(type(c), c) for c in row] for row in rows]


@pytest.mark.parametrize("flavor", BRAUER_FLAVORS)
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_gram_at_delta0_matches_per_pair_products(flavor, r):
    """Every vertex, permissible or not (specialize_quotient reads them
    all): the same entries, of the same types, as one product per pair."""
    mb = murphy_basis(r, flavor)
    for d0 in (-2, -4, 2, 3):
        for v in mb.vertices:
            assert _typed(mb.gram_matrix(v, d0).rows) == _typed(per_pair_gram(mb, v, d0))


@pytest.mark.parametrize("flavor", ALL_FLAVORS)
def test_generic_gram_matches_per_pair_products(flavor):
    """Every vertex of every r <= 5, generically: the same entries, of the
    same types, as one product per pair."""
    for r in (2, 3, 4, 5):
        mb = murphy_basis(r, flavor)
        for v in mb.vertices:
            assert _typed(mb.gram_matrix(v).rows) == _typed(per_pair_gram(mb, v))


@pytest.mark.parametrize("flavor", ALL_FLAVORS)
def test_gram_forms_each_distinct_product_once(flavor, monkeypatch):
    """One Gram call forms one diagram product per pair of terms of d_s and
    d_t* for s <= t, and one X D X* per distinct diagram D of those
    products: |X*| products for D X*, then one per pair of terms of X and
    of D X*, where X = d_0* m_lambda."""
    counted = [0]

    def counting_mult(a, b):
        counted[0] += 1
        return diagram_mult(a, b)

    mb = murphy.MurphyBasis(4, flavor)   # uncached, so no Gram is kept yet
    monkeypatch.setattr(murphy, "diagram_mult", counting_mult)
    for v in mb.vertices:
        ds = [mb.d_elements[(v, s)].terms for s in range(len(mb.paths[v]))]
        pairs = [(a, b.involution()) for s, left in enumerate(ds) for right in ds[s:]
                 for a in left for b in right]
        x = (mb.d_elements[(v, 0)].involution() * mb.generators[v]).terms
        distinct = {diagram_mult(a, b)[0] for a, b in pairs}
        x_star = [b.involution() for b in x]
        psi = sum(len(x) + len(x) * len({diagram_mult(d, b) for b in x_star}) for d in distinct)
        for delta0 in (-2, None):
            counted[0] = 0
            mb.gram_matrix(v, delta0)
            assert counted[0] == len(pairs) + psi


def test_cell_coefficient_types():
    mb = murphy_basis(2, "brauer-murphy")
    v = Vertex((), 1)
    e1 = elt(BrauerDiagram.e(1, 2))
    assert type(mb.cell_coefficient(v, 0, e1 * e1)) is Poly
    assert type(mb.cell_coefficient(v, 0, e1.scale(Poly.const(3)))) is int
    zero = mb.cell_coefficient(v, 0, elt(BrauerDiagram.s(1, 2)))
    assert type(zero) is int and zero == 0
    assert mb.cell_coefficient(v, 0, e1.with_delta(-2) * e1.with_delta(-2)) == -2


def _certify_with_block_fault(capsys, monkeypatch, fault) -> tuple[int, str, str]:
    """Run a small certify with ``fault`` applied to the rows of every
    corank block before the real ``inverse_columns`` solves it."""
    def faulty(rows, wanted):
        rows = list(rows)
        fault(rows, wanted)
        return inverse_columns(rows, wanted)

    monkeypatch.setattr(murphy, "inverse_columns", faulty)
    murphy._cached_basis.cache_clear()
    code = main(["certify", "--flavor", "symplectic", "--r", "2", "--N", "1"])
    murphy._cached_basis.cache_clear()
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_non_integral_cell_functional_exit_code(capsys, monkeypatch):
    """Doubling a wanted row halves its inverse column, so the back
    substitution meets a quotient that is not an integer."""
    def double_wanted_row(rows, wanted):
        rows[wanted[0]] = {c: 2 * x for c, x in rows[wanted[0]].items()}

    code, out, err = _certify_with_block_fault(capsys, monkeypatch, double_wanted_row)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: cell functional")
    assert "not integral" in err


def test_dependent_cell_block_exit_code(capsys, monkeypatch):
    """A block with a repeated row is an internal error (exit 3, one
    line), not a traceback."""
    def copy_row(rows, wanted):
        if len(rows) > 1:
            rows[1] = dict(rows[0])

    code, out, err = _certify_with_block_fault(capsys, monkeypatch, copy_row)
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error: cell functional")
    assert "dependent" in err

@pytest.mark.parametrize("flavor", ALL_FLAVORS)
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_cells_read_on_demand_equal_the_eager_expansion(flavor, r):
    """Each cell is expanded when it is first read, whatever the order of
    the reads, and every element equals the eager expansion; iteration
    follows ``index``."""
    mb = murphy.MurphyBasis(r, flavor)
    eager = eager_elements(mb)
    for key in reversed(mb.index):
        assert mb.elements[key] == eager[key]
    assert list(mb.elements) == mb.index == list(eager)
    assert len(mb.elements) == len(mb.index)
    assert dict(mb.elements.items()) == eager
    assert (Vertex((r + 1,), 0), 0, 0) not in mb.elements
    with pytest.raises(KeyError):
        mb.elements[(mb.vertices[0], len(mb.paths[mb.vertices[0]]), 0)]


def test_cells_are_expanded_once_and_only_when_read(monkeypatch):
    expanded = []
    expand_cell = murphy.MurphyBasis.expand_cell
    monkeypatch.setattr(murphy.MurphyBasis, "expand_cell",
                        lambda self, v: expanded.append(v) or expand_cell(self, v))
    mb = murphy.MurphyBasis(4, "brauer-murphy")
    assert expanded == []
    v = mb.vertices[-1]
    first = mb.elements[(v, 0, 0)]
    assert mb.elements[(v, 0, 0)] is first
    assert expanded == [v]
    mb.transition_dets()
    assert sorted(expanded, key=mb.vertices.index) == mb.vertices
