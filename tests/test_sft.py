from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brauercell.branching as br
import brauercell.sft as sft
from brauercell.branching import Vertex
from brauercell.diagrams import AlgebraElement, walled_filter
from brauercell.exactmat import Echelon
from brauercell.matchings import BrauerDiagram, all_diagrams, all_permutation_diagrams
from brauercell.murphy import MurphyBasis, murphy_basis
from brauercell.sft import (FLAVOR_DATA, SplitBasis, algebra_dimension, certify_sft,
                            expected_image_dimension, ideal_generators,
                            ideal_span_rank, image_checks, quotient_cell_modules,
                            sum_all_diagrams, walled_signed_sum)
from brauercell.tensorrep import (FLAVOR_SPACE, TensorRep, image_lines, image_rank,
                                  image_vectors)
from cell_ops import (build_kernel_generator, is_marginal, kernel_elements_map_to_zero,
                      marginal_vertices, path_revlex_gt, permissible_dimension,
                      strictly_dominates)
from diagram_ops import tensor
from exact_ops import cancel_field, rank_q
from sparse_ops import SparseMat, matmul, scale
from tensor_ops import rep_diagram, rep_element


def elt(d, coeff=1, delta=None):
    return AlgebraElement.from_diagram(d, coeff, delta)


def sparse_solve_q(rows: list[dict[int, int]], target: dict) -> list[Fraction] | None:
    """Express ``target`` as a rational combination of ``rows``; None if outside
    the span.  Rows dependent on earlier ones get coefficient 0."""
    echelon = Echelon(cancel_field)
    for i, row in enumerate(rows):
        echelon.add({**{c: Fraction(v) for c, v in row.items() if v}, ~i: Fraction(1)})
    t = echelon.reduce({c: Fraction(v) for c, v in target.items() if v})
    if any(c >= 0 for c in t):
        return None
    coeffs = [Fraction(0)] * len(rows)
    for c, v in t.items():
        coeffs[~c] = -v
    return coeffs


def test_sparse_solve_q():
    rows = [{0: 1, 1: 1}, {1: 2}]
    assert sparse_solve_q(rows, {0: 2, 1: 4}) == [Fraction(2), Fraction(1)]
    assert sparse_solve_q(rows, {2: 1}) is None


def test_b_generator_b2():
    g = build_kernel_generator(Vertex((2,), 0), 1, 2, "symplectic")
    assert g.b == sum_all_diagrams(2, -2)
    assert g.b_prime == elt(BrauerDiagram.e(1, 2), 1, -2)
    # beta' = e_1 / 2, kept as the integral e_1 over den = 2
    assert g.beta_prime == elt(BrauerDiagram.e(1, 2), 1, -2)
    assert g.den == 2
    x = murphy_basis(2, "brauer-murphy").generators[Vertex((2,), 0)].specialize(-2)
    assert x * g.beta_prime == g.b_prime.scale(g.den)
    assert x == g.b - g.b_prime
    with pytest.raises(ValueError):
        build_kernel_generator(Vertex((1,), 0), 1, 2, "symplectic")


def test_b_generator_level4():
    # b_((2),1) at level 4 = (all of B_2) (x) 1 followed by e_3
    g = build_kernel_generator(Vertex((2,), 1), 1, 4, "symplectic")
    expected = tensor(sum_all_diagrams(2, -2), AlgebraElement.one(2, -2)) \
        * elt(BrauerDiagram.e(3, 4), 1, -2)
    assert g.b == expected


def test_d_generator_examples():
    # vertex (2) has conjugate (1,1), so it carries d_{1,1} = 1 - e_1;
    # vertex (1,1) has conjugate (2) and carries d_{2,0} = 1 - s_1
    g = build_kernel_generator(Vertex((2,), 0), 1, 2, "orthogonal")
    assert g.b == AlgebraElement.one(2, 1) - elt(BrauerDiagram.e(1, 2), 1, 1)
    g2 = build_kernel_generator(Vertex((1, 1), 0), 1, 2, "orthogonal")
    assert g2.b == AlgebraElement.one(2, 1) - elt(BrauerDiagram.s(1, 2), 1, 1)
    assert g2.b_prime.is_zero
    # (2,1)-walled diagrams of B_3 number 6 (they biject with S_3)
    count = sum(1 for d in all_diagrams(3) if walled_filter(2, 1, d)[0])
    assert count == 6
    g21 = build_kernel_generator(Vertex((2, 1), 0), 2, 3, "orthogonal")
    assert len(g21.b.terms) == 6
    assert g21.b == walled_signed_sum(2, 1, 2)


def test_orbit_correction_with_stabilizers():
    # the (12)(34) double swap stabilizes corank-2 (2,2)-walled diagrams,
    # so beta' picks up 1/2 weights there: they show as den = 2 and as odd
    # coefficients of the integral beta'_int = 2 beta' (a free orbit's are
    # even); the factorization still holds
    g = build_kernel_generator(Vertex((2, 2), 0), 3, 4, "orthogonal")
    y = murphy_basis(4, "brauer-dual-murphy").generators[Vertex((2, 2), 0)]
    assert y.specialize(3) * g.beta_prime == g.b_prime.scale(g.den)
    assert y.specialize(3) * g.beta == g.b.scale(g.den)
    assert g.den == 2
    assert all(type(c) is int for c in g.beta_prime.terms.values())
    assert any(c % 2 for c in g.beta_prime.terms.values())


@pytest.mark.parametrize("flavor,n,r,shapes", [("symplectic", 1, 5, 1), ("symplectic", 2, 6, 1),
                                               ("orthogonal", 2, 5, 2), ("orthogonal", 3, 6, 3),
                                               ("symmetric", 2, 6, 1)])
def test_one_orbit_correction_per_head_shape(flavor, n, r, shapes, monkeypatch):
    """``SplitBasis`` averages each head shape over its orbits once, however
    many marginal vertices, and paths through them, have that shape."""
    calls = []
    orbit_correction = sft._orbit_correction
    monkeypatch.setattr(sft, "_orbit_correction",
                        lambda head, group: calls.append(head) or orbit_correction(head, group))
    SplitBasis(r, n, flavor, max_r=r)
    assert len(calls) == shapes


@pytest.mark.parametrize("flavor,ns,max_level", [("symplectic", (1, 2), 5),
                                                 ("orthogonal", (1, 2, 3), 5)])
def test_marginal_identity_and_factorization(flavor, ns, max_level):
    """m = b - b'; den b' = m beta'_int with support of corank >= m+1
    (axiom Q2), and den b = m beta."""
    basis_flavor = FLAVOR_DATA[flavor]
    for n in ns:
        delta0 = -2 * n if flavor == "symplectic" else n
        for level in range(1, max_level + 1):
            mb = murphy_basis(level, basis_flavor)
            for v in marginal_vertices(level, n, flavor):
                if v.level != level:
                    continue
                g = build_kernel_generator(v, n, level, flavor)
                gen = mb.generators[v].specialize(delta0)
                assert gen == g.b - g.b_prime
                assert gen * g.beta_prime == g.b_prime.scale(g.den)
                assert gen * g.beta == g.b.scale(g.den)
                assert all(d.rank_corank()[1] >= v.l + 1 for d in g.b_prime.terms)


@pytest.mark.parametrize("flavor,key", [("symplectic", "symplectic"),
                                        ("orthogonal", "orthogonal"),
                                        ("symmetric", "symmetric")])
def test_q1_permissible_successors_and_predecessors(flavor, key):
    add_only = flavor == "symmetric"
    pred = br.PERMISSIBLE[key]
    for n in (1, 2, 3):
        for level in range(0, 6):
            for v in br.vertices_at_level(level, add_only):
                if not pred(v, n):
                    continue
                succs = br.young_edges(v) if add_only else br.brauer_edges(v)
                assert any(pred(w, n) for w in succs)
                if level >= 1:
                    prevs = [u for u in br.vertices_at_level(level - 1, add_only)
                             if br.is_edge(u, v, add_only)]
                    assert any(pred(u, n) for u in prevs)


def test_split_basis_b2():
    sb = SplitBasis(2, 1, "symplectic")
    v = Vertex((2,), 0)
    assert not sb.path_permissible[(v, 0)]
    assert sb.element(v, 0, 0) == sum_all_diagrams(2, -2)
    # permissible pairs keep their Murphy representative
    v11 = Vertex((1, 1), 0)
    assert sb.element(v11, 0, 0) == AlgebraElement.one(2, -2)
    assert sb.kernel_count() == 1
    assert permissible_dimension(sb) == 2


@pytest.mark.parametrize("flavor,n,rmax", [("symplectic", 1, 5), ("symplectic", 2, 5),
                                           ("orthogonal", 2, 5)])
def test_split_basis_unitriangular(flavor, n, rmax):
    for r in range(2, rmax + 1):
        sb = SplitBasis(r, n, flavor)
        for v in sb.basis.vertices:
            paths = sb.basis.paths[v]
            for ti in range(len(paths)):
                vec = sb.module_vector(v, ti)
                assert vec[ti] == 1
                for tj in range(len(paths)):
                    if tj != ti and vec[tj] != 0:
                        assert path_revlex_gt(paths[tj], paths[ti], sb.basis.dual)


def test_split_equals_murphy_on_permissible():
    sb = SplitBasis(3, 1, "symplectic")
    for v in sb.basis.vertices:
        for ti in range(len(sb.basis.paths[v])):
            if sb.path_permissible[(v, ti)]:
                vec = sb.module_vector(v, ti)
                assert vec == [1 if tj == ti else 0
                               for tj in range(len(sb.basis.paths[v]))]


def test_certify_symplectic_n1():
    cert = certify_sft(SplitBasis(2, 1, "symplectic"), fields=(2, 3, 5))
    assert cert.passed
    got = {c.name: c.got for c in cert.checks}
    assert got["image rank over Q = sum of squared permissible path counts"] == 2
    cert3 = certify_sft(SplitBasis(3, 1, "symplectic"))
    assert cert3.passed
    got3 = {c.name: c.got for c in cert3.checks}
    assert got3["image rank over Q = sum of squared permissible path counts"] == 5
    assert got3["kernel count + image dimension"] == 15  # dim ker = 10


def test_certify_orthogonal_n1_r2():
    # V is one-dimensional: the image is the scalars, the kernel has rank 2
    cert = certify_sft(SplitBasis(2, 1, "orthogonal"))
    assert cert.passed
    got = {c.name: (c.expected, c.got) for c in cert.checks}
    assert got["image rank over Q = sum of squared permissible path counts"] == (1, 1)


def test_faithful_below_n():
    # r <= N: no kernel at all
    assert expected_image_dimension(3, 3, "symplectic") == algebra_dimension(3, "symplectic")
    assert expected_image_dimension(4, 4, "orthogonal") == algebra_dimension(4, "orthogonal")
    assert ideal_generators(3, 3, "symplectic", -6) == []
    cert = certify_sft(SplitBasis(2, 2, "symplectic"))
    assert cert.passed
    # full-rank certificates at the faithfulness boundary
    assert certify_sft(SplitBasis(3, 3, "symplectic")).passed
    assert certify_sft(SplitBasis(4, 4, "orthogonal")).passed
    assert certify_sft(SplitBasis(3, 3, "symmetric")).passed


def test_harterich_examples():
    cert = certify_sft(SplitBasis(3, 2, "symmetric"))
    assert cert.passed
    got = {c.name: c.got for c in cert.checks}
    assert got["image rank over Q"] == 5  # dim ker = 1
    cert4 = certify_sft(SplitBasis(4, 2, "symmetric"))
    assert cert4.passed
    got4 = {c.name: c.got for c in cert4.checks}
    assert got4["image rank over Q"] == 14  # dim ker = 10
    assert certify_sft(SplitBasis(2, 3, "symmetric")).passed  # faithful for r <= N


def test_harterich_kernel_generator_is_antisymmetrizer():
    gens = ideal_generators(3, 2, "symmetric", None)
    assert len(gens) == 1
    g = gens[0]
    assert len(g.terms) == 6
    assert all(c in (1, -1) for c in g.terms.values())


def test_quotient_cell_modules_examples():
    q = quotient_cell_modules(SplitBasis(2, 1, "symplectic"))
    assert q.passed
    byname = {c.name: (c.expected, c.got) for c in q.checks}
    assert byname["Gram rank at (),1"] == (1, 1)
    q3 = quotient_cell_modules(SplitBasis(3, 1, "symplectic"))
    assert q3.passed
    byname3 = {c.name: (c.expected, c.got) for c in q3.checks}
    assert byname3["Gram rank at (1,),1"] == (2, 2)


def test_dims_examples():
    # symplectic N=2, r=2: all of B_2 injects
    assert expected_image_dimension(2, 2, "symplectic") == 3
    # symmetric N=2, r=3
    assert expected_image_dimension(3, 2, "symmetric") == 5
    # symplectic N=1: Catalan numbers
    assert [expected_image_dimension(r, 1, "symplectic") for r in (1, 2, 3, 4, 5)] \
        == [1, 2, 5, 14, 42]


def test_ideal_span_small():
    gens = ideal_generators(2, 1, "symplectic", -2)
    assert ideal_span_rank(gens, 2, "symplectic") == 1
    gens_o = ideal_generators(2, 1, "orthogonal", 1)
    assert ideal_span_rank(gens_o, 2, "orthogonal") == 2


def _sandwich_rank(gens, r, flavor):
    """Oracle for ideal_span_rank: the rank of every product D1 * g * D2."""
    diagrams = (all_permutation_diagrams(r) if flavor == "symmetric"
                else all_diagrams(r))
    index = {d: i for i, d in enumerate(diagrams)}
    delta0 = gens[0].delta if gens else None
    rows = []
    for g in gens:
        for d1 in diagrams:
            left = elt(d1, 1, delta0) * g
            for d2 in diagrams:
                prod = left * elt(d2, 1, delta0)
                rows.append({index[d]: c for d, c in prod.terms.items()})
    return rank_q(rows)


# every case with nonempty generators (r > N) up to N = 3, r = 3, and a few at r = 4
SPIN_CASES = ([(f, n, r) for f in FLAVOR_DATA for n in (1, 2, 3)
               for r in range(n + 1, 4)]
              + [("symplectic", 1, 4), ("orthogonal", 1, 4),
                 ("symmetric", 1, 4), ("symmetric", 2, 4)])


@pytest.mark.parametrize("flavor,n,r", SPIN_CASES)
def test_ideal_span_rank_matches_sandwich(flavor, n, r):
    gens = ideal_generators(r, n, flavor, FLAVOR_SPACE[flavor][1](n))
    got = ideal_span_rank(gens, r, flavor)
    assert got == _sandwich_rank(gens, r, flavor)
    assert got == algebra_dimension(r, flavor) - expected_image_dimension(r, n, flavor)


@pytest.mark.parametrize("delta0", [1, -2, 0])
def test_ideal_span_rank_beyond_the_kernel(delta0):
    # B e_1 B is spanned by the 15 - 3! diagrams with a horizontal strand;
    # the unit generates all of B_3, also at delta = 0
    e1 = elt(BrauerDiagram.e(1, 3), 1, delta0)
    one = AlgebraElement.one(3, delta0)
    assert ideal_span_rank([e1], 3, "orthogonal") == 9 == _sandwich_rank([e1], 3, "orthogonal")
    assert ideal_span_rank([one], 3, "orthogonal") == 15 == _sandwich_rank([one], 3, "orthogonal")


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([("orthogonal", 1), ("orthogonal", -2), ("orthogonal", 0),
                        ("orthogonal", 3), ("symmetric", None)]),
       st.lists(st.lists(st.tuples(st.integers(0, 14), st.integers(-3, 3)),
                         min_size=1, max_size=4), min_size=1, max_size=2))
def test_ideal_span_rank_random_elements(flavor_delta, terms):
    flavor, delta0 = flavor_delta
    ds = all_permutation_diagrams(3) if flavor == "symmetric" else all_diagrams(3)
    gens = [sum((AlgebraElement.from_diagram(ds[i % len(ds)], c, delta0) for i, c in g),
                AlgebraElement.zero(3, delta0)) for g in terms]
    assert ideal_span_rank(gens, 3, flavor) == _sandwich_rank(gens, 3, flavor)


def test_quotient_cellularity_shadow(rng):
    """Images of permissible Murphy elements form a basis in which the
    product phi(m_st) phi(a) expands over permissible (lambda; s, v) cells
    plus strictly dominating ones."""
    r, n = 3, 1
    sb = SplitBasis(r, n, "symplectic")
    rep = TensorRep("symplectic", n, r)
    labels, rows = [], []
    for v in sb.basis.vertices:
        for s in range(len(sb.basis.paths[v])):
            for t in range(len(sb.basis.paths[v])):
                if sb.pair_permissible(v, s, t):
                    labels.append((v, s, t))
                    rows.append(rep_element(
                        rep, sb.basis.elements[(v, s, t)].specialize(-2)).to_vector())
    ds = all_diagrams(r)
    for _ in range(6):
        a = elt(rng.choice(ds), 1, -2)
        for (v, s, t) in labels[:4]:
            prod = sb.basis.elements[(v, s, t)].specialize(-2) * a
            coeffs = sparse_solve_q(rows, rep_element(rep, prod).to_vector())
            assert coeffs is not None
            for (w, u1, u2), c in zip(labels, coeffs):
                if c == 0:
                    continue
                if w == v:
                    assert u1 == s
                else:
                    assert strictly_dominates(sb.basis, w, v)


@pytest.mark.parametrize("r,n", [(3, 1), (4, 2), (5, 2), (5, 3)])
def test_split_basis_of_the_symmetric_group(r, n):
    """The symmetric group is the third split-basis case: at each vertex of
    N+1 rows the kernel generator is b = y_lam with beta = 1 over den = 1,
    every a_t is d_t over 1, and the kernel cells are those of more than N
    rows."""
    split = SplitBasis(r, n, "symmetric")
    basis = split.basis
    for v in basis.vertices:
        if len(v.lam) == n + 1:
            g = build_kernel_generator(v, n, r, "symmetric")
            assert g.b == basis.generators[v]
            assert g.beta == AlgebraElement.one(r)
            assert g.den == 1
    for key, (a_t, den) in split.a_elements.items():
        assert a_t == basis.d_elements[key]
        assert den == 1
    for v, s, t in split.iter_pairs():
        assert split.pair_permissible(v, s, t) == (len(v.lam) <= n)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_place_vectors_match_rep_element(r, n):
    """The place-permutation images read by ``certify_sft`` are the full
    images of the basis elements restricted to the orbit rows."""
    basis = murphy_basis(r, "symmetric-dual")
    rep = TensorRep("symmetric", n, r)
    vectors = list(image_vectors((basis.elements[key] for key in basis.index), rep))
    chosen = set(rep.orbit_rows())
    assert len(vectors) == len(basis.index)
    for key, vec in zip(basis.index, vectors):
        full = rep_element(rep, basis.elements[key]).to_vector()
        assert vec == {k: x for k, x in full.items() if k // rep.size in chosen}


def _fold_scale_add(rep: TensorRep, images: dict, a: AlgebraElement) -> SparseMat:
    """The image of a as the sum of scaled copies, each sum a fresh matrix."""
    out = None
    for d, c in a.terms.items():
        m = scale(images[d], c)
        if out is not None:
            acc = SparseMat(rep.size, {i: dict(row) for i, row in out.rows.items()})
            for i, row in m.rows.items():
                for j, v in row.items():
                    acc.add(i, j, v)
            m = acc
        out = m
    return out if out is not None else SparseMat(rep.size)


@pytest.mark.parametrize("flavor,n", [("symplectic", 1), ("symplectic", 2),
                                      ("orthogonal", 2), ("orthogonal", 3)])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_rep_element_from_images_matches_fold(flavor, n, r):
    """On a_t = A_t / den_t and m a_t, with their Fraction coefficients:
    ``image_vectors``,
    which keeps each diagram's image across elements, sums the images as a
    fold of scaled copies of the diagram images on the orbit rows does."""
    split = SplitBasis(r, n, flavor)
    rep = TensorRep(flavor, n, r)
    rows = rep.orbit_rows()
    images = {d: SparseMat(rep.size, rep_diagram(rep, d, rows)) for d in split.basis.diagrams}
    elements = []
    for v in split.basis.vertices:
        gen = split.basis.generators[v].specialize(split.delta0)
        for t in range(len(split.basis.paths[v])):
            a_t, den = split.a_elements[(v, t)]
            a_t = a_t.scale(Fraction(1, den))
            elements += [a_t, gen * a_t]
    assert list(image_vectors(elements, rep)) == [
        _fold_scale_add(rep, images, a).to_vector() for a in elements]


def _factored_route(split: SplitBasis, rep: TensorRep):
    """The former route of ``certify_sft``, kept as the oracle: every
    diagram's image on all rows, and Phi(n_st) = Phi(m a_s)^T Phi(a_t) read
    on the orbit rows, for every pair.  Returns the permissible vectors in
    ``iter_pairs`` order and whether every kernel-flagged n_st maps to
    zero."""
    rows = rep.orbit_rows()
    perm_vectors, kernel_zero = [], True
    for v in split.basis.vertices:
        npaths = len(split.basis.paths[v])
        gen = split.basis.generators[v].specialize(split.delta0)
        corrections = [split.a_elements[(v, t)][0] for t in range(npaths)]
        lefts = [rep_element(rep, (gen * a).involution(), rows) for a in corrections]
        rights = [rep_element(rep, a) for a in corrections]
        for s in range(npaths):
            for t in range(npaths):
                mat = matmul(lefts[s], rights[t])
                if split.pair_permissible(v, s, t):
                    perm_vectors.append(mat.to_vector())
                elif not mat.is_zero:
                    kernel_zero = False
    return perm_vectors, kernel_zero


SPLIT_GRID = ([(f, n, r) for f in ("symplectic", "orthogonal") for n in (1, 2, 3)
               for r in (1, 2, 3, 4)] + [("symplectic", 1, 5), ("orthogonal", 2, 5)])


@pytest.mark.parametrize("flavor,n,r", SPLIT_GRID)
def test_split_image_vectors_match_factored_route(flavor, n, r, monkeypatch):
    """The lines ``certify_sft`` hands to the rank are those of the
    factored route, and both find every kernel-flagged n_st zero."""
    split = SplitBasis(r, n, flavor)
    vectors, kernel_zero = _factored_route(split, TensorRep(flavor, n, r))
    handed = []

    def capture(vecs):
        lines = image_lines(vecs)
        handed.append([dict(line) for line in lines])   # the rank consumes them
        return lines

    monkeypatch.setattr(sft, "image_lines", capture)
    cert = certify_sft(split)
    [lines] = handed
    # the same columns {pair index: value}, in the order each route meets them
    assert sorted(map(sorted, map(dict.items, lines))) == sorted(
        map(sorted, map(dict.items, image_lines(vectors))))
    got = {c.name: c.got for c in cert.checks}
    assert got["kernel elements map to zero"] is kernel_zero is True


@pytest.mark.parametrize("flavor,n,r", SPLIT_GRID)
def test_split_element_is_murphy_element_on_permissible_pairs(flavor, n, r):
    """a_s* m a_t = m_st at delta0 when s and t are permissible, which
    ``SplitBasis.element`` returns there without forming the product."""
    split = SplitBasis(r, n, flavor)
    for v, s, t in split.iter_pairs():
        if split.pair_permissible(v, s, t):
            gen = split.basis.generators[v].specialize(split.delta0)
            (a_s, den_s), (a_t, den_t) = split.a_elements[(v, s)], split.a_elements[(v, t)]
            assert den_s == den_t == 1
            prod = (a_s.involution() * gen) * a_t
            assert prod == split.basis.elements[(v, s, t)].specialize(split.delta0)
            assert split.element(v, s, t) == prod


@pytest.mark.parametrize("flavor", ["symmetric", "symmetric-dual", "brauer-murphy",
                                    "brauer-dual-murphy"])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_cell_generators_are_self_adjoint(flavor, r):
    """m* = m, which ``certify_sft`` uses for a non-permissible s."""
    basis = murphy_basis(r, flavor)
    for v in basis.vertices:
        assert basis.generators[v].involution() == basis.generators[v]


@pytest.mark.parametrize("flavor,n,r", [("symplectic", 1, 3), ("symplectic", 1, 4),
                                        ("orthogonal", 2, 4), ("orthogonal", 1, 3)])
def test_kernel_line_fails_without_the_correction(flavor, n, r):
    """Replacing one non-permissible a_t by d_t, at a permissible vertex,
    leaves a kernel-flagged n_st off the kernel; the certificate says so."""
    split = SplitBasis(r, n, flavor)
    v, t = next((v, t) for v in split.basis.vertices if split.perm_pred(v)
                for t in range(len(split.basis.paths[v]))
                if not split.path_permissible[(v, t)])
    split.a_elements[(v, t)] = (split.basis.d_elements[(v, t)].specialize(split.delta0), 1)
    assert _factored_route(split, TensorRep(flavor, n, r))[1] is False
    cert = certify_sft(split)
    line = next(c for c in cert.checks if c.name == "kernel elements map to zero")
    assert not line.passed and not cert.passed


HARTERICH_GRID = [(r, n) for n in (1, 2, 3, 4) for r in range(1, 6)] + [(6, 2)]


@pytest.mark.parametrize("r,n", HARTERICH_GRID)
def test_kernel_generator_line_agrees_with_every_kernel_element(r, n):
    """The kernel line images y_lam d_u for each path u of each kernel cell;
    the oracle images every element of every kernel cell, on all rows."""
    cert = certify_sft(SplitBasis(r, n, "symmetric"))
    got = {c.name: c.got for c in cert.checks}
    assert kernel_elements_map_to_zero(r, n)
    assert got["kernel cells map to zero"] is True
    assert cert.passed


def _fresh_symmetric_split(r, n, monkeypatch):
    """A symmetric split basis on a basis of its own, not the cached one,
    so that a test may change its data."""
    monkeypatch.setattr(sft, "murphy_basis", lambda r, flavor, max_r=None: MurphyBasis(r, flavor))
    return SplitBasis(r, n, "symmetric")


@pytest.mark.parametrize("r,n", [(3, 2), (4, 2), (5, 3)])
def test_kernel_line_fails_on_a_generator_with_a_nonzero_image(r, n, monkeypatch):
    """A kernel cell whose generator is replaced by that of a cell of at
    most N rows, whose image is not zero, turns the kernel line False."""
    split = _fresh_symmetric_split(r, n, monkeypatch)
    basis = split.basis
    kernel = next(v for v in basis.vertices if len(v.lam) > n)
    image = next(v for v in basis.vertices if len(v.lam) <= n)
    basis.generators[kernel] = basis.generators[image]
    cert = certify_sft(split)
    line = next(c for c in cert.checks if c.name == "kernel cells map to zero")
    assert not line.passed and not cert.passed


def test_harterich_expands_no_kernel_cell(monkeypatch):
    """At r=6, N=2 the certificate reads the cells of at most 2 rows only."""
    split = _fresh_symmetric_split(6, 2, monkeypatch)
    basis = split.basis
    expanded = []
    expand_cell = MurphyBasis.expand_cell
    monkeypatch.setattr(MurphyBasis, "expand_cell",
                        lambda self, v: expanded.append(v) or expand_cell(self, v))
    assert certify_sft(split).passed
    assert expanded
    assert sorted(expanded, key=basis.vertices.index) == [
        v for v in basis.vertices if len(v.lam) <= 2]


@pytest.mark.parametrize("flavor,n,r", [("symplectic", 1, 4), ("symplectic", 2, 4),
                                        ("orthogonal", 1, 4), ("orthogonal", 2, 4),
                                        ("symmetric", 2, 4), ("symmetric", 3, 5)])
def test_corrections_equal_the_product_formula(flavor, n, r):
    """Every A_t = den a_t is d_{t2} beta d_{t1} over the den of beta,
    formed as products, also where beta = 1 and ``SplitBasis`` reads d_t
    from the basis instead."""
    split = SplitBasis(r, n, flavor)
    basis = split.basis
    for (v, ti), (a_t, den) in split.a_elements.items():
        t = basis.paths[v][ti]
        if split.path_permissible[(v, ti)]:
            assert a_t == basis.d_elements[(v, ti)].specialize(split.delta0)
            assert den == 1
            continue
        k = next(i for i, w in enumerate(t) if not split.perm_pred(w))
        gen = build_kernel_generator(t[k], n, r, flavor, split.delta0)
        assert den == gen.den
        assert a_t == (basis.path_d(t[k:], split.delta0) * gen.beta
                       * basis.path_d(t[:k + 1], split.delta0))


FP_GRID = [("symplectic", 1, 4), ("orthogonal", 2, 4), ("symmetric", 2, 4)]


@pytest.mark.parametrize("flavor,n,r", FP_GRID)
def test_fp_line_reads_the_permissible_lines(flavor, n, r, monkeypatch):
    """When the permissible lines reach their count mod p, the F_p line
    images no diagram beyond the Q lines, and its value is the rank of the
    whole image, ``image_rank`` on all diagrams."""
    split = SplitBasis(r, n, flavor)
    rep = TensorRep(flavor, n, r)
    expected = {p: image_rank(split.basis.diagrams, rep, p) for p in (3, 5)}
    calls = []
    diagram_columns = TensorRep.diagram_columns
    monkeypatch.setattr(TensorRep, "diagram_columns",
                        lambda self, d, rows: calls.append(d) or diagram_columns(self, d, rows))
    certify_sft(split)
    q_calls = len(calls)
    calls.clear()
    cert = certify_sft(split, fields=(3, 5))
    assert len(calls) == q_calls
    got = {c.name: c.got for c in cert.checks}
    assert got["image rank over F_3"] == expected[3] == expected_image_dimension(r, n, flavor)
    assert got["image rank over F_5"] == expected[5]
    assert cert.passed


@pytest.mark.parametrize("flavor,n,r", FP_GRID)
def test_fp_line_falls_back_to_all_diagrams(flavor, n, r, monkeypatch):
    """A rank on the permissible lines that falls short, or a failed kernel
    line, sends the F_p line to ``image_rank`` on all diagrams, whose value
    it reports."""
    split = SplitBasis(r, n, flavor)
    rep = TensorRep(flavor, n, r)
    diagrams = split.basis.diagrams
    full = image_rank(diagrams, rep, 3)
    rank = sft.rank
    monkeypatch.setattr(sft, "rank",
                        lambda lines, p=None: rank(lines, p) - (p is not None))
    calls = []
    diagram_columns = TensorRep.diagram_columns
    monkeypatch.setattr(TensorRep, "diagram_columns",
                        lambda self, d, rows: calls.append(d) or diagram_columns(self, d, rows))
    cert = certify_sft(split, fields=(3,))
    assert {c.name: c.got for c in cert.checks}["image rank over F_3"] == full
    assert calls[-len(diagrams):] == list(diagrams)
    monkeypatch.setattr(sft, "rank", rank)
    # ``image_checks`` on the identity, whose image has rank 1
    one = AlgebraElement.one(r, rep.delta0)
    identity = next(iter(one.terms))
    cases = [([one], [one], False, True),   # a kernel element off the kernel
             ([one], [], True, False),      # the lines reach the count
             ([one, one], [], True, True)]  # the lines fall short of the count
    for image, kernel, kernel_zero, falls_back in cases:
        calls.clear()
        got = image_checks(image, len(image), kernel, diagrams, rep, (3,))
        assert got == (kernel_zero, [(3, full if falls_back else 1)], 1)
        assert calls == [identity] + (list(diagrams) if falls_back else [])


def _int_coeffs(x: AlgebraElement) -> bool:
    return all(type(c) is int for c in x.terms.values())


@pytest.mark.parametrize("flavor", ["symplectic", "orthogonal", "symmetric"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_corrections_and_split_elements_are_integral(flavor, n):
    """No rational is formed on the way to the split basis: every
    coefficient of beta', beta, b', each A_t, each n_st = ``element`` and
    each m A_u of the kernel stream is an int, for r <= 5, and so is each
    entry of a split module vector."""
    for r in range(1, 6):
        split = SplitBasis(r, n, flavor)
        basis = split.basis
        for v in basis.vertices:
            if is_marginal(v, n, flavor):
                g = build_kernel_generator(v, n, r, flavor, split.delta0)
                assert all(map(_int_coeffs, (g.beta_prime, g.beta, g.b_prime)))
                assert type(g.den) is int
        for (v, u), (a_u, den) in split.a_elements.items():
            assert _int_coeffs(a_u) and type(den) is int
            if not split.path_permissible[(v, u)]:
                assert _int_coeffs(basis.generators[v].specialize(split.delta0) * a_u)
                if split.perm_pred(v):
                    assert all(type(c) is int for c in split.module_vector(v, u))
        assert all(_int_coeffs(split.element(*key)) for key in split.iter_pairs())


def test_split_division_raises_on_a_remainder():
    """``element`` and ``module_vector`` divide by den_s den_t and den_t
    exactly: a denominator that does not divide the products raises."""
    split = SplitBasis(3, 1, "symplectic")
    v, t = next((v, t) for v in split.basis.vertices if split.perm_pred(v)
                for t in range(len(split.basis.paths[v]))
                if not split.path_permissible[(v, t)])
    a_t, den = split.a_elements[(v, t)]
    assert den == 2
    split.a_elements[(v, t)] = (a_t, 7919)
    with pytest.raises(ArithmeticError):
        split.element(v, t, t)
    with pytest.raises(ArithmeticError):
        split.module_vector(v, t)
