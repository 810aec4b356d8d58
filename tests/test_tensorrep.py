import itertools

import pytest

from brauercell.diagrams import AlgebraElement
from brauercell.errors import CapExceeded
from brauercell.exactmat import rank
from brauercell.matchings import (BrauerDiagram, all_diagrams, all_permutation_diagrams,
                                  perm_sign)
from brauercell.tensorrep import TensorRep, image_lines, image_rank, image_vectors
from exact_ops import det_cofactor, rank_q
from sparse_ops import SparseMat, identity, matmul, scale, transpose
from tensor_ops import (form_pair, pfaffian_diagram_sum, pfaffian_functional,
                        pfaffian_interleaved, pfaffian_recursive, place_matrix,
                        rep_diagram, rep_diagram_closed_form, rep_element, walled_det_matrix,
                        walled_det_sum)

FLAVOR_GRID = [("symplectic", 1), ("symplectic", 2), ("orthogonal", 1),
               ("orthogonal", 2), ("orthogonal", 3)]


def elt(d, coeff=1, delta=None):
    return AlgebraElement.from_diagram(d, coeff, delta)


def kernel_membership(a: AlgebraElement, rep: TensorRep) -> bool:
    return rep_element(rep, a).is_zero


def full_image(rep: TensorRep, d: BrauerDiagram) -> dict[int, dict[int, int]]:
    """``rep_diagram`` on every row."""
    return rep_diagram(rep, d, range(rep.size))


def triplets(rows: dict[int, dict[int, int]]) -> list[tuple[int, int, int]]:
    return sorted((i, j, v) for i, row in rows.items() for j, v in row.items())


def to_csv(rows: dict[int, dict[int, int]]) -> str:
    """Triplet dump "row,col,value", one entry per line."""
    return "\n".join(f"{i},{j},{v}" for i, j, v in triplets(rows))


def sum_all(r, delta):
    out = AlgebraElement.zero(r, delta)
    for d in all_diagrams(r):
        out = out + elt(d, 1, delta)
    return out


# -- bilinear structure ------------------------------------------------------


@pytest.mark.parametrize("flavor,n", FLAVOR_GRID)
def test_omega_properties(flavor, n):
    form = TensorRep(flavor, n, 1)
    dim = form.dim
    omega = form.omega

    def pair(x, y):
        return form_pair(form, x, y)
    # x . omega = x and omega . x = x  (x . (v (x) w) = [x,v] w)
    for x in range(dim):
        left = {}
        for a, b, c in omega:
            v = pair(x, a) * c
            if v:
                left[b] = left.get(b, 0) + v
        assert left == {x: 1}
        right = {}
        for a, b, c in omega:
            v = c * pair(b, x)
            if v:
                right[a] = right.get(a, 0) + v
        assert right == {x: 1}
    # [x (x) y, omega] = [y, x]
    for x in range(dim):
        for y in range(dim):
            val = sum(pair(x, a) * pair(y, b) * c for a, b, c in omega)
            assert val == pair(y, x)


def test_form_tables():
    """The form tables ``TensorRep`` builds once: the Darboux signs and
    their omega for the symplectic flavor, all ones for the orthogonal one,
    none for the symmetric flavor."""
    sp = TensorRep("symplectic", 2, 1)
    assert sp.pair_sign == [1, 1, -1, -1]
    assert sp.omega == [(3, 0, 1), (2, 1, 1), (1, 2, -1), (0, 3, -1)]
    orth = TensorRep("orthogonal", 3, 1)
    assert orth.pair_sign == [1, 1, 1]
    assert orth.omega == [(2, 0, 1), (1, 1, 1), (0, 2, 1)]
    perm = TensorRep("symmetric", 3, 1)
    assert perm.pair_sign is None and perm.omega is None


def generator_e(rep: TensorRep, i: int) -> SparseMat:
    """E in tensor places i, i+1 (1-indexed): (x ten y)E = [x,y] omega."""
    m = SparseMat(rep.size)
    d, r = rep.dim, rep.r
    stride_i, stride_j = d ** (r - i), d ** (r - i - 1)
    for w in itertools.product(range(d), repeat=r - 2):
        base = rep.idx((*w[:i - 1], 0, 0, *w[i - 1:]))
        for xi in range(d):
            c = form_pair(rep, xi, d - 1 - xi)
            row = base + xi * stride_i + (d - 1 - xi) * stride_j
            for a, b, coeff in rep.omega:
                m.add(row, base + a * stride_i + b * stride_j, c * coeff)
    return m


def generator_s(rep: TensorRep, i: int) -> SparseMat:
    """S in tensor places i, i+1: (x ten y)S = y ten x."""
    return place_matrix(rep, (*range(1, i), i + 1, i, *range(i + 2, rep.r + 1)))


@pytest.mark.parametrize("flavor,n", FLAVOR_GRID)
def test_e_s_relations(flavor, n):
    rep = TensorRep(flavor, n, 2)
    E, S = generator_e(rep, 1), generator_s(rep, 1)
    eps, dim = (-1 if flavor == "symplectic" else 1), rep.dim
    assert matmul(E, S) == matmul(S, E) == scale(E, eps)
    assert matmul(E, E) == scale(E, eps * dim)
    assert transpose(E) == E
    assert transpose(S) == S
    assert matmul(S, S) == identity(rep.size)


def test_symplectic_e_matrix_n1():
    # (v1 (x) v2) E = omega = v2 (x) v1 - v1 (x) v2, and E kills v_i (x) v_i
    rep = TensorRep("symplectic", 1, 2)
    E = generator_e(rep, 1)
    assert E.rows.get(1) == {2: 1, 1: -1}
    assert E.rows.get(2) == {1: 1, 2: -1}
    assert 0 not in E.rows and 3 not in E.rows


def test_kernel_membership_examples():
    rep = TensorRep("symplectic", 1, 2)
    assert kernel_membership(sum_all(2, -2), rep)
    assert not kernel_membership(elt(BrauerDiagram.e(1, 2), 1, -2), rep)
    repo = TensorRep("orthogonal", 1, 2)
    d11 = AlgebraElement.one(2, delta=1) - elt(BrauerDiagram.e(1, 2), 1, 1)
    assert kernel_membership(d11, repo)


def _place_matrix_by_words(rep: TensorRep, pi: tuple[int, ...]) -> SparseMat:
    """The place permutation built word by word: the factor in place j
    moves to place pi(j)."""
    m = SparseMat(rep.size)
    for word in itertools.product(range(rep.dim), repeat=rep.r):
        out = [0] * rep.r
        for j in range(rep.r):
            out[pi[j] - 1] = word[j]
        m.add(rep.idx(word), rep.idx(tuple(out)), 1)
    return m


@pytest.mark.parametrize("n,r", [(1, 3), (2, 3), (3, 3), (2, 4), (3, 4)])
def test_place_matrix_matches_word_loop(n, r):
    rep = TensorRep("symmetric", n, r)
    for pi in itertools.permutations(range(1, r + 1)):
        assert place_matrix(rep, pi) == _place_matrix_by_words(rep, pi)


def test_parameter_mismatch():
    rep = TensorRep("symplectic", 1, 2)
    with pytest.raises(ValueError):
        rep_element(rep, AlgebraElement.one(2, delta=1))
    with pytest.raises(ValueError):
        rep_element(rep, AlgebraElement.one(2))
    with pytest.raises(ValueError):
        list(image_vectors([AlgebraElement.one(2, delta=1)], rep))
    with pytest.raises(ValueError):
        list(image_vectors([AlgebraElement.one(3, delta=-2)], rep))


def _generator_matrix_product(rep: TensorRep, diag: BrauerDiagram) -> SparseMat:
    """P(sigma) E_1 E_3 ... E_{2s-1} P(tau) as a product of full matrices."""
    top, bot, vert = diag.strand_types()
    s = len(top)
    sigma, tau = [0] * rep.r, [0] * rep.r
    for k, (i, j) in enumerate(top):
        sigma[i - 1], sigma[j - 1] = 2 * k + 1, 2 * k + 2
    for k, (i, j) in enumerate(bot):
        tau[2 * k], tau[2 * k + 1] = i, j
    for k, (i, j) in enumerate(vert):
        sigma[i - 1] = 2 * s + k + 1
        tau[2 * s + k] = j
    mat = place_matrix(rep, tuple(sigma))
    for k in range(s):
        mat = matmul(mat, generator_e(rep, 2 * k + 1))
    mat = matmul(mat, place_matrix(rep, tuple(tau)))
    if rep.flavor == "symplectic":
        mat = scale(mat, perm_sign(sigma) * perm_sign(tau))
    return mat


@pytest.mark.parametrize("flavor,n", [("symplectic", 1), ("symplectic", 2),
                                      ("orthogonal", 2), ("orthogonal", 3)])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_closed_form_equals_generator_products(flavor, n, r):
    rep = TensorRep(flavor, n, r)
    for d in all_diagrams(r):
        image = _generator_matrix_product(rep, d)
        assert rep_diagram_closed_form(rep, d) == image
        assert full_image(rep, d) == image.rows


# -- orbit rows ----------------------------------------------------------------


def _letter_group(rep: TensorRep) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The letter group H as (pi, eps): v_x -> eps[x] v_pi[x] is the signed
    permutation g_pi of V.  Brauer flavors: the permutations commuting with
    x -> d-1-x, signed on each pair so that the symplectic form is kept;
    symmetric flavor: all of S_N, unsigned."""
    d = rep.dim
    out = []
    for pi in itertools.permutations(range(d)):
        if rep.omega is None:
            out.append((pi, (1,) * d))
            continue
        if any(pi[d - 1 - x] != d - 1 - pi[x] for x in range(d)):
            continue
        eps = [1] * d
        if rep.flavor == "symplectic":
            for x in range(d // 2):
                eps[d - 1 - x] = form_pair(rep, pi[x], d - 1 - pi[x])
        out.append((pi, tuple(eps)))
    return out


def _tensor_power(rep: TensorRep, pi, eps) -> SparseMat:
    """g_pi^{tensor r}: the word w goes to pi(w) with sign prod eps[w_j]."""
    m = SparseMat(rep.size)
    for w in itertools.product(range(rep.dim), repeat=rep.r):
        sign = 1
        for x in w:
            sign *= eps[x]
        m.add(rep.idx(w), rep.idx(tuple(pi[x] for x in w)), sign)
    return m


def _diagrams(rep: TensorRep):
    return (all_permutation_diagrams(rep.r) if rep.flavor == "symmetric"
            else all_diagrams(rep.r))


ORBIT_GRID = [("symplectic", 1), ("symplectic", 2), ("symplectic", 3),
              ("orthogonal", 1), ("orthogonal", 2), ("orthogonal", 3),
              ("orthogonal", 4), ("orthogonal", 5), ("symmetric", 1),
              ("symmetric", 2), ("symmetric", 3), ("symmetric", 4)]


@pytest.mark.parametrize("flavor,n", ORBIT_GRID)
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_orbit_rows_one_per_orbit(flavor, n, r):
    rep = TensorRep(flavor, n, r)
    group = _letter_group(rep)
    rows = rep.orbit_rows()
    assert list(rows) == sorted(set(rows))
    chosen = set(rows)
    seen = set()
    orbits = 0
    for w in itertools.product(range(rep.dim), repeat=r):
        if rep.idx(w) in seen:
            continue
        orbit = {rep.idx(tuple(pi[x] for x in w)) for pi, _ in group}
        seen |= orbit
        orbits += 1
        assert len(orbit & chosen) == 1
    assert orbits == len(rows)


@pytest.mark.parametrize("flavor,n,r", [("symplectic", 1, 4), ("symplectic", 2, 3),
                                        ("orthogonal", 2, 4), ("orthogonal", 3, 3),
                                        ("orthogonal", 4, 3), ("symmetric", 3, 3)])
def test_images_commute_with_letter_group(flavor, n, r):
    rep = TensorRep(flavor, n, r)
    gs = [_tensor_power(rep, pi, eps) for pi, eps in _letter_group(rep)]
    for d in _diagrams(rep):
        m = SparseMat(rep.size, full_image(rep, d))
        for g in gs:
            assert matmul(m, g) == matmul(g, m)


def _random_elements(rng, rep: TensorRep, count: int) -> list[AlgebraElement]:
    """Integer combinations of three diagrams each, drawn from a pool of
    five, so the set has rank below its size; then the kernel generators."""
    from brauercell.sft import ideal_generators
    pool = rng.sample(_diagrams(rep), min(5, len(_diagrams(rep))))
    out = []
    for _ in range(count):
        terms = {d: rng.choice([-3, -2, -1, 1, 2, 3]) for d in rng.sample(pool, min(3, len(pool)))}
        out.append(AlgebraElement(rep.r, terms, rep.delta0))
    return out + ideal_generators(rep.r, rep.n, rep.flavor, rep.delta0)


@pytest.mark.parametrize("flavor,n", [(f, n) for f in ("symplectic", "orthogonal", "symmetric")
                                      for n in (1, 2, 3)])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_orbit_row_ranks_equal_full_ranks(flavor, n, r, rng):
    """On all diagrams and on random integer elements: the image built on
    the orbit rows, by the reference ``rep_element`` or by
    ``image_vectors``, is the full image restricted to them, and its zero
    test and ranks over Q, F_3 and F_5 are those of the full image; so is
    the rank of the transposed orbit-row lines, and on the diagrams that
    of ``image_rank`` over Q, F_3, F_5 and F_7."""
    rep = TensorRep(flavor, n, r)
    rows = rep.orbit_rows()
    chosen = set(rows)
    diagram_elements = [AlgebraElement.from_diagram(d, 1, rep.delta0) for d in _diagrams(rep)]
    for elements in (diagram_elements, _random_elements(rng, rep, 8)):
        full = [rep_element(rep, a).to_vector() for a in elements]
        orbit = [rep_element(rep, a, rows=rows).to_vector() for a in elements]
        for a, f, o in zip(elements, full, orbit):
            assert o == {k: x for k, x in f.items() if k // rep.size in chosen}
            assert (not o) == (not f)
        assert list(image_vectors(elements, rep)) == orbit
        assert rank_q(orbit) == rank_q(full)
        for p in (3, 5):
            assert rank(orbit, p) == rank(full, p)
        assert rank_q(image_lines(image_vectors(elements, rep))) == rank_q(full)
        if elements is diagram_elements:
            assert image_rank(_diagrams(rep), rep) == rank_q(full)
            for p in (3, 5, 7):
                assert image_rank(_diagrams(rep), rep, p=p) == rank(full, p)


COLUMN_GRID = ([(f, n, r) for f in ("symplectic", "orthogonal", "symmetric")
                for n in (1, 2, 3) for r in (1, 2, 3, 4)]
               + [("symplectic", 1, 5), ("orthogonal", 2, 5)])


@pytest.mark.parametrize("flavor,n,r", COLUMN_GRID)
def test_image_rank_by_columns_equals_row_rank(flavor, n, r, rng):
    """``image_rank`` and the transposed ``image_vectors`` lines eliminate
    the columns of the orbit-row image matrix; over Q and over F_3, F_5 and
    F_7 their rank is that of the row vectors: ``image_rank`` on all
    diagrams, the lines on random integer elements with the kernel
    generators and on the kernel generators alone (rank 0: no nonzero
    column)."""
    from brauercell.sft import ideal_generators
    rep = TensorRep(flavor, n, r)
    rows = rep.orbit_rows()
    kernel = ideal_generators(r, n, flavor, rep.delta0)
    diagrams = _diagrams(rep)
    cases = [([AlgebraElement.from_diagram(d, 1, rep.delta0) for d in diagrams], diagrams),
             (_random_elements(rng, rep, 8), None), (kernel, None)]
    for elements, as_diagrams in cases:
        vecs = [rep_element(rep, a, rows=rows).to_vector() for a in elements]
        lines = image_lines(image_vectors(elements, rep))
        assert rank_q(lines) == rank_q(vecs)
        for p in (3, 5, 7):
            assert rank(lines, p) == rank(vecs, p)
        if as_diagrams is not None:
            assert image_rank(as_diagrams, rep) == rank_q(vecs)
            for p in (3, 5, 7):
                assert image_rank(as_diagrams, rep, p=p) == rank(vecs, p)
    assert rank_q(image_lines(image_vectors(kernel, rep))) == 0


# the ranks of the perfbench dims argv (flavor, N, --r): every r up to --r;
# orthogonal N=2 r=5 among them
DIMS_GRID = [(f, n, r) for f, n, top in
             [("symplectic", 1, 5), ("symplectic", 2, 4), ("symplectic", 3, 4),
              ("orthogonal", 2, 5), ("orthogonal", 5, 4), ("orthogonal", 6, 4),
              ("symmetric", 3, 5), ("symmetric", 4, 5)]
             for r in range(1, top + 1)]


@pytest.mark.parametrize("flavor,n,r", DIMS_GRID)
def test_image_rank_lines_are_the_transposed_rows(flavor, n, r, monkeypatch):
    """``image_rank`` writes its lines from ``diagram_columns`` in one pass;
    they are, line for line and in order, the rows of ``rep_diagram``
    transposed, and its ranks over Q and F_3 are those of the old route:
    ``exactmat.rank`` of the transposed rows."""
    import brauercell.tensorrep as tensorrep
    rep = TensorRep(flavor, n, r)
    rows = rep.orbit_rows()
    diagrams = _diagrams(rep)
    transposed: dict[int, dict[int, int]] = {}
    for g, d in enumerate(diagrams):
        for i, row in rep_diagram(rep, d, rows).items():
            for j, x in row.items():
                transposed.setdefault(i * rep.size + j, {})[g] = x
    old = list(transposed.values())
    given = []
    monkeypatch.setattr(tensorrep, "rank",
                        lambda lines, p=None: given.append([dict(x) for x in lines])
                        or rank(lines, p))
    assert image_rank(diagrams, rep) == rank_q(old)
    assert given == [old]
    assert image_rank(diagrams, rep, 3) == rank(old, 3)


def test_image_rank_rejects_bad_input():
    """Diagrams of the wrong width and horizontal strands under the
    symmetric flavor raise; so do a call of
    ``diagram_columns`` without rows and a flavor name the CLI does not take."""
    rep = TensorRep("symplectic", 1, 2)
    with pytest.raises(ValueError):
        TensorRep("permutation", 2, 2)
    with pytest.raises(ValueError):
        image_rank(all_diagrams(3), rep)
    with pytest.raises(ValueError):
        image_rank(all_diagrams(2), TensorRep("symmetric", 2, 2))
    with pytest.raises(TypeError):
        rep.diagram_columns(BrauerDiagram.identity(2))


@pytest.mark.parametrize("flavor,n", [(f, n) for f in ("symplectic", "orthogonal", "symmetric")
                                      for n in (1, 2, 3, 4)])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_orbit_word_table(flavor, n, r, rng):
    """``orbit_rows`` keeps the word of each orbit row, and it is
    ``word(i)``; ``rep_diagram`` on rows off the orbit set (alone or mixed
    with orbit rows) is the full image restricted to them."""
    rep = TensorRep(flavor, n, r)
    rows = rep.orbit_rows()
    assert sorted(rep._orbit_words) == list(rows)
    assert all(rep._orbit_words[i] == rep.word(i) for i in rows)
    chosen = set(rows)
    off = [i for i in range(rep.size) if i not in chosen]
    off = sorted(rng.sample(off, min(12, len(off))))
    for subset in (off, sorted(off + list(rows[:3]))):
        wanted = set(subset)
        for d in _diagrams(rep):
            full = full_image(rep, d)
            assert rep_diagram(rep, d, subset) == {
                i: row for i, row in full.items() if i in wanted}


def test_kernel_membership_orthogonal_minor():
    # d_{2,1} lies in the kernel for N = 2 (a + b = 3 = N + 1)
    from brauercell.sft import walled_signed_sum
    rep = TensorRep("orthogonal", 2, 3)
    assert kernel_membership(walled_signed_sum(2, 1, 2), rep)


def test_closed_form_identity():
    for flavor, n in FLAVOR_GRID:
        rep = TensorRep(flavor, n, 2)
        ident = rep_diagram_closed_form(rep, BrauerDiagram.identity(2))
        assert ident == identity(rep.size)


@pytest.mark.parametrize("flavor,n", [("symplectic", 1), ("symplectic", 2),
                                      ("orthogonal", 1), ("orthogonal", 2)])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_homomorphism_random(flavor, n, r, rng):
    rep = TensorRep(flavor, n, r)
    ds = all_diagrams(r)
    delta = rep.delta0
    for _ in range(15):
        a = elt(rng.choice(ds), 1, delta)
        b = elt(rng.choice(ds), 1, delta)
        assert rep_element(rep, a * b) == matmul(rep_element(rep, a), rep_element(rep, b))


@pytest.mark.parametrize("flavor,n", [("symplectic", 1), ("orthogonal", 2)])
def test_star_compatibility(flavor, n):
    r = 3
    rep = TensorRep(flavor, n, r)
    for d in all_diagrams(r):
        a = elt(d, 1, rep.delta0)
        assert rep_element(rep, a.involution()) == transpose(rep_element(rep, a))


def test_image_rank_examples():
    rep2 = TensorRep("symplectic", 1, 2)
    assert image_rank(all_diagrams(2), rep2) == 2
    rep3 = TensorRep("symplectic", 1, 3)
    gens = all_diagrams(3)
    assert image_rank(gens, rep3) == 5
    assert image_rank(gens, rep3, p=5) == 5
    assert image_rank(gens, rep3, p=3) == 5


def test_image_rank_wide_sparse():
    # 5.76M columns; the 115 orbit rows of 2401 hold about 17.5k of the
    # 252k nonzeros: B_4 acts faithfully on (Q^7)^4
    rep = TensorRep("orthogonal", 7, 4)
    assert image_rank(all_diagrams(4), rep) == 105


def test_permutation_flavor():
    rep = TensorRep("symmetric", 2, 3)
    s1 = rep_element(rep, AlgebraElement.from_perm((2, 1, 3)))
    assert matmul(s1, s1) == identity(8)
    with pytest.raises(ValueError):
        rep_element(rep, elt(BrauerDiagram.e(1, 3)))


def test_tensor_cap():
    with pytest.raises(CapExceeded):
        TensorRep("symplectic", 2, 9)
    TensorRep("symplectic", 2, 8)  # 4^8 = 65536 is exactly the default cap


# -- Pfaffians and minors -----------------------------------------------------


def random_skew(rng, n2):
    a = [[0] * n2 for _ in range(n2)]
    for i in range(n2):
        for j in range(i + 1, n2):
            v = rng.randint(-5, 5)
            a[i][j], a[j][i] = v, -v
    return a


def test_pfaffian_base_cases():
    assert pfaffian_interleaved([[0, 3], [-3, 0]]) == 3
    a = random_skew_fixed()
    # interleaved convention: a12 a34 - a13 a24 + a14 a23
    assert pfaffian_interleaved(a) == (a[0][1] * a[2][3] - a[0][2] * a[1][3]
                                       + a[0][3] * a[1][2])
    # the diagram sum realizes the rows-then-columns convention
    assert pfaffian_recursive(a) == -pfaffian_interleaved(a)
    assert pfaffian_diagram_sum([[0, 7], [-7, 0]]) == 7


def random_skew_fixed():
    return [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_pfaffian_diagram_sum_equals_recursive(r, rng):
    for _ in range(20):
        a = random_skew(rng, 2 * r)
        assert pfaffian_diagram_sum(a) == pfaffian_recursive(a)
        assert pfaffian_diagram_sum(a) ** 2 == det_cofactor(a)


def test_pfaffian_functional():
    # r = 1: single diagram, value <x1, x2>
    form = TensorRep("symplectic", 2, 1)
    for x1 in range(4):
        for x2 in range(4):
            assert pfaffian_functional(1, 2, [x1, x2]) == form_pair(form, x1, x2)
    # r = N + 1: the matrix is singular, so the functional vanishes
    for xs in itertools.product(range(2), repeat=4):
        assert pfaffian_functional(2, 1, list(xs)) == 0


def test_pfaffian_functional_random_singular(rng):
    for _ in range(100):
        xs = [rng.randrange(2) for _ in range(4)]
        assert pfaffian_functional(2, 1, xs) == 0


@pytest.mark.parametrize("ab", [(1, 1), (2, 1), (1, 2), (3, 0)])
def test_walled_det_identity(ab, rng):
    a, b = ab
    r = a + b
    for _ in range(15):
        w = [[0] * (2 * r) for _ in range(2 * r)]
        for i in range(2 * r):
            for j in range(i, 2 * r):
                v = rng.randint(-3, 3)
                w[i][j] = w[j][i] = v
        assert walled_det_sum(a, b, w) == det_cofactor(walled_det_matrix(a, b, w))


def test_matrix_dump_format():
    rep = TensorRep("orthogonal", 1, 2)
    m = full_image(rep, BrauerDiagram.e(1, 2))
    assert triplets(m) == [(0, 0, 1)]


def test_csv_dump():
    rep = TensorRep("orthogonal", 2, 2)
    m = full_image(rep, BrauerDiagram.e(1, 2))
    lines = to_csv(m).splitlines()
    assert all(len(line.split(",")) == 3 for line in lines)
    assert lines == sorted(lines, key=lambda s: tuple(map(int, s.split(","))))
