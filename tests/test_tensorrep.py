import itertools

import pytest

from brauercell.diagrams import AlgebraElement, BrauerDiagram, all_diagrams
from brauercell.errors import CapExceeded
from brauercell.tensorrep import (BilinearStructure, SparseMat, TensorRep,
                                  det_cofactor, image_rank, pfaffian_diagram_sum,
                                  pfaffian_functional, pfaffian_interleaved,
                                  pfaffian_recursive, walled_det_matrix,
                                  walled_det_sum)

FLAVOR_GRID = [("symplectic", 1), ("symplectic", 2), ("orthogonal", 1),
               ("orthogonal", 2), ("orthogonal", 3)]


def elt(d, coeff=1, delta=None):
    return AlgebraElement.from_diagram(d, coeff, delta)


def all_elements(r, delta):
    return [elt(d, 1, delta) for d in all_diagrams(r)]


def kernel_membership(a: AlgebraElement, rep: TensorRep) -> bool:
    return rep.rep_element(a).is_zero


def triplets(m: SparseMat) -> list[tuple[int, int, int]]:
    return sorted((i, j, v) for i, row in m.rows.items() for j, v in row.items())


def to_csv(m: SparseMat) -> str:
    """Triplet dump "row,col,value", one entry per line."""
    return "\n".join(f"{i},{j},{v}" for i, j, v in triplets(m))


def sum_all(r, delta):
    out = AlgebraElement.zero(r, delta)
    for d in all_diagrams(r):
        out = out + elt(d, 1, delta)
    return out


# -- bilinear structure ------------------------------------------------------


@pytest.mark.parametrize("flavor,n", FLAVOR_GRID)
def test_omega_properties(flavor, n):
    form = BilinearStructure(flavor, n)
    dim = form.dim
    omega = form.omega()
    # x . omega = x and omega . x = x  (x . (v (x) w) = [x,v] w)
    for x in range(dim):
        left = {}
        for a, b, c in omega:
            v = form.pair(x, a) * c
            if v:
                left[b] = left.get(b, 0) + v
        assert left == {x: 1}
        right = {}
        for a, b, c in omega:
            v = c * form.pair(b, x)
            if v:
                right[a] = right.get(a, 0) + v
        assert right == {x: 1}
    # [x (x) y, omega] = [y, x]
    for x in range(dim):
        for y in range(dim):
            val = sum(form.pair(x, a) * form.pair(y, b) * c for a, b, c in omega)
            assert val == form.pair(y, x)


@pytest.mark.parametrize("flavor,n", FLAVOR_GRID)
def test_e_s_relations(flavor, n):
    rep = TensorRep(flavor, n, 2)
    E, S = rep.E(1), rep.S(1)
    eps, dim = rep.epsilon, rep.dim
    assert E @ S == S @ E == E.scale(eps)
    assert E @ E == E.scale(eps * dim)
    assert E.transpose() == E
    assert S.transpose() == S
    assert S @ S == SparseMat.identity(rep.size)


def test_symplectic_e_matrix_n1():
    # (v1 (x) v2) E = omega = v2 (x) v1 - v1 (x) v2, and E kills v_i (x) v_i
    rep = TensorRep("symplectic", 1, 2)
    E = rep.E(1)
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
        m.set(rep.idx(word), rep.idx(tuple(out)), 1)
    return m


@pytest.mark.parametrize("n,r", [(1, 3), (2, 3), (3, 3), (2, 4), (3, 4)])
def test_place_matrix_matches_word_loop(n, r):
    rep = TensorRep("permutation", n, r)
    for pi in itertools.permutations(range(1, r + 1)):
        assert rep.place_matrix(pi) == _place_matrix_by_words(rep, pi)


def test_parameter_mismatch():
    rep = TensorRep("symplectic", 1, 2)
    with pytest.raises(ValueError):
        rep.rep_element(AlgebraElement.one(2, delta=1))
    with pytest.raises(ValueError):
        rep.rep_element(AlgebraElement.one(2))


@pytest.mark.parametrize("flavor,n", [("symplectic", 1), ("symplectic", 2),
                                      ("orthogonal", 2), ("orthogonal", 3)])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_closed_form_equals_generator_products(flavor, n, r):
    rep = TensorRep(flavor, n, r)
    for d in all_diagrams(r):
        assert rep.rep_diagram(d) == rep.rep_diagram_closed_form(d)


def test_kernel_membership_orthogonal_minor():
    # d_{2,1} lies in the kernel for N = 2 (a + b = 3 = N + 1)
    from brauercell.sft import walled_signed_sum
    rep = TensorRep("orthogonal", 2, 3)
    assert kernel_membership(walled_signed_sum(2, 1, 2), rep)


def test_closed_form_identity():
    for flavor, n in FLAVOR_GRID:
        rep = TensorRep(flavor, n, 2)
        ident = rep.rep_diagram_closed_form(BrauerDiagram.identity(2))
        assert ident == SparseMat.identity(rep.size)


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
        assert rep.rep_element(a * b) == rep.rep_element(a) @ rep.rep_element(b)


@pytest.mark.parametrize("flavor,n", [("symplectic", 1), ("orthogonal", 2)])
def test_star_compatibility(flavor, n):
    r = 3
    rep = TensorRep(flavor, n, r)
    for d in all_diagrams(r):
        a = elt(d, 1, rep.delta0)
        assert rep.rep_element(a.involution()) == rep.rep_element(a).transpose()


def test_image_rank_examples():
    rep2 = TensorRep("symplectic", 1, 2)
    assert image_rank(all_elements(2, -2), rep2) == 2
    rep3 = TensorRep("symplectic", 1, 3)
    gens = all_elements(3, -2)
    assert image_rank(gens, rep3) == 5
    assert image_rank(gens, rep3, field=("Fp", 5)) == 5
    assert image_rank(gens, rep3, field=("Fp", 3)) == 5


def test_image_rank_wide_sparse():
    # 5.76M columns and about 252k nonzeros: B_4 acts faithfully on (Q^7)^4
    rep = TensorRep("orthogonal", 7, 4)
    assert image_rank(all_elements(4, 7), rep) == 105


def test_permutation_flavor():
    rep = TensorRep("permutation", 2, 3)
    s1 = rep.rep_element(AlgebraElement.from_perm((2, 1, 3)))
    assert s1 @ s1 == SparseMat.identity(8)
    with pytest.raises(ValueError):
        rep.rep_element(elt(BrauerDiagram.e(1, 3)))


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
    form = BilinearStructure("symplectic", 2)
    for x1 in range(4):
        for x2 in range(4):
            assert pfaffian_functional(1, 2, [x1, x2]) == form.pair(x1, x2)
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
    m = rep.rep_diagram(BrauerDiagram.e(1, 2))
    assert triplets(m) == [(0, 0, 1)]


def test_csv_dump():
    rep = TensorRep("orthogonal", 2, 2)
    m = rep.rep_diagram(BrauerDiagram.e(1, 2))
    lines = to_csv(m).splitlines()
    assert all(len(line.split(",")) == 3 for line in lines)
    assert lines == sorted(lines, key=lambda s: tuple(map(int, s.split(","))))
