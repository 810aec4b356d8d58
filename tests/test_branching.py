import itertools

import pytest

from brauercell.branching import (EMPTY, Vertex, brauer_edges, conjugate, enumerate_paths,
                                  partitions_of, path_permissible, permissible_orthogonal,
                                  permissible_symplectic, vertices_at_level, young_edges)
from brauercell.rings import Poly
from brauercell.seminormal import edge_content, residue_collisions
from cell_ops import (col_dominates, dominates, path_revlex_gt,
                      path_strictly_dominates, separation_check, sn_contents)

DOUBLE_FACTORIALS = {1: 1, 2: 3, 3: 15, 4: 105, 5: 945}


def test_conjugate_involution():
    for n in range(9):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam
    assert conjugate((3, 1)) == (2, 1, 1)


def test_dominance_examples():
    assert dominates((2,), (1, 1))
    assert not dominates((1, 1), (2,))
    assert col_dominates((1, 1), (2,))
    assert dominates((3, 1), (2, 2)) and not dominates((2, 2), (3, 1))
    with pytest.raises(ValueError):
        dominates((2,), (1, 1, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_dominance_is_partial_order(n):
    parts = partitions_of(n)
    for order in (dominates, col_dominates):
        for a in parts:
            assert order(a, a)
        for a, b in itertools.permutations(parts, 2):
            if order(a, b) and order(b, a):
                assert a == b
        for a, b, c in itertools.product(parts, repeat=3):
            if order(a, b) and order(b, c):
                assert order(a, c)


def test_brauer_edges_examples():
    assert list(brauer_edges(EMPTY)) == [Vertex((1,), 0)]
    succ = set(brauer_edges(Vertex((1,), 0)))
    assert succ == {Vertex((2,), 0), Vertex((1, 1), 0), Vertex((), 1)}
    succ = set(brauer_edges(Vertex((2,), 1)))
    assert succ == {Vertex((3,), 1), Vertex((2, 1), 1), Vertex((1,), 2)}
    assert set(young_edges(Vertex((1,), 0))) == {Vertex((2,), 0), Vertex((1, 1), 0)}


def test_enumerate_paths_examples():
    assert len(enumerate_paths(Vertex((1, 1), 0))) == 1
    paths = enumerate_paths(Vertex((1,), 1))
    assert len(paths) == 3
    middles = {p[2] for p in paths}
    assert middles == {Vertex((2,), 0), Vertex((1, 1), 0), Vertex((), 1)}


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_path_count_identity(r):
    total = sum(len(enumerate_paths(v)) ** 2 for v in vertices_at_level(r))
    assert total == DOUBLE_FACTORIALS[r]


def test_syt_counts():
    # standard Young tableaux via the add-only graph
    counts = {lam: len(enumerate_paths(Vertex(lam, 0), add_only=True))
              for lam in partitions_of(4)}
    assert counts == {(4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1}


def test_permissibility_examples():
    assert not permissible_symplectic(Vertex((2,), 0), 1)
    assert permissible_symplectic(Vertex((1, 1), 0), 1)
    assert permissible_orthogonal(Vertex((1, 1), 0), 2)
    assert not permissible_orthogonal(Vertex((1, 1, 1), 0), 2)
    t = enumerate_paths(Vertex((1, 1), 0))[0]
    assert path_permissible(t, "symplectic", 1)


def test_contents_examples():
    d = Poly.delta()
    assert edge_content(EMPTY, Vertex((1,), 0)) == 0
    assert edge_content(Vertex((1,), 0), Vertex((2,), 0)) == 1
    assert edge_content(Vertex((1,), 0), Vertex((1, 1), 0)) == -1
    assert edge_content(Vertex((1,), 0), Vertex((), 1)) == 1 - d
    t = enumerate_paths(Vertex((), 1))[0]
    assert sn_contents(t) == (Poly.const(0), 1 - d)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_separation_check(level):
    assert separation_check(level)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symplectic_residue_separation(n):
    for level in range(1, 7):
        assert residue_collisions(level, -2 * n, "symplectic", n) == []


def test_orthogonal_even_residue_collision():
    # N = 2M: contents of (M,M-1)' -> (M+1,M-1)' and -> ((M-1,M-1)', corank+1)
    # agree mod (delta - 2M); for M = 1 the collision is at level 2
    cols = residue_collisions(2, 2, "orthogonal", 2)
    assert (Vertex((1,), 0), Vertex((1, 1), 0), Vertex((), 1)) in cols
    # odd N: no collisions at small levels
    for level in range(1, 6):
        assert residue_collisions(level, 3, "orthogonal", 3) == []


def test_path_orders():
    paths = enumerate_paths(Vertex((1,), 1))
    via = {p[2]: p for p in paths}
    top = via[Vertex((), 1)]
    mid = via[Vertex((2,), 0)]
    low = via[Vertex((1, 1), 0)]
    assert path_strictly_dominates(top, mid) and path_strictly_dominates(top, low)
    assert path_revlex_gt(top, mid) and path_revlex_gt(mid, low)
    assert path_strictly_dominates(mid, low)
    assert not path_revlex_gt(low, mid)


def test_vertex_json():
    v = Vertex((2, 1), 1)
    data = v.to_json()
    assert data == {"lam": [2, 1], "l": 1}
    assert Vertex(tuple(data["lam"]), data["l"]) == v
