"""Partitions, the branching graphs of the symmetric-group and Brauer
towers, path (up-down tableau) enumeration, permissibility, and the dimension
counts of ``dims``.  The edge contents, which need the ring Z[delta], are in
``seminormal``.

A vertex is a pair (partition, corank l) at level |partition| + 2l; an edge
adds a box (same l) or removes one (l+1).  The symmetric-group graph is the
add-only subgraph (all vertices have l = 0).  Paths are tuples of vertices
starting at the empty partition.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

Partition = tuple[int, ...]


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def partitions_of(n: int) -> list[Partition]:
    @lru_cache(maxsize=None)
    def rec(n, maxpart):
        if n == 0:
            return [()]
        out = []
        for first in range(min(n, maxpart), 0, -1):
            out += [(first,) + rest for rest in rec(n - first, first)]
        return out

    return rec(n, n)


def addable_boxes(lam: Partition) -> list[tuple[int, int]]:
    """Positions (row, col), 1-indexed, where a box can be added."""
    out = []
    for i in range(len(lam) + 1):
        row = lam[i] if i < len(lam) else 0
        prev = lam[i - 1] if i > 0 else None
        if prev is None or row < prev:
            out.append((i + 1, row + 1))
    return out


def removable_boxes(lam: Partition) -> list[tuple[int, int]]:
    out = []
    for i, row in enumerate(lam):
        nxt = lam[i + 1] if i + 1 < len(lam) else 0
        if row > nxt:
            out.append((i + 1, row))
    return out


def add_box(lam: Partition, pos: tuple[int, int]) -> Partition:
    i = pos[0] - 1
    parts = list(lam) + [0]
    parts[i] += 1
    return tuple(p for p in parts if p)


def remove_box(lam: Partition, pos: tuple[int, int]) -> Partition:
    i = pos[0] - 1
    parts = list(lam)
    parts[i] -= 1
    return tuple(p for p in parts if p)


class Vertex(NamedTuple):
    """Branching-graph vertex: (partition, corank); level = |lam| + 2l."""

    lam: Partition
    l: int = 0

    @property
    def level(self) -> int:
        return sum(self.lam) + 2 * self.l

    def to_json(self) -> dict:
        return {"lam": list(self.lam), "l": self.l}


EMPTY = Vertex((), 0)

Path = tuple[Vertex, ...]


def vertex_sort_key(v: Vertex):
    """Fixed total order on same-level vertices used for deterministic path
    enumeration: by corank, then reverse-lexicographic on parts."""
    return (v.l, tuple(-p for p in v.lam))


@lru_cache(maxsize=None)
def brauer_edges(v: Vertex) -> tuple[Vertex, ...]:
    """Successors in the Brauer branching graph (add or remove one box)."""
    out = [Vertex(add_box(v.lam, b), v.l) for b in addable_boxes(v.lam)]
    out += [Vertex(remove_box(v.lam, b), v.l + 1) for b in removable_boxes(v.lam)]
    out.sort(key=vertex_sort_key)
    return tuple(out)


@lru_cache(maxsize=None)
def young_edges(v: Vertex) -> tuple[Vertex, ...]:
    """Successors in Young's lattice (add one box; corank stays 0)."""
    out = [Vertex(add_box(v.lam, b), v.l) for b in addable_boxes(v.lam)]
    out.sort(key=vertex_sort_key)
    return tuple(out)


def successors(v: Vertex, add_only: bool = False) -> tuple[Vertex, ...]:
    """Successors in Young's lattice when ``add_only``, else in the Brauer
    graph."""
    return young_edges(v) if add_only else brauer_edges(v)


def is_edge(a: Vertex, b: Vertex, add_only: bool = False) -> bool:
    return b in successors(a, add_only)


@lru_cache(maxsize=None)
def vertices_at_level(level: int, add_only: bool = False) -> tuple[Vertex, ...]:
    if add_only:
        out = [Vertex(lam, 0) for lam in partitions_of(level)]
    else:
        out = [Vertex(lam, l) for l in range(level // 2 + 1)
               for lam in partitions_of(level - 2 * l)]
    out.sort(key=vertex_sort_key)
    return tuple(out)


@lru_cache(maxsize=None)
def _paths_to(v: Vertex, add_only: bool) -> tuple[Path, ...]:
    if v.level == 0:
        return ((v,),) if v == EMPTY else ()
    out = []
    for u in vertices_at_level(v.level - 1, add_only):
        if is_edge(u, v, add_only):
            out += [p + (v,) for p in _paths_to(u, add_only)]
    return tuple(out)


def enumerate_paths(target: Vertex, add_only: bool = False) -> list[Path]:
    """All paths from the empty partition to target, sorted lexicographically
    by vertex sequence under the fixed vertex order."""
    out = list(_paths_to(target, add_only))
    out.sort(key=lambda p: tuple(vertex_sort_key(v) for v in p))
    return out


def permissible_symplectic(v: Vertex, n: int) -> bool:
    """lam_1 <= N (first row bounded)."""
    return not v.lam or v.lam[0] <= n


def permissible_orthogonal(v: Vertex, n: int) -> bool:
    """lam'_1 + lam'_2 <= N (first two columns bounded)."""
    conj = conjugate(v.lam)
    tot = (conj[0] if conj else 0) + (conj[1] if len(conj) > 1 else 0)
    return tot <= n


def permissible_symmetric(v: Vertex, n: int) -> bool:
    """lam'_1 <= N (at most N rows); the tensor-space condition for the
    unsigned place-permutation action with the dual basis."""
    return len(v.lam) <= n


PERMISSIBLE = {
    "symplectic": permissible_symplectic,
    "orthogonal": permissible_orthogonal,
    "symmetric": permissible_symmetric,
}


def path_permissible(t: Path, flavor: str, n: int) -> bool:
    """Every vertex of the path t is permissible."""
    pred = PERMISSIBLE[flavor]
    return all(pred(v, n) for v in t)


def expected_image_dimension(r: int, n: int, flavor: str) -> int:
    """Sum over permissible vertices of (number of permissible paths)^2."""
    add_only = flavor == "symmetric"
    total = 0
    for v in vertices_at_level(r, add_only):
        if not PERMISSIBLE[flavor](v, n):
            continue
        k = sum(1 for t in enumerate_paths(v, add_only)
                if path_permissible(t, flavor, n))
        total += k * k
    return total


def algebra_dimension(r: int, flavor: str) -> int:
    if flavor == "symmetric":
        out = 1
        for k in range(2, r + 1):
            out *= k
        return out
    out = 1
    for k in range(1, 2 * r, 2):
        out *= k
    return out
