"""Orders, checks and oracles that only the tests read: dominance of
partitions (by rows and by columns) and of vertices, strict dominance of
vertices and of paths, the reverse-lexicographic path order, the content
sequence of a path and the separation of paths by it, the Jucys-Murphy
eigenvector check on seminormal data, the marginal vertices, the
permissible dimension of a split basis, the transpose of an exact matrix,
the eager expansion of a cellular basis, the image of every kernel element
of the symmetric certificate and both Young-sum cell generators x_lam and
y_lam of a partition.  The package needs none of them."""

import brauercell.branching as br
from brauercell.branching import Partition, Path, Vertex, conjugate
from brauercell.exactmat import ExactMatrix
from brauercell.murphy import MurphyBasis, young_sum
from brauercell.rings import Poly
from brauercell.seminormal import edge_content
from brauercell.sft import _is_marginal
from brauercell.tensorrep import TensorRep
from diagram_ops import as_integer
from tensor_ops import rep_element


def dominates(a: Partition, b: Partition) -> bool:
    """a dominates b: all partial sums of a majorize those of b."""
    if sum(a) != sum(b):
        raise ValueError("dominance compares partitions of equal size")
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa < sb:
            return False
    return True


def col_dominates(a: Partition, b: Partition) -> bool:
    return dominates(conjugate(a), conjugate(b))


def vertex_dominates(a: Vertex, b: Vertex, dual: bool = False) -> bool:
    """Dominance on same-level vertices: higher corank dominates; at equal
    corank, (column) dominance of partitions."""
    if a.level != b.level:
        raise ValueError("dominance compares same-level vertices")
    if a.l != b.l:
        return a.l > b.l
    return col_dominates(a.lam, b.lam) if dual else dominates(a.lam, b.lam)


def vertex_strictly_dominates(a, b, dual=False) -> bool:
    return a != b and vertex_dominates(a, b, dual)


def strictly_dominates(basis, a, b) -> bool:
    """Strict dominance of vertices in the order of ``basis`` (column
    dominance for a dual basis)."""
    return vertex_strictly_dominates(a, b, basis.dual)


def path_dominates(s, t, dual=False) -> bool:
    if len(s) != len(t):
        raise ValueError("path dominance compares equal-length paths")
    return all(vertex_dominates(a, b, dual) for a, b in zip(s, t))


def path_strictly_dominates(s, t, dual=False) -> bool:
    return s != t and path_dominates(s, t, dual)


def path_revlex_gt(s, t, dual=False) -> bool:
    """s > t in reverse-lexicographic order: at the last index where they
    differ, s's vertex strictly dominates t's."""
    if len(s) != len(t):
        raise ValueError("reverse-lex compares equal-length paths")
    for a, b in zip(reversed(s), reversed(t)):
        if a != b:
            return vertex_strictly_dominates(a, b, dual)
    return False


def sn_contents(t: Path) -> tuple[Poly, ...]:
    """The edge contents along the path t."""
    return tuple(edge_content(a, b) for a, b in zip(t, t[1:]))


def separation_check(level: int, add_only: bool = False) -> bool:
    """Whether all distinct paths at the level have distinct content
    sequences as polynomials in delta."""
    seen = set()
    for v in br.vertices_at_level(level, add_only):
        for t in br.enumerate_paths(v, add_only):
            key = tuple(tuple(sorted(c.coeffs.items())) for c in sn_contents(t))
            if key in seen:
                return False
            seen.add(key)
    return True


def jm_seminormal_check(sd) -> bool:
    """f_t L_i = kappa_t(i) f_t for every path t and JM index i, checked on
    n_t = D_t f_t, row t of N_t."""
    for ti, t in enumerate(sd.paths):
        contents = sn_contents(t)
        f = sd.idempotents[ti][0][ti]
        for i in range(1, sd.basis.r + 1):
            jm = sd.jm_matrices[i - 1]
            kappa = contents[i - 1]
            got = [0] * len(f)
            for a, va in enumerate(f):
                if not va:
                    continue
                for b in range(len(f)):
                    if jm[a][b]:
                        got[b] = got[b] + va * jm[a][b]
            if any(got[b] != kappa * f[b] for b in range(len(f))):
                return False
    return True


def marginal_vertices(r: int, n: int, flavor: str) -> list:
    """Vertices at levels <= r carrying the boundary value (lam_1 = N+1,
    lam'_1 + lam'_2 = N+1, or N+1 rows).  Every marginal point -- a
    non-permissible vertex reachable by an otherwise permissible path --
    has this value, and the kernel-generator identities hold for the whole
    boundary set."""
    add_only = flavor == "symmetric"
    return [v for level in range(1, r + 1)
            for v in br.vertices_at_level(level, add_only)
            if _is_marginal(v, n, flavor)]


def permissible_dimension(split) -> int:
    """The sum over vertices of the squared count of permissible paths."""
    total = 0
    for v in split.basis.vertices:
        k = sum(1 for ti in range(len(split.basis.paths[v]))
                if split.path_permissible[(v, ti)])
        total += k * k
    return total


def transpose(mat: ExactMatrix) -> ExactMatrix:
    return ExactMatrix([[mat.rows[i][j] for i in range(mat.nrows)]
                        for j in range(mat.ncols)])


def eager_elements(basis: MurphyBasis) -> dict:
    """Every m_(v,s,t) = (d_s* m_lambda) d_t of ``basis``, expanded at once
    in ``index`` order, as the basis did before it expanded cells on
    demand."""
    out = {}
    for v in basis.vertices:
        gen = basis.generators[v]
        n = len(basis.paths[v])
        for s in range(n):
            left = basis.d_elements[(v, s)].involution() * gen
            for t in range(n):
                out[(v, s, t)] = as_integer(left * basis.d_elements[(v, t)])
    return out


def kernel_elements_map_to_zero(r: int, n: int) -> bool:
    """Whether every element of every dual-Murphy cell of S_r with more than
    N rows has zero image on (Z^N)^{tensor r}: each one expanded and imaged
    on all rows."""
    basis = MurphyBasis(r, "symmetric-dual")
    rep = TensorRep("symmetric", n, r, max_tensor_dim=n ** r)
    return all(rep_element(rep, basis.elements[key]).is_zero
               for key in basis.index if len(key[0].lam) > n)


def sym_cell_generators(lam: Partition, r: int):
    """x_lam (plain sum over the Young subgroup of lam) and y_lam (signed sum
    over the Young subgroup of the conjugate), embedded at width r."""
    return (young_sum(lam, r, signed=False),
            young_sum(conjugate(lam), r, signed=True))
