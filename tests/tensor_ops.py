"""Independent routes to tensor-space images and the Pfaffian/minor
functionals attached to diagrams, for the tests: the pairing of two
letters, the dict view of a diagram's image (``rep_diagram``), the full
image of an algebra element (the reference the orbit-row images are
compared against), the place-permutation matrix, the closed-form image of
a diagram (the oracle of ``rep_diagram``), and the Pfaffians and walled
determinants of acceptance criterion 4.  The package itself builds images
only through ``TensorRep.diagram_columns``."""

import itertools

from brauercell.diagrams import AlgebraElement, walled_filter
from brauercell.matchings import BrauerDiagram, all_diagrams
from brauercell.tensorrep import TensorRep
from diagram_ops import length, sign
from sparse_ops import SparseMat


def form_pair(rep: TensorRep, x: int, y: int) -> int:
    """[v_x, v_y] for 0-indexed letters of a Brauer flavor."""
    return rep.pair_sign[x] if x + y == rep.dim - 1 else 0


def rep_diagram(rep: TensorRep, diag: BrauerDiagram, rows) -> dict[int, dict[int, int]]:
    """Image of a diagram on the word indices in ``rows``, as the dict
    {word index: {column: value}} of its nonzero rows: the dict view of
    ``TensorRep.diagram_columns``."""
    if rows is not rep.orbit_rows():
        rows = list(rows)
    heads, coeffs, lows = rep.diagram_columns(diag, rows)
    return {i: {h + low: c * v for h, v in heads}
            for i, c, low in zip(rows, coeffs, lows) if c}


def rep_element(rep: TensorRep, a: AlgebraElement, rows=None) -> SparseMat:
    """Image of an algebra element (``TensorRep.check_element``), built on
    the word indices in ``rows`` only (all rows when ``rows`` is None)."""
    rep.check_element(a)
    rows = range(rep.size) if rows is None else rows
    out = SparseMat(rep.size)
    for diag, c in a.terms.items():
        for i, row in rep_diagram(rep, diag, rows).items():
            for j, v in row.items():
                out.add(i, j, c * v)
    return out


def place_matrix(rep: TensorRep, pi: tuple[int, ...]) -> SparseMat:
    """Unsigned place permutation: the factor in place j moves to place
    pi(j), so its digit weight becomes dim^(r - pi(j))."""
    weights = [rep.dim ** (rep.r - p) for p in pi]
    return SparseMat(rep.size, {i: {sum(map(int.__mul__, rep.word(i), weights)): 1}
                                for i in range(rep.size)})


def rep_diagram_closed_form(rep: TensorRep, diag: BrauerDiagram) -> SparseMat:
    """Image of a diagram straight from the strand structure: top
    horizontal strands contract with the form, bottom ones insert omega,
    vertical ones place-permute; the symplectic case carries the global
    sign (-1)^{length}."""
    if diag.r != rep.r:
        raise ValueError("strand count mismatch")
    if rep.flavor == "symmetric":
        if not diag.is_permutation():
            raise ValueError("symmetric flavor: diagram has horizontal strands")
        return place_matrix(rep, diag.to_perm())
    top, bot, vert = diag.strand_types()
    d = rep.dim
    sign = (-1) ** length(diag) if rep.flavor == "symplectic" else 1
    omega = rep.omega
    m = SparseMat(rep.size)
    for tchoice in itertools.product(range(d), repeat=len(top)):
        cin = sign
        in_word = [0] * rep.r
        for (i, j), x in zip(top, tchoice):
            y = d - 1 - x
            c = form_pair(rep, x, y)
            if c == 0:
                cin = 0
                break
            cin *= c
            in_word[i - 1] = x
            in_word[j - 1] = y
        if cin == 0:
            continue
        for vchoice in itertools.product(range(d), repeat=len(vert)):
            for (i, _j), x in zip(vert, vchoice):
                in_word[i - 1] = x
            row = rep.idx(tuple(in_word))
            out_word = [0] * rep.r
            for (_i, j), x in zip(vert, vchoice):
                out_word[j - 1] = x
            for bchoice in itertools.product(range(len(omega)), repeat=len(bot)):
                cout = cin
                for (i, j), k in zip(bot, bchoice):
                    a, b, coeff = omega[k]
                    out_word[i - 1] = a
                    out_word[j - 1] = b
                    cout *= coeff
                m.add(row, rep.idx(tuple(out_word)), cout)
    return m


def pfaffian_interleaved(a: list[list]) -> int:
    """Pfaffian of a skew-symmetric matrix by first-row expansion, in the
    interleaved (i_1 j_1 i_2 j_2 ...) vertex-ordering convention, so that
    Pf([[0, x], [-x, 0]]) = x and the 4x4 value is a12 a34 - a13 a24 + a14 a23."""
    n = len(a)
    if n % 2:
        raise ValueError("Pfaffian needs even size")
    if n == 0:
        return 1

    def rec(rows: tuple[int, ...]):
        if not rows:
            return 1
        i = rows[0]
        rest = rows[1:]
        total = 0
        for k, j in enumerate(rest):
            v = a[i][j]
            if v:
                sub = rest[:k] + rest[k + 1:]
                total += (-1) ** k * v * rec(sub)
        return total

    return rec(tuple(range(n)))


def pfaffian_recursive(a: list[list]) -> int:
    """Pfaffian in the rows-then-columns (h_1..h_r k_1..k_r) vertex-ordering
    convention realized by the diagram signs sgn(sigma_D); it differs from
    the interleaved convention by the shuffle sign (-1)^{r(r-1)/2}."""
    r = len(a) // 2
    shuffle = -1 if (r * (r - 1) // 2) % 2 else 1
    return shuffle * pfaffian_interleaved(a)


def pfaffian_diagram_sum(a: list[list]) -> int:
    """Pfaffian as the signed sum over Brauer diagrams: sum_D sgn(sigma_D)
    prod_{(i,j) in D} a[i][j] (1-indexed strands over 2r points)."""
    n = len(a)
    if n % 2:
        raise ValueError("Pfaffian needs even size")
    r = n // 2
    total = 0
    for diag in all_diagrams(r):
        term = sign(diag)
        for i, j in diag.pairs:
            term *= a[i - 1][j - 1]
            if term == 0:
                break
        total += term
    return total


def pfaffian_functional(r: int, n: int, xs: list[int]) -> int:
    """Signed diagram sum of symplectic pairings over 2r basis-vector
    indices (0-indexed into the 2N-dimensional Darboux basis)."""
    if len(xs) != 2 * r:
        raise ValueError("need 2r vector indices")
    rep = TensorRep("symplectic", n, 1)
    a = [[form_pair(rep, xs[i], xs[j]) if i != j else 0 for j in range(2 * r)]
         for i in range(2 * r)]
    for i in range(2 * r):
        for j in range(i):
            a[i][j] = -a[j][i]
    return pfaffian_diagram_sum(a)


def walled_det_sum(a: int, b: int, w: list[list]) -> int:
    """Signed sum over (a,b)-walled diagrams of prod_{(i,j) in D} w[i][j],
    for a symmetric 2r x 2r value table (r = a + b).  Equals the determinant
    of the r x r matrix (x_i, y_j) under the standard reindexing."""
    r = a + b
    total = 0
    for diag in all_diagrams(r):
        ok, sign = walled_filter(a, b, diag)
        if not ok:
            continue
        term = sign
        for i, j in diag.pairs:
            term *= w[i - 1][j - 1]
            if term == 0:
                break
        total += term
    return total


def walled_det_matrix(a: int, b: int, w: list[list]) -> list[list]:
    """The r x r matrix (x_i, y_j) built from the 2r-point value table by the
    reindexing x = (w_1..w_a, w_{r+a+1}..w_{2r}), y = (w_{r+1}..w_{r+a},
    w_{a+1}..w_r)."""
    r = a + b
    xi = list(range(a)) + list(range(r + a, 2 * r))
    yi = list(range(r, r + a)) + list(range(a, r))
    return [[w[xi[i]][yi[j]] for j in range(r)] for i in range(r)]
