from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brauercell.exactmat import (Echelon, ExactMatrix, _cancel_z, _peel, _z_row,
                                 inverse_columns, rank, spin_rank_q)
from brauercell.rings import Poly
from cell_ops import transpose
from exact_ops import (LinearSolver, det_cofactor, det_fraction, inverse_fraction,
                       kernel_fraction, rank_gauss_fraction, z_row)

d = Poly.delta()


def test_rank_examples():
    assert ExactMatrix([[1, 0], [0, 1]]).rank() == 2
    assert ExactMatrix([[1, 2], [2, 4]]).rank() == 1


def test_det_examples():
    assert ExactMatrix([[1, 0], [0, 1]]).det() == 1
    assert ExactMatrix([]).det() == 1
    with pytest.raises(ValueError):
        ExactMatrix([[1, 2]]).det()


def test_elimination_rejects_fraction_entries():
    """Every elimination entry point works over Z only: a rational value,
    even an integral one, is not scaled for it, and neither is a Poly."""
    for bad in (Fraction(1, 2), Fraction(2), d):
        rows = [[1, 0], [0, bad]]
        for run in (lambda: ExactMatrix(rows).det(), lambda: ExactMatrix(rows).rank(),
                    lambda: ExactMatrix(rows).kernel(),
                    lambda: rank([{0: 1}, {1: bad}]), lambda: rank([{0: bad}], 3),
                    lambda: inverse_columns([{0: 1}, {1: bad}], [0]),
                    lambda: spin_rank_q([{0: 1, 1: bad}], [[(0, 1), (1, 1)]])):
            with pytest.raises(TypeError):
                run()


def test_det_matches_fraction_elimination(rng):
    """The tagged integer elimination gives the determinant of elimination
    over Q, as an int, on random matrices up to 6 x 6, singular ones with
    a repeated or combined row included."""
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(n)]
                for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            a, b = rng.sample(range(n), 2)
            rows[a] = [rng.choice((1, -2)) * x for x in rows[b]]
        det = ExactMatrix(rows).det()
        assert type(det) is int
        assert det == det_fraction(rows)


def test_det_matches_cofactor_random(rng):
    for n in range(1, 5):
        for _ in range(15):
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert ExactMatrix(rows).det() == det_cofactor(rows)
            # permuted rows and columns pin the sign of the pivot order
            perm = rng.sample(range(n), n)
            swapped = [rows[i] for i in perm]
            assert ExactMatrix(swapped).det() == det_cofactor(swapped)
            swapped = [[row[j] for j in perm] for row in rows]
            assert ExactMatrix(swapped).det() == det_cofactor(swapped)
            if n > 1:
                # a row that is a combination of two others makes it singular
                a, b, c = (rng.randrange(n) for _ in range(3))
                singular = [r[:] for r in rows]
                singular[a] = [2 * x - 3 * y for x, y in zip(rows[b], rows[c])]
                if a not in (b, c):
                    assert ExactMatrix(singular).det() == 0
                assert ExactMatrix(singular).det() == det_cofactor(singular)


def test_rank_transpose_random(rng):
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        mat = ExactMatrix(rows)
        assert mat.rank() == transpose(mat).rank() == rank_gauss_fraction(rows)


def test_poly_entries_raise_type_error():
    # a Gram matrix over Z[delta] (here the corank-1 cell of B_2) is never
    # eliminated: only its specialization at a loop value is
    for mat in (ExactMatrix([[d]]),
                ExactMatrix([[d, Poly.zero()], [Poly.zero(), Poly.one()]])):
        with pytest.raises(TypeError):
            mat.rank()
        with pytest.raises(TypeError):
            mat.det()


def random_unimodular(rng, n):
    """A random integer matrix of determinant +-1: the identity under row
    additions, swaps and negations."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-3, 3)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return rows


def test_inverse_columns_match_fraction_inverse(rng):
    for _ in range(40):
        n = rng.randint(1, 7)
        dense = random_unimodular(rng, n)
        labels = sorted(rng.sample(range(3 * n), n))   # sparse column labels
        rows = [{labels[j]: x for j, x in enumerate(row) if x} for row in dense]
        inv = inverse_fraction(dense)
        wanted = rng.sample(range(n), rng.randint(0, n))
        got = inverse_columns(rows, wanted)
        assert len(got) == len(wanted)
        for k, phi in zip(wanted, got):
            assert phi == {labels[j]: int(inv[j][k]) for j in range(n) if inv[j][k]}
            assert all(type(x) is int for x in phi.values())
        assert rows == [{labels[j]: x for j, x in enumerate(row) if x} for row in dense]


def test_inverse_columns_non_integral():
    # the inverse of [[2, 1], [1, 1]] is integral; of [[2, 0], [0, 1]] its
    # first column (1/2, 0) is not, its second (0, 1) is
    assert inverse_columns([{0: 2, 1: 1}, {0: 1, 1: 1}], [0, 1]) == [{0: 1, 1: -1},
                                                                      {0: -1, 1: 2}]
    assert inverse_columns([{0: 2}, {1: 1}], [1]) == [{1: 1}]
    with pytest.raises(ArithmeticError, match="not integral"):
        inverse_columns([{0: 2}, {1: 1}], [0])
    with pytest.raises(ArithmeticError, match="not integral"):
        inverse_columns([{0: 1, 1: 1}, {0: 1, 1: 3}], [1])


def test_inverse_columns_dependent_or_short():
    with pytest.raises(ArithmeticError, match="dependent"):
        inverse_columns([{0: 1, 1: 2}, {0: 2, 1: 4}], [0])
    with pytest.raises(ArithmeticError, match="dependent"):
        inverse_columns([{0: 1}, {1: 1}, {0: 1, 1: 1}], [])
    with pytest.raises(ArithmeticError, match="fewer rows"):
        inverse_columns([{0: 1, 1: 1}], [0])
    with pytest.raises(TypeError):
        inverse_columns([{0: d}, {1: 1}], [0])


# -- LinearSolver, the test-side general solver (exact_ops): the oracle of
# the cellular expansion and of the cell-row functionals

def test_solve():
    # the columns of [[2, 1], [1, 1]] as basis rows
    assert LinearSolver([{0: 2, 1: 1}, {0: 1, 1: 1}]).solve({0: 3, 1: 2}) == [1, 1]
    with pytest.raises(ValueError):
        LinearSolver([{0: 1, 1: 1}, {0: 1, 1: 1}])


def test_linear_solver_roundtrip(rng):
    rows = [{0: 1, 2: 2}, {1: 3}, {2: 1, 3: 1}, {3: 5}]
    solver = LinearSolver(rows)
    for _ in range(20):
        coeffs = [rng.randint(-4, 4) for _ in rows]
        vec = {}
        for c, row in zip(coeffs, rows):
            for k, v in row.items():
                vec[k] = vec.get(k, 0) + c * v
        got = solver.solve(vec)
        assert [int(x) for x in got] == coeffs
    with pytest.raises(ValueError):
        solver.solve({4: 1})


def test_linear_solver_poly_values():
    # the solver works over Z: a Poly value, in a query or a basis row, raises
    with pytest.raises(TypeError):
        LinearSolver([{0: 1, 1: 1}, {1: 2}]).solve({0: d, 1: d + 2})
    with pytest.raises(TypeError):
        LinearSolver([{0: d, 1: 1}, {1: 2}])


def test_linear_solver_exact_coefficients():
    solver = LinearSolver([{0: 1, 1: 1}, {1: 2}])
    got = solver.solve({0: 3, 1: 7})
    assert got == [3, 2] and all(type(c) is int for c in got)
    got = solver.solve({0: 1, 1: 2})
    assert got == [1, Fraction(1, 2)] and type(got[1]) is Fraction
    assert solver.solve({0: Fraction(1, 3), 1: 1}) == [Fraction(1, 3), Fraction(1, 3)]


def test_sparse_rank_matches_dense(rng):
    for _ in range(25):
        n, m = rng.randint(1, 6), rng.randint(1, 8)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        sparse = [{j: v for j, v in enumerate(r) if v} for r in rows]
        before = [dict(row) for row in sparse]
        # over Q ``rank`` consumes its list: rows are left in it only when
        # the rank reached the column count before they were read
        left = [dict(row) for row in sparse]
        got = rank(left)
        assert got == rank_gauss_fraction(rows)
        assert not left or got == len(set().union(*sparse))
        # over F_p it reads the rows and leaves every one unchanged
        for p in (3, 5):
            assert rank(sparse, p) == rank_gauss_fraction_modp(
                [[x % p for x in r] for r in rows], p)
        assert sparse == before


def test_rank_stops_at_the_column_count(rng, monkeypatch):
    """Short unit rows reach the column count first; the rows left over are
    never read, and the rank is that of a Fraction elimination, over Q and
    mod p: no row reaches the echelon, and over Q the rows left over stay
    in the consumed list."""
    added = []
    add = Echelon.add
    monkeypatch.setattr(Echelon, "add", lambda self, row: added.append(row) or add(self, row))
    for _ in range(25):
        m = rng.randint(2, 6)
        units = [{j: rng.choice([-1, 1, 2])} for j in range(m)]
        longs = [{j: rng.randint(1, 2) for j in range(m)} for _ in range(rng.randint(1, 6))]
        rows = units + longs
        rng.shuffle(rows)
        dense = [[row.get(j, 0) for j in range(m)] for row in rows]
        assert rank_gauss_fraction(dense) == m
        left = [dict(row) for row in rows]
        assert rank(left) == m
        assert len(left) == len(longs)
        before = [dict(row) for row in rows]
        for p in (3, 5):
            assert rank(rows, p) == m
        assert rows == before and not added
        assert rank([dict(row) for row in rows]) == rank(rows, 3) == m


def test_rank_of_empty_and_zero_rows():
    assert rank([]) == rank([], 3) == 0
    # stored zeros: the rows of a Q rank hold none (``_z_row`` drops them),
    # and the copy of an F_p rank drops them with the multiples of p
    assert rank([_z_row(row) for row in ({}, {0: 0, 4: 0}, {})]) == 0
    assert rank([{}, {0: 0, 4: 0}, {}], 3) == 0
    assert rank([{0: 5, 7: -10}, {}], 5) == 0
    # zero rows beside one nonzero row: one distinct column, rank one
    assert rank([{}, {2: 3}, {}, {2: -6}]) == 1
    assert rank([{2: 7}, {2: 3, 5: 7}], 7) == 1


def test_spin_rank_q():
    shift = [((i + 1) % 5, 1) for i in range(5)]
    assert spin_rank_q([{0: 1}], [shift]) == 5
    assert spin_rank_q([{i: 3 for i in range(5)}], [shift]) == 1
    # differences of adjacent columns span the sum-zero hyperplane
    assert spin_rank_q([{0: 1, 1: -1}], [shift]) == 4
    # factor 0 on column 0: the projection that kills e_0 sends the start
    # vector 2 e_0 + e_1 to e_1, which it fixes
    kill0 = [(0, 0)] + [(i, 1) for i in range(1, 5)]
    assert spin_rank_q([{0: 2, 1: 1}], [kill0]) == 2
    assert spin_rank_q([], [shift]) == 0


def test_rank_modp(rng):
    for p in (2, 3, 5, 7):
        for _ in range(15):
            n, m = rng.randint(1, 6), rng.randint(1, 8)
            rows = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
            sparse = [{j: v for j, v in enumerate(r) if v} for r in rows]
            modrows = [[x % p for x in r] for r in rows]
            before = [dict(row) for row in sparse]
            assert rank(sparse, p) == rank_gauss_fraction_modp(modrows, p)
            assert sparse == before
            assert rank([dict(row) for row in sparse]) == rank_gauss_fraction(rows)


def rank_gauss_fraction_modp(rows, p):
    rows = [r[:] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rank_modp_wide(rng):
    # 120000 columns, checked against the dense oracle on the used columns
    rows = []
    m = 120000
    for i in range(12):
        rows.append({rng.randrange(m): rng.randint(1, 6) for _ in range(5)})
    used = sorted({c for r in rows for c in r})
    dense = [[r.get(c, 0) for c in used] for r in rows]
    for p in (3, 5):
        modrows = [[x % p for x in r] for r in dense]
        assert rank(rows, p) == rank_gauss_fraction_modp(modrows, p)


def test_kernel_random_singular(rng):
    for _ in range(25):
        n, rank = rng.randint(2, 6), rng.randint(0, 5)
        basis = [[rng.randint(-4, 4) for _ in range(n)]
                 for _ in range(min(rank, n - 1))]
        coeffs = [[rng.randint(-2, 2) for _ in basis] for _ in range(n)]
        rows = [[sum(c * b[j] for c, b in zip(cs, basis)) for j in range(n)]
                for cs in coeffs]
        mat = ExactMatrix(rows)
        kernel = mat.kernel()
        assert len(kernel) == n - rank_gauss_fraction(rows) > 0
        for v in kernel:
            assert all(sum(row[j] * v[j] for j in range(n)) == 0 for row in rows)
        assert rank_gauss_fraction(kernel) == len(kernel)


def test_cancel_against_negative_pivot_in_place():
    """A row cancelled against a pivot of -1 is updated in place, with a
    positive multiplier of the row, as against +1; a non-unit pivot copies
    it, and the content is removed either way."""
    row = {0: 3, 1: 1}
    out = _cancel_z(row, {0: -1, 2: 1}, 0)
    assert out is row and out == {1: 1, 2: 3}
    row = {0: 3, 1: 1}
    out = _cancel_z(row, {0: 1, 2: 1}, 0)
    assert out is row and out == {1: 1, 2: -3}
    row = {0: 2, 1: 2}
    out = _cancel_z(row, {0: -4, 1: 2}, 0)
    assert out is not row and out == {1: 1}


# entries that make negative and non-unit pivots common
ENTRIES = st.sampled_from([0, 0, 0, 1, -1, -1, 2, -2, 3, -3, 4, -6])


@st.composite
def integer_matrices(draw):
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))


@st.composite
def unimodular_matrices(draw):
    """The identity under drawn row additions, swaps and negations."""
    n = draw(st.integers(1, 5))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.integers(-3, 3)), max_size=12)):
        if i != j:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-x for x in rows[i]]
    return rows


def _check_inverse_columns(square):
    n = len(square)
    rows = [{j: x for j, x in enumerate(row) if x} for row in square]
    if rank_gauss_fraction(square) < n:
        with pytest.raises(ArithmeticError):
            inverse_columns(rows, list(range(n)))
        return
    inv = inverse_fraction(square)
    for k in range(n):
        if all(inv[j][k].denominator == 1 for j in range(n)):
            assert inverse_columns(rows, [k]) == [
                {j: int(inv[j][k]) for j in range(n) if inv[j][k]}]
        else:
            with pytest.raises(ArithmeticError):
                inverse_columns(rows, [k])


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_integer_elimination_matches_fraction_oracle(dense):
    """``rank``, ``ExactMatrix.kernel`` and ``inverse_columns``, whose
    eliminations cancel against negative and non-unit pivots, agree with
    Fraction elimination: the same rank, a kernel basis spanning the
    oracle's kernel, and the integral inverse columns (a raise on the
    others and on a singular square)."""
    ncols = len(dense[0])
    assert rank([{j: x for j, x in enumerate(row) if x} for row in dense]) == \
        rank_gauss_fraction(dense)
    kernel, oracle = ExactMatrix(dense).kernel(), kernel_fraction(dense)
    assert len(kernel) == len(oracle)
    for v in kernel:
        assert all(sum(row[j] * v[j] for j in range(ncols)) == 0 for row in dense)
    assert rank_gauss_fraction(kernel + oracle) == len(oracle)
    k = min(len(dense), ncols)
    _check_inverse_columns([row[:k] for row in dense[:k]])


@settings(max_examples=150, deadline=None)
@given(unimodular_matrices())
def test_inverse_columns_of_unimodular_match_fraction_oracle(square):
    _check_inverse_columns(square)


# -- the singleton peel and the content pass -----------------------------------


def _cascade_rows(rng, m):
    """Rows over columns 0..m-1 with planted structure: a chain that peels
    one column at a time (row k becomes a singleton only once column k-1 is
    struck), duplicates of chain rows, rows that empty out once the chain
    is struck, and random rows over all the columns."""
    chain = [{0: rng.choice([-2, -1, 1, 3])}]
    chain += [{k - 1: rng.randint(-3, 3) or 1, k: rng.choice([-1, 1, 2, 5])}
              for k in range(1, m // 2)]
    dupes = [dict(row) for row in rng.sample(chain, min(2, len(chain)))]
    empties = [{k: rng.randint(1, 4) for k in rng.sample(range(m // 2), min(2, m // 2))}]
    randoms = [{j: x for j in range(m) if (x := rng.choice([0, 0, 1, -1, 2, 3]))}
               for _ in range(rng.randint(0, m))]
    rows = chain + dupes + empties + randoms
    rng.shuffle(rows)
    return rows


def test_peel_strikes_a_cascade_in_place():
    """Each strike makes the next row a singleton; the peeled rows leave the
    list, the rows that empty out stay in it, and the rank is the count."""
    rows = [{0: 2}, {0: 1, 1: 3}, {1: 1, 2: 1}, {0: 5, 1: 7}, {2: 1, 3: 1},
            {3: 4, 4: 1}, {4: 1, 3: 1}]
    dense = [[row.get(j, 0) for j in range(5)] for row in rows]
    left = [dict(row) for row in rows]
    assert _peel(left) == 5
    assert left == [{}, {}]
    assert rank([dict(row) for row in rows]) == rank_gauss_fraction(dense) == 5
    for p in (3, 5):
        assert rank(rows, p) == rank_gauss_fraction_modp(
            [[x % p for x in row] for row in dense], p)
    # nothing to peel: the list is left as it is
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}]
    assert _peel(rows) == 0 and rows == [{0: 1, 1: 1}, {1: 1, 2: 1}]


def test_peel_matches_fraction_rank(rng):
    """Planted cascades, duplicate rows and rows that empty out: the rank
    with the peel is that of Fraction elimination over Q and mod 3 and 5,
    and after ``_peel`` no row left holds a struck column."""
    for _ in range(60):
        m = rng.randint(2, 9)
        rows = _cascade_rows(rng, m)
        dense = [[row.get(j, 0) for j in range(m)] for row in rows]
        assert rank([dict(row) for row in rows]) == rank_gauss_fraction(dense)
        for p in (3, 5):
            assert rank(rows, p) == rank_gauss_fraction_modp(
                [[x % p for x in row] for row in dense], p)
        left = [dict(row) for row in rows]
        struck = _peel(left)
        kept = {c for row in left for c in row}
        assert struck + rank_gauss_fraction(
            [[row.get(j, 0) for j in range(m)] for row in left]) == rank_gauss_fraction(dense)
        assert len(left) == len(rows) - struck
        assert all(len(row) != 1 for row in left)
        assert len({c for row in rows for c in row} - kept) >= struck


def test_reduce_returns_primitive_rows(rng):
    """``Echelon.reduce`` over Z returns, and ``add`` keeps, primitive rows:
    after a unit cancel, which works in place and divides nothing, and
    after a non-unit one."""
    echelon = Echelon(_cancel_z)
    echelon.add({0: 1, 1: 2})
    assert echelon.reduce({0: 2, 1: 4, 2: 6}) == {2: 1}          # unit pivot
    assert echelon.reduce({0: -3, 1: -6, 2: 9, 3: 3}) == {2: 3, 3: 1}
    echelon = Echelon(_cancel_z)
    assert echelon.add({0: 2, 1: 1}) == (0, {0: 2, 1: 1})
    assert echelon.reduce({0: 3, 1: 5, 2: 3}) == {1: 7, 2: 6}     # a = 2
    assert echelon.reduce({0: 4, 1: 8, 2: 12}) == {1: 1, 2: 2}
    assert echelon.add({1: 6, 2: 4}) == (1, {1: 3, 2: 2})         # no cancel
    for _ in range(40):
        echelon = Echelon(_cancel_z)
        for _ in range(rng.randint(1, 8)):
            row = {j: x for j in range(6) if (x := rng.choice([0, 0, 1, -2, 3, 4, -6]))}
            piv, red = echelon.add(row)
            assert gcd(*red.values()) in (0, 1)
        assert all(gcd(*row.values()) == 1 for row in echelon.rows.values())


def test_z_row_copies_int_rows_and_rejects_others():
    row = {0: 2, 1: 0, 3: -3}
    out = _z_row(row)
    assert out == {0: 2, 3: -3} and out is not row
    assert all(type(x) is int for x in out.values())
    for bad in (Fraction(1, 2), Fraction(4, 2), d, 1.0):
        with pytest.raises(TypeError):
            _z_row({0: 1, 1: bad})


def test_oracle_z_row_scales_fractions():
    # the rational oracles scale their rows themselves (exact_ops.z_row)
    assert z_row({0: Fraction(1, 2), 1: Fraction(-1, 3), 2: 1}) == {0: 3, 1: -2, 2: 6}
    assert z_row({0: Fraction(4, 2), 1: 3, 2: 0}) == {0: 2, 1: 3}
    with pytest.raises(TypeError):
        z_row({0: 1, 1: d})
