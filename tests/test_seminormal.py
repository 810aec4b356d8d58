from fractions import Fraction
from functools import lru_cache

import pytest

from brauercell.branching import Vertex
from brauercell.murphy import murphy_basis
from brauercell.rings import Poly
from brauercell.seminormal import cleared_at, gz_idempotents, specialize_quotient
from cell_ops import jm_seminormal_check, path_strictly_dominates
from exact_ops import det_cofactor, quotient_at, specialize_quotient_oracle

d = Poly.delta()


def _mat_mul(a, b):
    return [[sum((x * b[k][j] for k, x in enumerate(row) if x and b[k][j]), 0)
             for j in range(len(b[0]))] for row in a]


def _mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _mat_is_zero(a) -> bool:
    return all(not x for row in a for x in row)


def _form(x, g, y):
    return sum((x[i] * g[i][j] * y[j] for i in range(len(x)) for j in range(len(y))
                if x[i] and g[i][j] and y[j]), 0)


def idempotent_family_ok(sd):
    """F_t = N_t / D_t are orthogonal idempotents summing to 1, restated
    over Z[delta]: N_t^2 = D_t N_t, N_t N_u = 0 for t != u, and
    sum_t (prod_{u != t} D_u) N_t = (prod_u D_u) I."""
    n = len(sd.paths)
    fam = [sd.idempotents[ti] for ti in range(n)]
    for ti, (num, den) in enumerate(fam):
        if not _mat_eq(_mat_mul(num, num), [[den * x for x in row] for row in num]):
            return False
        for tj in range(ti + 1, n):
            if not _mat_is_zero(_mat_mul(num, fam[tj][0])):
                return False
            if not _mat_is_zero(_mat_mul(fam[tj][0], num)):
                return False
    # after the first k paths, total = sum_{t < k} (prod_{u < k, u != t} D_u) N_t
    total, dens = [[0] * n for _ in range(n)], Poly.one()
    for num, den in fam:
        total = [[den * total[i][j] + dens * num[i][j] for j in range(n)]
                 for i in range(n)]
        dens = dens * den
    return _mat_eq(total, [[dens if i == j else 0 for j in range(n)] for i in range(n)])


def test_quotient_at_cancels_the_pole():
    assert quotient_at(d - 2, d - 2, 2) == 1
    assert quotient_at(d, d - 2, 2) is None
    assert quotient_at((d - 2) * (d - 2), d - 2, 2) == 0
    assert quotient_at(0, d - 2, 2) == 0
    assert quotient_at(Poly.zero(), d - 2, 2) == 0
    assert quotient_at(3, 2 * d, 1) == Fraction(3, 2)


def test_cleared_at_agrees_with_quotient_at():
    """F(x0) = M / q, entry by entry, and None exactly where quotient_at
    finds a pole."""
    num = [[d - 2, (d - 2) * (d - 2) * (d + 1)], [0, (d - 2) * 3 * d]]
    for den in (d - 2, (d - 2) * (d + 3), 2 * d, Poly.const(-3)):
        m, q = cleared_at(num, den, 2)
        assert isinstance(q, int) and q
        assert all(isinstance(x, int) for row in m for x in row)
        assert [[Fraction(x, q) for x in row] for row in m] == \
            [[quotient_at(x, den, 2) for x in row] for row in num]
    assert cleared_at(num, (d - 2) * (d - 2), 2) is None
    assert quotient_at(num[0][0], (d - 2) * (d - 2), 2) is None
    assert cleared_at([[5]], d - 2, 2) is None
    assert cleared_at([[0, Poly.zero()]], (d - 2) ** 3, 2) == ([[0, 0]], 1)


def test_trivial_modules():
    mb = murphy_basis(2, "brauer-murphy")
    for v in mb.vertices:
        sd = gz_idempotents(mb, v)
        assert len(sd.paths) == 1
        num, den = sd.idempotents[0]
        assert num == [[den]]


def test_b2_eigenvalues():
    mb = murphy_basis(2, "brauer-murphy")
    eigs = set()
    for v in mb.vertices:
        sd = gz_idempotents(mb, v)
        assert jm_seminormal_check(sd)
        eigs.add(sd.jm_matrices[1][0][0])
    assert eigs == {1, -1, 1 - d}


@pytest.mark.parametrize("flavor", ["brauer-murphy", "brauer-dual-murphy"])
@pytest.mark.parametrize("r", [2, 3])
def test_idempotent_family(flavor, r):
    mb = murphy_basis(r, flavor)
    for v in mb.vertices:
        sd = gz_idempotents(mb, v)
        assert idempotent_family_ok(sd)


def test_b3_three_path_module():
    mb = murphy_basis(3, "brauer-murphy")
    sd = gz_idempotents(mb, Vertex((1,), 1))
    assert len(sd.paths) == 3
    assert idempotent_family_ok(sd)
    # each F_t is rank one: F_t = column * row with row = f_t
    for ti in range(3):
        mat = sd.idempotents[ti][0]
        for i in range(3):
            for j in range(3):
                assert mat[i][j] * mat[ti][ti] == mat[i][ti] * mat[ti][j]


@pytest.mark.parametrize("flavor", ["brauer-murphy", "brauer-dual-murphy"])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_unitriangularity_both_ways(flavor, r):
    mb = murphy_basis(r, flavor)
    for v in mb.vertices:
        sd = gz_idempotents(mb, v)
        paths = sd.paths
        n = len(paths)
        # f_t = n_t / D_t, with n_t row t of N_t
        fmat = []
        for ti in range(n):
            num, den = sd.idempotents[ti]
            assert num[ti][ti] == den
            for tj in range(n):
                if tj != ti and num[ti][tj]:
                    assert path_strictly_dominates(paths[tj], paths[ti], mb.dual)
            fmat.append([_Frac(x, den) for x in num[ti]])
        inv = _invert_unitriangular(fmat)
        for ti in range(n):
            assert inv[ti][ti] == 1
            for tj in range(n):
                if tj != ti and not inv[ti][tj].is_zero:
                    assert path_strictly_dominates(paths[tj], paths[ti], mb.dual)


class _Frac:
    """num / den over Z[delta], unreduced; equality by cross-multiplication."""

    def __init__(self, num, den=1):
        self.num, self.den = num, den

    @property
    def is_zero(self):
        return not self.num

    def __sub__(self, other):
        if other.is_zero:
            return self
        if other.den == self.den:
            return _Frac(self.num - other.num, self.den)
        return _Frac(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return _Frac(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return _Frac(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        other = other if isinstance(other, _Frac) else _Frac(other)
        return self.num * other.den == other.num * self.den


def _invert_unitriangular(rows):
    n = len(rows)
    aug = [[rows[i][j] for j in range(n)]
           + [_Frac(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(i for i in range(n) if not aug[i][col].is_zero
                   and all(aug[i][c].is_zero for c in range(col)))
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and not aug[i][col].is_zero:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


@pytest.mark.parametrize("r", [2, 3])
def test_gram_f_diagonal_and_determinant(r):
    mb = murphy_basis(r, "brauer-murphy")
    for v in mb.vertices:
        sd = gz_idempotents(mb, v)
        n = len(sd.paths)
        rows = [sd.idempotents[t][0][t] for t in range(n)]
        gram = mb.gram_matrix(v).rows
        for s in range(n):
            for t in range(n):
                if s != t:
                    assert not _form(rows[s], gram, rows[t])
        # the unitriangular change of basis has determinant 1, so the product
        # of the <f_t, f_t> = <n_t, n_t> / D_t^2 equals det of the Murphy Gram
        lhs, rhs = Poly.one(), det_cofactor(gram)
        for t in range(n):
            lhs = lhs * _form(rows[t], gram, rows[t])
            rhs = rhs * sd.idempotents[t][1] ** 2
        assert lhs == rhs


def test_jm_seminormal_b3():
    mb = murphy_basis(3, "brauer-murphy")
    for v in mb.vertices:
        assert jm_seminormal_check(gz_idempotents(mb, v))


def _norm_at(sd, t, delta0):
    """<f_t, f_t> = <n_t, n_t> / D_t^2 at delta0."""
    num, den = sd.idempotents[t]
    gram = sd.basis.gram_matrix(sd.vertex).rows
    return quotient_at(_form(num[t], gram, num[t]), den ** 2, delta0)


def test_specialize_symplectic_n1_r2():
    mb = murphy_basis(2, "brauer-murphy")
    sd = gz_idempotents(mb, Vertex((), 1))
    rec = specialize_quotient(sd, -2, "symplectic", 1)
    assert not rec.skipped and rec.passed
    assert rec.permissible == [0]
    assert _norm_at(sd, 0, -2) == -2


def test_specialize_symplectic_n1_r3():
    mb = murphy_basis(3, "brauer-murphy")
    sd = gz_idempotents(mb, Vertex((1,), 1))
    rec = specialize_quotient(sd, -2, "symplectic", 1)
    assert not rec.skipped and rec.passed
    assert len(rec.permissible) == 2
    diag = [_norm_at(sd, t, -2) for t in range(3)]
    assert diag.count(0) == 1
    zero_at = diag.index(0)
    assert zero_at not in rec.permissible


@pytest.mark.parametrize("n,rmax", [(1, 4), (2, 4)])
def test_specialize_symplectic_sweep(n, rmax):
    for r in range(2, rmax + 1):
        mb = murphy_basis(r, "brauer-murphy")
        for v in mb.vertices:
            sd = gz_idempotents(mb, v)
            rec = specialize_quotient(sd, -2 * n, "symplectic", n)
            if rec.skipped:
                assert "not permissible" in rec.reason
            else:
                assert rec.passed, (n, r, v, rec.checks)


def test_specialize_orthogonal_small():
    for n in (2, 3):
        for r in (2, 3):
            mb = murphy_basis(r, "brauer-dual-murphy")
            for v in mb.vertices:
                sd = gz_idempotents(mb, v)
                rec = specialize_quotient(sd, n, "orthogonal", n)
                if rec.skipped:
                    # either an impermissible vertex or a reported collision
                    assert ("not permissible" in rec.reason) or rec.collisions
                else:
                    assert rec.passed, (n, r, v, rec.checks)


def operator_matrix_unit_law(sd, delta0, perm):
    """E_st E_uv = delta_tu E_sv for the n x n operators
    E_st(w) = <w, f_s> / <f_s, f_s> * f_t on the specialized module."""
    n = len(sd.paths)
    g0 = sd.basis.gram_matrix(sd.vertex, delta0).rows
    f0 = {t: [quotient_at(x, sd.idempotents[t][1], delta0)
              for x in sd.idempotents[t][0][t]] for t in perm}

    def e_op(s, t):
        norm = sum(f0[s][i] * g0[i][j] * f0[s][j] for i in range(n) for j in range(n))
        gs = [Fraction(sum(g0[i][j] * f0[s][j] for j in range(n)), norm)
              for i in range(n)]
        return [[gs[i] * f0[t][j] for j in range(n)] for i in range(n)]

    def op_mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    ops = {(s, t): e_op(s, t) for s in perm for t in perm}
    zero = [[0] * n for _ in range(n)]
    return all(op_mul(ops[(s, t)], ops[(u, v)]) == (ops[(s, v)] if t == u else zero)
               for s in perm for t in perm for u in perm for v in perm)


@pytest.mark.parametrize("flavor,basis_flavor,cases", [
    ("symplectic", "brauer-murphy", [(1, -2), (2, -4)]),
    ("orthogonal", "brauer-dual-murphy", [(2, 2), (3, 3)]),
], ids=["symplectic", "orthogonal"])
def test_matrix_unit_law_matches_operator_oracle(flavor, basis_flavor, cases):
    law = "quotient matrix-unit law"
    multi = 0
    for n, delta0 in cases:
        for r in (1, 2, 3):
            mb = murphy_basis(r, basis_flavor)
            for v in mb.vertices:
                sd = gz_idempotents(mb, v)
                rec = specialize_quotient(sd, delta0, flavor, n)
                recorded = dict(rec.checks)
                if law not in recorded:
                    continue
                assert recorded[law] == operator_matrix_unit_law(
                    sd, delta0, rec.permissible), (n, r, v)
                multi += len(rec.permissible) > 1
    assert multi > 0


def test_degenerate_orthogonal_guard():
    """A fabricated non-evaluable case must be explained by collisions: at
    delta0 = 2 (orthogonal N = 2) the collision list is nonempty, and the
    record never asserts (SN) when skipping."""
    from brauercell.seminormal import residue_collisions
    assert residue_collisions(2, 2, "orthogonal", 2)
    assert not residue_collisions(2, 3, "orthogonal", 3)


def test_pole_skips_the_record():
    # no real vertex at r <= 5 has a pole, so give one D_t an extra factor
    # (delta - delta0) that its numerator lacks
    mb = murphy_basis(2, "brauer-dual-murphy")
    sd = gz_idempotents(mb, Vertex((), 1))
    rec = specialize_quotient(sd, 2, "orthogonal", 2)
    assert not rec.skipped and rec.permissible == [0]
    num, den = sd.idempotents[0]
    sd.idempotents[0] = (num, den * (d - 2))
    rec = specialize_quotient(sd, 2, "orthogonal", 2)
    assert rec.skipped and rec.collisions and rec.passed
    assert rec.checks == [("non-evaluable idempotents explained by residue "
                           "collisions", True)]


@lru_cache(maxsize=None)
def _all_seminormal(r, basis_flavor):
    mb = murphy_basis(r, basis_flavor)
    return [gz_idempotents(mb, v) for v in mb.vertices]


@pytest.mark.parametrize("flavor,basis_flavor,cases", [
    ("symplectic", "brauer-murphy", [(n, r) for n in range(1, 5) for r in range(1, 5)]),
    ("orthogonal", "brauer-dual-murphy",
     [(n, r) for n in range(1, 5) for r in range(1, 5)] + [(2, 5)]),
], ids=["symplectic", "orthogonal"])
def test_specialize_quotient_matches_fraction_oracle(flavor, basis_flavor, cases):
    """The integer checks give the Fraction oracle's record, byte for byte,
    on every vertex."""
    delta0 = {"symplectic": lambda n: -2 * n, "orthogonal": lambda n: n}[flavor]
    checked = 0
    for n, r in cases:
        for sd in _all_seminormal(r, basis_flavor):
            got = specialize_quotient(sd, delta0(n), flavor, n).to_json()
            assert got == specialize_quotient_oracle(sd, delta0(n), flavor, n).to_json(), \
                (n, r, sd.vertex)
            checked += len(got["checks"]) > 2
    assert checked > 0


def test_pole_record_matches_fraction_oracle():
    mb = murphy_basis(2, "brauer-dual-murphy")
    sd = gz_idempotents(mb, Vertex((), 1))
    num, den = sd.idempotents[0]
    sd.idempotents[0] = (num, den * (d - 2))
    got = specialize_quotient(sd, 2, "orthogonal", 2).to_json()
    assert got["skipped"] and got["collisions"]
    assert got == specialize_quotient_oracle(sd, 2, "orthogonal", 2).to_json()


def _swap_first_two(sd, perm):
    sd.idempotents[perm[0]] = sd.idempotents[perm[1]]


def _transpose_all(sd, perm):
    for t in perm:
        num, den = sd.idempotents[t]
        sd.idempotents[t] = ([list(col) for col in zip(*num)], den)


def _double_first_den(sd, perm):
    num, den = sd.idempotents[perm[0]]
    sd.idempotents[perm[0]] = (num, 2 * den)


@pytest.mark.parametrize("corrupt", [_swap_first_two, _transpose_all, _double_first_den])
@pytest.mark.parametrize("flavor,basis_flavor,n,v", [
    ("symplectic", "brauer-murphy", 1, Vertex((1, 1), 1)),
    ("orthogonal", "brauer-dual-murphy", 2, Vertex((2,), 1)),
], ids=["symplectic", "orthogonal"])
def test_failing_checks_match_fraction_oracle(corrupt, flavor, basis_flavor, n, v):
    """Idempotents that are not the seminormal ones fail some checks, and
    the integer checks fail exactly where the oracle's do."""
    delta0 = -2 * n if flavor == "symplectic" else n
    sd = gz_idempotents(murphy_basis(4, basis_flavor), v)
    corrupt(sd, specialize_quotient(sd, delta0, flavor, n).permissible)
    got = specialize_quotient(sd, delta0, flavor, n).to_json()
    assert not all(c["pass"] for c in got["checks"])
    assert got == specialize_quotient_oracle(sd, delta0, flavor, n).to_json()


@pytest.mark.parametrize("flavor,basis_flavor,n,v", [
    ("symplectic", "brauer-murphy", 1, Vertex((1, 1), 1)),
    ("orthogonal", "brauer-dual-murphy", 2, Vertex((2,), 1)),
], ids=["symplectic", "orthogonal"])
def test_radical_shift_passes_like_the_oracle(flavor, basis_flavor, n, v):
    """F_t + e_a (x) w, for w in the Gram radical, is the same operator on
    the quotient: every check still passes, although w F_t is no longer
    zero, so the radical tests must multiply by the Gram."""
    from brauercell.exactmat import ExactMatrix
    delta0 = -2 * n if flavor == "symplectic" else n
    mb = murphy_basis(4, basis_flavor)
    w = ExactMatrix(mb.gram_matrix(v, delta0).rows).kernel()[0]
    a = next(i for i, x in enumerate(w) if x)
    sd = gz_idempotents(mb, v)
    for t in specialize_quotient(sd, delta0, flavor, n).permissible:
        num, den = sd.idempotents[t]
        num = [list(row) for row in num]
        num[a] = [x + den * y for x, y in zip(num[a], w)]
        sd.idempotents[t] = (num, den)
    got = specialize_quotient(sd, delta0, flavor, n).to_json()
    assert len(got["checks"]) == 9 and all(c["pass"] for c in got["checks"])
    assert got == specialize_quotient_oracle(sd, delta0, flavor, n).to_json()


def test_record_json():
    mb = murphy_basis(2, "brauer-murphy")
    sd = gz_idempotents(mb, Vertex((), 1))
    rec = specialize_quotient(sd, -2, "symplectic", 1)
    data = rec.to_json()
    assert data["vertex"] == {"lam": [], "l": 1}
    assert all(c["pass"] for c in data["checks"])
