from fractions import Fraction

import pytest

from brauercell.branching import Vertex, path_strictly_dominates
from brauercell.murphy import murphy_basis
from brauercell.rings import Poly, RatFunc, as_ratfunc
from brauercell.seminormal import (_mat_identity, _mat_mul, gz_idempotents,
                                   jm_seminormal_check, specialize_quotient)


def _mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _mat_is_zero(a) -> bool:
    return all(x.is_zero for row in a for x in row)


def idempotent_family_ok(sd):
    n = len(sd.paths)
    total = [[RatFunc.zero()] * n for _ in range(n)]
    for ti in range(n):
        f = sd.idempotents[ti]
        if not _mat_eq(_mat_mul(f, f), f):
            return False
        for tj in range(ti + 1, n):
            if not _mat_is_zero(_mat_mul(f, sd.idempotents[tj])):
                return False
            if not _mat_is_zero(_mat_mul(sd.idempotents[tj], f)):
                return False
        total = [[total[i][j] + f[i][j] for j in range(n)] for i in range(n)]
    return _mat_eq(total, _mat_identity(n))


def test_trivial_modules():
    mb = murphy_basis(2, "brauer-murphy")
    for v in mb.vertices:
        sd = gz_idempotents(mb, v)
        assert len(sd.paths) == 1
        assert sd.idempotents[0] == [[RatFunc.one()]]
        assert sd.vectors[0] == [RatFunc.one()]


def test_b2_eigenvalues():
    d = Poly.delta()
    mb = murphy_basis(2, "brauer-murphy")
    eigs = set()
    for v in mb.vertices:
        sd = gz_idempotents(mb, v)
        assert jm_seminormal_check(sd)
        eigs.add(sd.jm_matrices[1][0][0])
    assert eigs == {as_ratfunc(1), as_ratfunc(-1), as_ratfunc(1 - d)}


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
        mat = sd.idempotents[ti]
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
        fmat = [sd.vectors[ti] for ti in range(n)]
        for ti in range(n):
            assert fmat[ti][ti] == 1
            for tj in range(n):
                if tj != ti and not fmat[ti][tj].is_zero:
                    assert path_strictly_dominates(paths[tj], paths[ti], mb.dual)
        inv = _invert_unitriangular(fmat)
        for ti in range(n):
            assert inv[ti][ti] == 1
            for tj in range(n):
                if tj != ti and not inv[ti][tj].is_zero:
                    assert path_strictly_dominates(paths[tj], paths[ti], mb.dual)


def _invert_unitriangular(rows):
    n = len(rows)
    aug = [[rows[i][j] for j in range(n)]
           + [RatFunc.one() if i == j else RatFunc.zero() for j in range(n)]
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
        for s in range(n):
            for t in range(n):
                if s != t:
                    assert sd.form(sd.vectors[s], sd.vectors[t]).is_zero
        # the unitriangular change of basis has determinant 1, so the product
        # of the diagonal entries equals det of the Murphy Gram matrix
        prod = RatFunc.one()
        for t in range(n):
            prod = prod * sd.gram_f[t]
        det = mb.gram_matrix(v).det()
        assert prod == as_ratfunc(det)


def test_jm_seminormal_b3():
    mb = murphy_basis(3, "brauer-murphy")
    for v in mb.vertices:
        assert jm_seminormal_check(gz_idempotents(mb, v))


def test_specialize_symplectic_n1_r2():
    mb = murphy_basis(2, "brauer-murphy")
    sd = gz_idempotents(mb, Vertex((), 1))
    rec = specialize_quotient(sd, -2, "symplectic", 1)
    assert not rec.skipped and rec.passed
    assert rec.permissible == [0]
    assert sd.gram_f[0].evaluate(-2) == -2


def test_specialize_symplectic_n1_r3():
    mb = murphy_basis(3, "brauer-murphy")
    sd = gz_idempotents(mb, Vertex((1,), 1))
    rec = specialize_quotient(sd, -2, "symplectic", 1)
    assert not rec.skipped and rec.passed
    assert len(rec.permissible) == 2
    diag = [sd.gram_f[t].evaluate(-2) for t in range(3)]
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
    g0 = [[x.evaluate(delta0) for x in row] for row in sd.gram]
    f0 = {t: [x.evaluate(delta0) for x in sd.vectors[t]] for t in perm}

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
    from brauercell.branching import residue_collisions
    assert residue_collisions(2, 2, "orthogonal", 2)
    assert not residue_collisions(2, 3, "orthogonal", 3)


def test_record_json():
    mb = murphy_basis(2, "brauer-murphy")
    sd = gz_idempotents(mb, Vertex((), 1))
    rec = specialize_quotient(sd, -2, "symplectic", 1)
    data = rec.to_json()
    assert data["vertex"] == {"lam": [], "l": 1}
    assert all(c["pass"] for c in data["checks"])
