"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria are exact (no tolerances); the few with runtime budgets assert the
elapsed wall time as well.
"""

import time

import brauercell.branching as br
from brauercell.cli import main as cli_main
from brauercell.diagrams import AlgebraElement
from brauercell.matchings import BrauerDiagram, all_diagrams
from brauercell.murphy import (brauer_branching_factors, brauer_cell_generator,
                               murphy_basis)
from brauercell.rings import Poly
from brauercell.seminormal import gz_idempotents, specialize_quotient
from brauercell.sft import (algebra_dimension, expected_image_dimension,
                            ideal_generators, ideal_span_rank, sum_all_diagrams,
                            walled_signed_sum)
from brauercell.tensorrep import TensorRep, image_rank
from cell_ops import jm_seminormal_check, path_strictly_dominates
from diagram_ops import length, sign
from exact_ops import det_cofactor
from tensor_ops import (pfaffian_diagram_sum, pfaffian_recursive, rep_element,
                        walled_det_matrix, walled_det_sum)

DOUBLE_FACTORIALS = [1, 1, 3, 15, 105, 945, 10395]

RESULTS: list[str] = []


def report(num, text, ok):
    line = f"ACCEPTANCE CRITERION {num}: {text}: {'PASS' if ok else 'FAIL'}"
    RESULTS.append(line)
    print(line)
    assert ok


def test_criterion_1_diagram_engine():
    t0 = time.monotonic()
    ok = True
    delta = Poly.delta()
    for r in range(2, 6):
        one = AlgebraElement.one(r)
        E = {i: AlgebraElement.from_diagram(BrauerDiagram.e(i, r))
             for i in range(1, r)}
        S = {i: AlgebraElement.from_diagram(BrauerDiagram.s(i, r))
             for i in range(1, r)}
        for i in range(1, r):
            ok &= E[i] * E[i] == E[i].scale(delta)
            ok &= S[i] * E[i] == E[i] and E[i] * S[i] == E[i]
            ok &= S[i] * S[i] == one
        for i in range(1, r - 1):
            ok &= E[i] * E[i + 1] * E[i] == E[i]
            ok &= E[i + 1] * E[i] * E[i + 1] == E[i + 1]
            ok &= S[i] * S[i + 1] * S[i] == S[i + 1] * S[i] * S[i + 1]
        for i in range(1, r):
            for j in range(i + 2, r):
                ok &= E[i] * E[j] == E[j] * E[i]
                ok &= S[i] * S[j] == S[j] * S[i]
    for r in range(1, 7):
        ok &= len(all_diagrams(r)) == DOUBLE_FACTORIALS[r]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60
    report(1, f"Brauer relations r<=5 and diagram counts r<=6 ({elapsed:.1f}s)", ok)


def test_criterion_2_sign_lemma():
    ok = True
    total = 0
    for r in range(1, 6):
        for d in all_diagrams(r):
            corank = d.rank_corank()[1]
            ok &= (-1) ** (corank + length(d)) == sign(d)
            total += 1
    report(2, f"sign lemma on all {total} diagrams of B_1..B_5", ok)


def test_criterion_3_murphy_transition_and_compatibility():
    ok = True
    for flavor in ("brauer-murphy", "brauer-dual-murphy"):
        for r in range(2, 6):
            mb = murphy_basis(r, flavor)
            ok &= set(mb.transition_dets().values()) <= {1, -1}
            if r == 5:
                for key, elt in mb.elements.items():
                    ok &= all(d.rank_corank()[1] == key[0].l for d in elt.terms)
        for dual in (flavor == "brauer-dual-murphy",):
            for level in range(5):
                rr = level + 1
                for a in br.vertices_at_level(level):
                    for b in br.brauer_edges(a):
                        ga = brauer_cell_generator(a, dual, rr)
                        gb = brauer_cell_generator(b, dual, rr)
                        d, u = brauer_branching_factors(a, b, dual, rr)
                        ok &= gb * d == u.involution() * ga
    report(3, "transition det = +-1 and corank blocks (r<=5, both flavors); "
              "compatibility on every edge to level 5", ok)


def test_criterion_4_pfaffian_minor_identities():
    import random
    rng = random.Random(4)
    ok = True
    for _ in range(50):
        r = rng.randint(1, 3)
        n2 = 2 * r
        a = [[0] * n2 for _ in range(n2)]
        for i in range(n2):
            for j in range(i + 1, n2):
                v = rng.randint(-6, 6)
                a[i][j], a[j][i] = v, -v
        ok &= pfaffian_diagram_sum(a) == pfaffian_recursive(a)
        ok &= pfaffian_diagram_sum(a) ** 2 == det_cofactor(a)
    walled_shapes = [(1, 1), (2, 1), (1, 2), (3, 0)]
    for k in range(50):
        aa, bb = walled_shapes[k % len(walled_shapes)]
        r = aa + bb
        w = [[0] * (2 * r) for _ in range(2 * r)]
        for i in range(2 * r):
            for j in range(i, 2 * r):
                v = rng.randint(-4, 4)
                w[i][j] = w[j][i] = v
        ok &= walled_det_sum(aa, bb, w) == det_cofactor(walled_det_matrix(aa, bb, w))
    report(4, "diagram sum = recursive Pfaffian (r<=3) and walled signed sum "
              "= determinant (a+b<=3), 50 random matrices each", ok)


def test_criterion_5_kernel_generators_vanish():
    ok = True
    for n in (1, 2):
        r = n + 1
        rep = TensorRep("symplectic", n, r)
        ok &= rep_element(rep, sum_all_diagrams(r, -2 * n)).is_zero
    for n in (1, 2, 3):
        r = n + 1
        rep = TensorRep("orthogonal", n, r)
        for a in range(n + 2):
            ok &= rep_element(rep, walled_signed_sum(a, n + 1 - a, n)).is_zero
    report(5, "Phi(b_{N+1}) = 0 for N in {1,2}; Psi(d_{a,b}) = 0 for all "
              "a+b = N+1, N in {1,2,3}", ok)


GRID = [("symplectic", 1, [1, 2, 3, 4, 5]), ("symplectic", 2, [1, 2, 3, 4]),
        ("orthogonal", 2, [1, 2, 3, 4]), ("orthogonal", 3, [1, 2, 3]),
        ("symmetric", 2, [1, 2, 3, 4])]

EXPECTED_DIMS = {("symplectic", 1): [1, 2, 5, 14, 42],
                 ("symmetric", 2): [1, 2, 5, 14]}


def _generators(flavor, n, r):
    if flavor == "symmetric":
        from brauercell.matchings import all_permutation_diagrams
        return all_permutation_diagrams(r)
    return all_diagrams(r)


def test_criterion_6_dimension_certificate():
    t0 = time.monotonic()
    ok = True
    for flavor, n, rs in GRID:
        expected_list = EXPECTED_DIMS.get((flavor, n))
        for r in rs:
            expected = expected_image_dimension(r, n, flavor)
            if expected_list is not None:
                ok &= expected == expected_list[r - 1]
            got = image_rank(_generators(flavor, n, r), TensorRep(flavor, n, r))
            ok &= got == expected
    elapsed = time.monotonic() - t0
    ok &= elapsed < 600
    report(6, f"image rank over Q = sum of squared permissible path counts on "
              f"the full grid ({elapsed:.1f}s)", ok)


def test_criterion_7_split_basis_certificate(tmp_path):
    ok = True
    for flavor, n, rs in GRID:
        for r in rs:
            if r < 2:
                continue
            out = tmp_path / f"{flavor}-{n}-{r}.json"
            code = cli_main(["certify", "--flavor", flavor, "--r", str(r),
                             "--N", str(n), "--out", str(out)])
            ok &= code == 0
    report(7, "split-basis certificate: certify exits 0 on the full grid "
              "(kernel flags, kernel images zero, independent permissible images)", ok)


def test_criterion_8_ideal_generation():
    ok = True
    cases = [("symplectic", 1, [2, 3, 4, 5]), ("orthogonal", 2, [3, 4, 5]),
             ("symmetric", 2, [3, 4, 5])]
    for flavor, n, rs in cases:
        delta0 = {"symplectic": -2 * n, "orthogonal": n, "symmetric": None}[flavor]
        for r in rs:
            gens = ideal_generators(r, n, flavor, delta0)
            dim_ker = algebra_dimension(r, flavor) - expected_image_dimension(r, n, flavor)
            got = ideal_span_rank(gens, r, flavor) if gens else 0
            ok &= got == dim_ker
    report(8, "span{D1 g D2} over the marginal generators has rank dim ker "
              "(symplectic N=1 r<=5; orthogonal N=2 r=3..5; symmetric N=2 r=3..5)", ok)


def test_criterion_9_field_independence():
    ok = True
    for flavor in ("symplectic", "orthogonal"):
        for n in (1, 2):
            for r in (2, 3, 4):
                rep = TensorRep(flavor, n, r)
                gens = _generators(flavor, n, r)
                expected = expected_image_dimension(r, n, flavor)
                primes = (2, 3, 5, 7) if flavor == "symplectic" else (3, 5, 7)
                for p in primes:
                    ok &= image_rank(gens, rep, p=p) == expected
    report(9, "image rank over F_p equals the rank over Q "
              "(p in 3,5,7 and 2 for symplectic; N<=2, r<=4)", ok)


def test_criterion_10_seminormal_suite():
    # F_t = N_t / D_t over Z[delta]: the idempotent laws are checked on the
    # numerators, scaled by the denominators
    def _mat_mul(a, b):
        return [[sum((x * b[k][j] for k, x in enumerate(row) if x and b[k][j]), 0)
                 for j in range(len(b[0]))] for row in a]

    def _mat_eq(a, b):
        return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))

    def _mat_is_zero(a):
        return all(not x for row in a for x in row)
    t0 = time.monotonic()
    ok = True
    for r in range(2, 5):
        mb = murphy_basis(r, "brauer-murphy")
        for v in mb.vertices:
            sd = gz_idempotents(mb, v)
            npaths = len(sd.paths)
            total = [[0] * npaths for _ in range(npaths)]
            dens = Poly.one()
            for ti in range(npaths):
                f, den = sd.idempotents[ti]
                ok &= _mat_eq(_mat_mul(f, f), [[den * x for x in row] for row in f])
                for tj in range(ti + 1, npaths):
                    ok &= _mat_is_zero(_mat_mul(f, sd.idempotents[tj][0]))
                # sum_t (prod_{u != t} D_u) N_t = (prod_u D_u) I
                total = [[den * total[i][j] + dens * f[i][j] for j in range(npaths)]
                         for i in range(npaths)]
                dens = dens * den
            ok &= _mat_eq(total, [[dens if i == j else 0 for j in range(npaths)]
                                  for i in range(npaths)])
            # unitriangularity of f_t = n_t / D_t against m, and the JM
            # diagonal action
            for ti in range(npaths):
                f, den = sd.idempotents[ti]
                ok &= f[ti][ti] == den
                for tj in range(npaths):
                    if tj != ti and f[ti][tj]:
                        ok &= path_strictly_dominates(sd.paths[tj], sd.paths[ti])
            ok &= jm_seminormal_check(sd)
    # specialized quotient structure, symplectic N <= 2, r <= 4
    for n in (1, 2):
        for r in range(2, 5):
            mb = murphy_basis(r, "brauer-murphy")
            for v in mb.vertices:
                sd = gz_idempotents(mb, v)
                rec = specialize_quotient(sd, -2 * n, "symplectic", n)
                if rec.skipped:
                    ok &= "not permissible" in rec.reason
                else:
                    ok &= rec.passed
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300
    report(10, f"seminormal suite r<=4 and specialized quotient matrix units "
               f"(symplectic N<=2) ({elapsed:.1f}s)", ok)
