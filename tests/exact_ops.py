"""Exact oracles for the tests: a general solver over Z, the oracle of the
cell-row functionals and of the cellular expansion, the rank, inverse and
kernel of a dense matrix by Fraction elimination, the echelon's
cancellation over Q (``cancel_field``) and the determinant it gives, the
cofactor determinant, polynomial long division, the specialization of
seminormal data over Q, and the Q rank of rows that must be kept
(``rank_q``, on integer copies).  The package itself needs none of them:
it reads only columns of block inverses (``exactmat.inverse_columns``),
takes determinants by elimination over Z, and checks the specialized
seminormal structure as identities over Z
(``seminormal.specialize_quotient``)."""

from fractions import Fraction
from math import lcm

from brauercell.exactmat import Echelon, ExactMatrix, _cancel_z, _z_row, rank
from brauercell.matchings import perm_sign
from brauercell.rings import Poly
from brauercell.seminormal import quotient_record, residue_collisions


def z_row(row: dict) -> dict[int, int]:
    """A row of int or Fraction values scaled to integers by the lcm of their
    denominators, zeros dropped, for the package's integer echelon; a value
    that is not rational, such as a Poly, raises TypeError."""
    row = {c: Fraction(v) for c, v in row.items() if v}
    den = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in row.items()}


class LinearSolver:
    """Reusable exact solver: given independent basis vectors v_0..v_{n-1}
    (sparse dict rows over non-negative int columns), expand further
    vectors in terms of them; their values and those of a query may be
    Fractions, which ``z_row`` scales to integers with their tag.

    The rows are echelonized once over Z, each carrying its tag column.
    ``solve`` tags the query with ~n and reduces it: what is left is a
    primitive relation q * vec + sum_i x_i v_i = 0, so the coefficients are
    -x_i / q, all integers exactly when q = +-1.
    """

    def __init__(self, rows: list[dict]):
        self.n = len(rows)
        tagged = [z_row({**row, ~i: 1}) for i, row in enumerate(rows)]
        self.echelon = Echelon(_cancel_z)
        for row in sorted(tagged, key=len):
            if self.echelon.add(row)[0] is None:
                raise ValueError("linearly dependent basis rows")

    def solve(self, vec: dict) -> list:
        """Coefficients x with sum_i x_i v_i = vec; raises if inconsistent.
        A coefficient is an int where it is integral and a Fraction
        otherwise."""
        row = self.echelon.reduce(z_row({**vec, ~self.n: 1}))
        q = row.pop(~self.n)
        if any(c >= 0 for c in row):
            raise ValueError("vector outside the span of the basis")
        coeffs = [0] * self.n
        for c, x in row.items():
            coeffs[~c] = -x * q if q in (1, -1) else Fraction(-x, q)
        return coeffs


def rref_fraction(rows: list[list]) -> tuple[list[list[Fraction]], list[int]]:
    """The reduced row echelon form over Q of a dense matrix, by
    Gauss-Jordan elimination on Fractions, and its pivot columns."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots: list[int] = []
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        pivots.append(col)
    return rows, pivots


def rank_gauss_fraction(rows) -> int:
    return len(rref_fraction(rows)[1])


def kernel_fraction(rows: list[list]) -> list[list[Fraction]]:
    """A basis of {v : rows @ v = 0} over Q, one vector per free column of
    ``rref_fraction``."""
    ncols = len(rows[0]) if rows else 0
    reduced, pivots = rref_fraction(rows)
    out = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for k, col in enumerate(pivots):
            v[col] = -reduced[k][free]
        out.append(v)
    return out


def inverse_fraction(rows):
    """Gauss-Jordan inverse of a dense invertible matrix over Q: the right
    half of ``rref_fraction`` of [rows | I]."""
    n = len(rows)
    reduced, _ = rref_fraction([list(row) + [int(i == j) for j in range(n)]
                                for i, row in enumerate(rows)])
    return [row[n:] for row in reduced]


def cancel_field(row: dict, prow: dict, c: int) -> dict:
    """The echelon's cancellation over Q: row - (row[c] / prow[c]) * prow,
    in place; row[c] must be a Fraction, never an int."""
    f = row[c] / prow[c]
    for k, x in prow.items():
        w = row.get(k, 0) - f * x
        if w:
            row[k] = w
        else:
            del row[k]
    return row


def det_fraction(rows: list[list]):
    """The determinant by elimination over Q on ``Echelon(cancel_field)``:
    the product of the pivots times the sign of the row -> pivot column
    permutation."""
    n = len(rows)
    frows = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in rows]
    echelon = Echelon(cancel_field)
    pivots = [0] * n
    for i in sorted(range(n), key=lambda i: len(frows[i])):
        piv = echelon.add(frows[i])[0]
        if piv is None:
            return 0
        pivots[i] = piv
    det = Fraction(perm_sign([c + 1 for c in pivots]))
    for c in pivots:
        det *= echelon.rows[c][c]
    return det


def det_cofactor(b: list[list]):
    n = len(b)
    if n == 0:
        return 1
    if n == 1:
        return b[0][0]
    total = 0
    for j in range(n):
        if b[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in b[1:]]
        total += (-1) ** j * b[0][j] * det_cofactor(minor)
    return total


def poly_divmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Polynomial long division, quotient and remainder; exact over the
    rationals."""
    if den.is_zero:
        raise ZeroDivisionError("Poly division by zero")
    rem = dict(num.coeffs)
    quo: dict = {}
    dlead = den.degree
    clead = den.coeffs[dlead]
    while rem:
        e = max(rem)
        if e < dlead:
            break
        q = Fraction(rem[e]) / Fraction(clead)
        if q.denominator == 1:
            q = int(q)
        quo[e - dlead] = q
        for e2, c2 in den.coeffs.items():
            tgt = e - dlead + e2
            v = rem.get(tgt, 0) - q * c2
            if v == 0:
                rem.pop(tgt, None)
            else:
                rem[tgt] = v
    return Poly(quo), Poly(rem)


def quotient_at(num, den: Poly, x0):
    """num / den at delta = x0, after cancelling each factor (delta - x0) of
    den from num by exact synthetic division.  None when num has fewer such
    factors than den: a pole at x0."""
    if not num:
        return 0
    num = num if isinstance(num, Poly) else Poly.const(num)
    root = Poly({0: -x0, 1: 1})
    while den.evaluate(x0) == 0:
        num, rem = poly_divmod(num, root)
        if rem:
            return None
        den = poly_divmod(den, root)[0]
    return Fraction(num.evaluate(x0), den.evaluate(x0))


def specialize_quotient_oracle(sd, delta0, flavor: str, n: int):
    """The record ``seminormal.specialize_quotient`` must give, with its
    checks made over Q as before they were integer identities: each entry
    of F_t is evaluated by ``quotient_at``, and each radical test multiplies
    a dense Fraction vector by the Gram at delta0."""
    npaths = len(sd.paths)
    record = quotient_record(sd.vertex, sd.paths, delta0, flavor, n)
    if record.skipped:
        return record

    evaluable = {}
    for ti in record.permissible:
        num, den = sd.idempotents[ti]
        ev = [[quotient_at(x, den, delta0) for x in row] for row in num]
        if any(v is None for row in ev for v in row):
            evaluable[ti] = None
        else:
            evaluable[ti] = ev
    if any(v is None for v in evaluable.values()):
        collisions = []
        for level in range(1, sd.basis.r + 1):
            collisions += residue_collisions(level, delta0, flavor, n,
                                             sd.basis.add_only)
        record.collisions = collisions
        record.skipped = True
        record.reason = ("interpolation denominators vanish at the "
                         "specialization; residue collisions reported")
        # a non-evaluable permissible idempotent without a residue collision
        # to blame would contradict the quotient seminormal theorem
        record.add("non-evaluable idempotents explained by residue collisions",
                   bool(collisions))
        return record
    record.add("permissible idempotents evaluable", True)

    g0 = sd.basis.gram_matrix(sd.vertex, delta0).rows
    # f_t is row t of F_t, so it is evaluable with F_t
    f0 = {ti: evaluable[ti][ti] for ti in record.permissible}
    record.add("permissible seminormal vectors evaluable", True)

    def form0(x, y):
        return sum(x[i] * g0[i][j] * y[j]
                   for i in range(npaths) for j in range(npaths))

    diag = {ti: form0(f0[ti], f0[ti]) for ti in record.permissible}
    record.add("specialized <f_t, f_t> nonzero for permissible t",
               all(v != 0 for v in diag.values()))
    orthogonal = all(form0(f0[s], f0[t]) == 0
                     for s in record.permissible for t in record.permissible
                     if s != t)
    record.add("specialized <f_s, f_t> zero for s != t", orthogonal)

    rank = ExactMatrix(g0).rank()
    record.add("specialized Gram rank = permissible path count",
               rank == len(record.permissible))

    # matrix units on the quotient by the Gram radical, as honest operators
    # on the specialized module: E_st(w) = <w, f_s> / <f_s, f_s> * f_t.
    perm = record.permissible
    if all(v != 0 for v in diag.values()):
        def in_radical(vec) -> bool:
            return all(sum(g0[i][j] * vec[j] for j in range(npaths)) == 0
                       for i in range(npaths))

        # the specialized idempotents preserve the radical ...
        rad_basis = ExactMatrix(g0).kernel()
        preserves = True
        for t in perm:
            for w in rad_basis:
                img = [sum(w[a] * evaluable[t][a][b] for a in range(npaths))
                       for b in range(npaths)]
                preserves &= in_radical(img)
        record.add("specialized idempotents preserve the Gram radical", preserves)

        # ... and induce the diagonal matrix units on the quotient:
        # f_s F_t = delta_{st} f_s modulo the radical.
        induced_ok = True
        for s in perm:
            for t in perm:
                vec = [sum(f0[s][a] * evaluable[t][a][b] for a in range(npaths))
                       for b in range(npaths)]
                if s == t:
                    vec = [vec[b] - f0[s][b] for b in range(npaths)]
                induced_ok &= in_radical(vec)
        record.add("specialized F_t induce the diagonal matrix units", induced_ok)

        # The matrix units E_st(w) = <w, f_s> / <f_s, f_s> * f_t compose as
        # w E_st E_uv = <w, f_s> / <f_s, f_s> * <f_t, f_u> / <f_u, f_u> * f_v,
        # that is E_st E_uv = <f_t, f_u> / <f_u, f_u> * E_sv.  Every
        # <f_t, f_t> is nonzero here, so f_s, f_v and w -> <w, f_s> are all
        # nonzero and E_sv != 0.  Hence the law E_st E_uv = delta_tu E_sv holds
        # for all s, t, u, v iff <f_t, f_u> = 0 for t != u: the orthogonality
        # checked above.
        record.add("quotient matrix-unit law", orthogonal)

        # E_tt agrees with the specialized idempotent modulo the radical:
        # row a of E_tt is <e_a, f_t> / <f_t, f_t> * f_t
        agree = True
        for t in perm:
            for a in range(npaths):
                c = Fraction(sum(g0[a][j] * f0[t][j] for j in range(npaths)), diag[t])
                row = [c * f0[t][b] - evaluable[t][a][b] for b in range(npaths)]
                agree &= in_radical(row)
        record.add("E_tt = specialized F_t modulo the radical", agree)
    return record


def rank_q(rows) -> int:
    """Rank over Q of sparse rows of ints or Fractions, by ``exactmat.rank``
    on integer copies (``_z_row``), so ``rows`` stay as they are."""
    return rank([_z_row(row) for row in rows])
