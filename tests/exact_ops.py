"""Exact oracles for the tests: a general solver over Z, the oracle of the
cell-row functionals and of the cellular expansion, and the cofactor
determinant.  The package itself needs neither: it reads only columns of
block inverses (``exactmat.inverse_columns``) and takes determinants by
elimination."""

from fractions import Fraction

from brauercell.exactmat import Echelon, _cancel_z, _z_row


class LinearSolver:
    """Reusable exact solver: given independent basis vectors v_0..v_{n-1}
    (sparse dict rows over non-negative int columns), expand further
    vectors in terms of them.

    The rows are echelonized once over Z, each carrying its tag column.
    ``solve`` tags the query with ~n and reduces it: what is left is a
    primitive relation q * vec + sum_i x_i v_i = 0, so the coefficients are
    -x_i / q, all integers exactly when q = +-1.
    """

    def __init__(self, rows: list[dict]):
        self.n = len(rows)
        tagged = [_z_row({**row, ~i: 1}) for i, row in enumerate(rows)]
        self.echelon = Echelon(_cancel_z)
        for row in sorted(tagged, key=len):
            if self.echelon.add(row)[0] is None:
                raise ValueError("linearly dependent basis rows")

    def solve(self, vec: dict) -> list:
        """Coefficients x with sum_i x_i v_i = vec; raises if inconsistent.
        A coefficient is an int where it is integral and a Fraction
        otherwise."""
        row = self.echelon.reduce(_z_row({**vec, ~self.n: 1}))
        q = row.pop(~self.n)
        if any(c >= 0 for c in row):
            raise ValueError("vector outside the span of the basis")
        coeffs = [0] * self.n
        for c, x in row.items():
            coeffs[~c] = -x * q if q in (1, -1) else Fraction(-x, q)
        return coeffs


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
