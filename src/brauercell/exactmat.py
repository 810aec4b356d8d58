"""Exact linear algebra on one sparse row echelon.

Every rank, determinant, kernel and inverse column of the package is
computed by ``Echelon``.  Rows are dicts column -> value with no stored
zeros; each pivot row is kept under its pivot, its least column, and a row
is reduced against the pivot rows in increasing pivot order.  The echelon is
parameterised only by how one row is cancelled against a pivot row, in one
of two domains:

* Z (``_cancel_z``): fraction-free; the row is scaled by a positive
  factor only, so a row cancelled against a pivot of -1, like one against
  +1, is updated in place, not copied.  ``Echelon.reduce`` divides out the
  content at its end, so every row it returns or keeps is primitive;
* F_p (``_cancel_mod``).

Every sparse rank, over Q or F_p, is ``rank``; it first peels the
singleton rows (``_peel``, the first phase of structured Gaussian
elimination, LaMacchia-Odlyzko).

Each public entry point fixes its own domain, ``rank`` by its ``p``.
Every entry point takes int values only: a rational or a Poly value
raises TypeError, so a matrix over Q or Z[delta] is never eliminated.
Columns are non-negative ints.  The tag column ``~i`` (that is, -1 - i) of
a row holds the multiple of input row i that the row contains, so the
same echelon gives kernels, determinants and, with tags on the rows whose
inverse columns are wanted and a back substitution, the columns of an
inverse (``inverse_columns``).  There is no general solver.

No floating point is used anywhere: every value eliminated is an int or
a residue mod p.
"""

from __future__ import annotations

from array import array
from bisect import insort
from collections import defaultdict, deque
from heapq import heappop, heappush
from itertools import chain, count
from math import gcd
from operator import index

from .matchings import perm_sign


def _cancel_z(row: dict, prow: dict, c: int) -> dict:
    """a*row - b*prow with a*row[c] = b*prow[c] and a > 0; in place when
    a = 1, as against a pivot of +-1, else divided by its content."""
    g = gcd(row[c], prow[c])
    if prow[c] < 0:
        g = -g
    a, b = prow[c] // g, row[c] // g
    if a != 1:
        row = {k: a * x for k, x in row.items()}
    for k, x in prow.items():
        w = row.get(k, 0) - b * x
        if w:
            row[k] = w
        else:
            del row[k]
    if a != 1:
        row = _primitive(row)
    return row


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """An integer row divided by its content, the gcd of its values."""
    g = gcd(*row.values())
    return {k: x // g for k, x in row.items()} if g > 1 else row


def _cancel_mod(p: int):
    """Cancellation over F_p, on rows of residues in [0, p); in place."""
    def cancel(row: dict, prow: dict, c: int) -> dict:
        f = row[c] * pow(prow[c], -1, p) % p
        for k, x in prow.items():
            w = (row.get(k, 0) - f * x) % p
            if w:
                row[k] = w
            else:
                del row[k]
        return row
    return cancel


class Echelon:
    """Sparse row echelon form over the domain of ``cancel``.  A row given
    to ``reduce`` or ``add`` may be changed in place."""

    def __init__(self, cancel):
        self.cancel = cancel
        self.rows: dict[int, dict] = {}   # pivot column -> pivot row
        self.cols: list[int] = []         # pivot columns, increasing

    def reduce(self, row: dict) -> dict:
        """``row`` with every pivot column cancelled.  A pivot row has no
        column below its pivot, so cancelling at c only adds columns above c
        and one pass in increasing pivot order suffices.  Over Z the result
        is divided by its content, so it is primitive."""
        for c in self.cols:
            if c in row:
                row = self.cancel(row, self.rows[c], c)
        return _primitive(row) if self.cancel is _cancel_z else row

    def add(self, row: dict) -> tuple[int | None, dict]:
        """Reduce ``row`` and keep it as a pivot row unless only tag columns
        are left.  Returns its pivot (None if it was dependent) and the
        reduced row."""
        row = self.reduce(row)
        piv = min((c for c in row if c >= 0), default=None)
        if piv is not None:
            # a compact copy: a row reduced in place keeps the slack of its
            # growth, which the pivot rows would hold for the whole echelon
            self.rows[piv] = row = dict(row)
            insort(self.cols, piv)
        return piv, row


def _z_row(row: dict) -> dict[int, int]:
    """A copy of a row of ints, zeros dropped.  A value that is not an int,
    such as a rational or a Poly, raises TypeError."""
    return {c: index(v) for c, v in row.items() if v}


def _peel(rows: list[dict]) -> int:
    """Peel the singleton rows of ``rows`` in place; returns how many.  A
    row with one nonzero, at column g, is a pivot, and column g is struck
    from every row, which may leave new singletons.  The peeled rows leave
    the list; a row that empties out stays.  A strike subtracts a multiple
    of the singleton row, whose value is a unit over Q and F_p, so
    rank(rows) = peeled + rank(what is left) over Q (integer rows too) and
    every F_p, in any order.  A column -> rows index of machine-int arrays,
    built only once a singleton exists, and a queue make it O(nnz)."""
    queue = deque(i for i, row in enumerate(rows) if len(row) == 1)
    if not queue:
        return 0
    holders = defaultdict(lambda: array("i"))   # column -> the rows holding it
    for i, row in enumerate(rows):
        for c in row:
            holders[c].append(i)
    struck = 0
    while queue:
        i = queue.popleft()
        if len(rows[i]) != 1:
            continue   # emptied since it was queued
        (g,) = rows[i]
        for j in holders.pop(g):
            row = rows[j]
            del row[g]
            if len(row) == 1:
                queue.append(j)
        struck += 1
        rows[i] = None
    rows[:] = [row for row in rows if row is not None]
    return struck


def rank(rows: list[dict[int, int]], p: int | None = None) -> int:
    """Rank of sparse integer rows, dict column -> nonzero int, over Q, or
    over F_p when the prime ``p`` is given.  Over Q it consumes ``rows``:
    it works on them in place and leaves in the list only rows it never
    read.  Over F_p it only reads them and eliminates a copy reduced mod p,
    so the same rows can be ranked mod p first and over Q after.  A value
    that is not an int raises TypeError, peeled or not.

    The singletons are peeled (``_peel``), then a row is popped off the
    list, shortest first (of equal lengths, the last first) to limit
    fill-in, and reduced in place.  A rank never exceeds the number of
    distinct columns, so the elimination stops, leaving the rest of the
    list, once the pivots number as many."""
    if not set(map(type, chain.from_iterable(map(dict.values, rows)))) <= {int}:
        raise TypeError("rank takes rows of ints")
    cancel = _cancel_z
    if p is not None:
        rows = [{c: v % p for c, v in row.items() if v % p} for row in rows]
        cancel = _cancel_mod(p)
    struck = _peel(rows)
    rows.sort(key=len, reverse=True)
    width = len(set().union(*rows))
    echelon = Echelon(cancel)
    while rows and len(echelon.cols) < width:
        echelon.add(rows.pop())
    return struck + len(echelon.cols)


class ExactMatrix:
    """Dense matrix of exact values.  It may hold Poly entries (a Gram matrix
    over Z[delta]); ``rank``, ``kernel`` and ``det`` need int entries."""

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, ExactMatrix) and self.rows == other.rows

    def __repr__(self):
        return f"ExactMatrix({self.rows!r})"

    def _columns(self) -> list[dict]:
        return [{i: row[j] for i, row in enumerate(self.rows)}
                for j in range(self.ncols)]

    def rank(self) -> int:
        """Rank over Q."""
        return rank([{j: x for j, x in enumerate(row) if x} for row in self.rows])

    def det(self) -> int:
        """Exact determinant of an integer matrix, by elimination over Z; a
        rational or Poly entry raises TypeError.  Row i carries the tag
        ``~i: 1``, and the rows are added shortest first.  Pivot row i is
        c_i (row i) plus a combination of rows added before it, where c_i >
        0 is its own tag, as ``_cancel_z`` scales a row by a positive factor
        only and divides out a positive content.  So the tag matrix is
        triangular in the order of addition, of determinant prod c_i, and
        det = sign(row -> pivot column) * prod pivots / prod c_i: one exact
        integer division, which raises ArithmeticError on a remainder."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        rows = [{**{j: index(x) for j, x in enumerate(row) if x}, ~i: 1}
                for i, row in enumerate(self.rows)]
        echelon = Echelon(_cancel_z)
        pivots = [0] * self.nrows
        num = den = 1
        for i in sorted(range(self.nrows), key=lambda i: len(rows[i])):
            piv, row = echelon.add(rows[i])
            if piv is None:
                return 0
            pivots[i] = piv
            num *= row[piv]
            den *= row[~i]
        det, rem = divmod(perm_sign([c + 1 for c in pivots]) * num, den)
        if rem:
            raise ArithmeticError("determinant is not an integer")
        return det

    def kernel(self) -> list[list]:
        """A basis of {v : self @ v = 0}, read off the tag columns of the
        columns that the echelon of the columns finds dependent."""
        echelon = Echelon(_cancel_z)
        out = []
        for k, col in enumerate(self._columns()):
            piv, red = echelon.add(_z_row({**col, ~k: 1}))
            if piv is None:
                out.append([red.get(~j, 0) for j in range(self.ncols)])
        return out


def spin_rank_q(rows: list[dict], maps: list[list[tuple[int, int]]]) -> int:
    """Dimension over Q of the smallest subspace that contains ``rows`` and
    is closed under every map in ``maps`` (spinning, as in the Meat-Axe).
    A map sends column i to ``f`` times column j, where ``map[i] = (j, f)``
    and f is an int.

    Every queued vector is added to one echelon over Z, shortest first (of
    equal lengths, the last first), and only a vector that becomes a new
    pivot row has its images queued.  The pivot rows are never changed
    later, so at the end they are a basis of the span W of everything
    queued, and each of them has its images in W: W is closed under the
    maps.  It contains ``rows`` and lies in every closed subspace that
    contains them, so it is the smallest one."""
    echelon = Echelon(_cancel_z)
    queue, order = [], count(0, -1)

    def push(row):
        if row:
            heappush(queue, (len(row), next(order), row))

    for row in rows:
        push(_z_row(row))
    while queue:
        piv, row = echelon.add(heappop(queue)[2])
        if piv is None:
            continue
        for table in maps:
            image = {}
            for i, x in row.items():
                j, f = table[i]
                image[j] = image.get(j, 0) + f * x
            push({j: x for j, x in image.items() if x})
    return len(echelon.cols)


def inverse_columns(rows: list[dict[int, int]], wanted: list[int]) -> list[dict[int, int]]:
    """The columns ``wanted`` of the inverse of the square integer matrix
    whose rows are ``rows``: for each k in ``wanted``, phi_k as a dict column
    -> int with rows[j] . phi_k = 1 if j = k, else 0.

    Only the wanted rows carry a tag column.  The rows are echelonized once
    over Z, shortest first.  A pivot row p is a combination of input rows
    whose tagged coefficients it holds, and every untagged row has
    right-hand side 0, so p . phi_k = p[tag of k].  The phi_k are read off
    together by back substitution, from the largest pivot down.  Raises
    ArithmeticError on a dependent row, on fewer rows than columns, and on
    a quotient that is not an integer."""
    tag = {k: w for w, k in enumerate(wanted)}
    echelon = Echelon(_cancel_z)
    for j in sorted(range(len(rows)), key=lambda j: len(rows[j])):
        row = dict(rows[j])
        if j in tag:
            row[~tag[j]] = 1
        if echelon.add(row)[0] is None:
            raise ArithmeticError(f"row {j} is dependent on the others")
    if len(echelon.cols) < len({c for row in rows for c in row}):
        raise ArithmeticError("fewer rows than columns")
    x: dict[int, dict[int, int]] = {}   # pivot column c -> {w: phi_w[c]}
    for c in reversed(echelon.cols):
        prow = echelon.rows[c]
        acc = {~d: a for d, a in prow.items() if d < 0}
        for d, a in prow.items():
            if d > c:
                for w, y in x[d].items():
                    acc[w] = acc.get(w, 0) - a * y
        x[c] = xc = {}
        for w, y in acc.items():
            q, rem = divmod(y, prow[c])
            if rem:
                raise ArithmeticError(
                    f"inverse column of row {wanted[w]} is not integral")
            if q:
                xc[w] = q
    out: list[dict[int, int]] = [{} for _ in wanted]
    for c in echelon.cols:
        for w, y in x[c].items():
            out[w][c] = y
    return out
