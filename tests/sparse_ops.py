"""``SparseMat`` and its arithmetic, for the tests: the package keeps an
image as the plain dict {row: {column: value}} that ``SparseMat.rows``
holds, and never multiplies, scales or transposes tensor-space images."""


class SparseMat:
    """Sparse integer (or rational) matrix: rows[i] = {j: value}."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows=None):
        self.n = n
        self.rows: dict[int, dict[int, int]] = rows if rows is not None else {}

    def add(self, i: int, j: int, v) -> None:
        if v == 0:
            return
        row = self.rows.setdefault(i, {})
        w = row.get(j, 0) + v
        if w == 0:
            row.pop(j, None)
            if not row:
                self.rows.pop(i, None)
        else:
            row[j] = w

    @property
    def is_zero(self) -> bool:
        return not self.rows

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def to_vector(self) -> dict[int, int]:
        """Flatten to a sparse row vector of length n*n."""
        out = {}
        for i, row in self.rows.items():
            base = i * self.n
            for j, v in row.items():
                out[base + j] = v
        return out

    def __eq__(self, other):
        return isinstance(other, SparseMat) and self.n == other.n and self.rows == other.rows

    def __repr__(self):
        return f"SparseMat({self.n}, nnz={self.nnz()})"


def identity(n: int) -> SparseMat:
    return SparseMat(n, {i: {i: 1} for i in range(n)})


def matmul(a: SparseMat, b: SparseMat) -> SparseMat:
    out = SparseMat(a.n)
    for i, row in a.rows.items():
        acc: dict[int, int] = {}
        for k, v in row.items():
            for j, w in b.rows.get(k, {}).items():
                acc[j] = acc.get(j, 0) + v * w
        acc = {j: v for j, v in acc.items() if v != 0}
        if acc:
            out.rows[i] = acc
    return out


def scale(m: SparseMat, c) -> SparseMat:
    if c == 0:
        return SparseMat(m.n)
    return SparseMat(m.n, {i: {j: c * v for j, v in row.items()} for i, row in m.rows.items()})


def transpose(m: SparseMat) -> SparseMat:
    out = SparseMat(m.n)
    for i, row in m.rows.items():
        for j, v in row.items():
            out.rows.setdefault(j, {})[i] = v
    return out
