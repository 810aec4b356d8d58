"""Matrix arithmetic on ``SparseMat`` for the tests: the package itself never
multiplies, scales or transposes tensor-space images."""

from brauercell.tensorrep import SparseMat


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
