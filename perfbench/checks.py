"""Correctness checks on job outputs.  Each checker reads the mathematical
content of one job's stdout and returns "" when it is right, or a one-line
description of what is wrong.  Bytes are compared only between repeats of
the same job, never against a stored dump.
"""

from __future__ import annotations

import json

# Image rank of B_r (or of the group algebra of S_r) on tensor space, by
# (flavor, N), for r = 1, 2, ...  The values are the ranks `dims` computes
# at the seed commit, where it finishes.  Where it does not finish, the
# entry is the value it must produce: 594 and 603 from the trace-form
# prototype in ROADMAP.md, and 105 (symplectic N=4 r=4) and 120 (symmetric
# N=5 r=5) because the action is faithful once N >= r.
IMAGE_RANK = {
    ("symplectic", 1): [1, 2, 5, 14, 42],
    ("symplectic", 2): [1, 3, 14, 84, 594],
    ("symplectic", 3): [1, 3, 15, 104],
    ("symplectic", 4): [1, 3, 15, 105],
    ("orthogonal", 2): [1, 3, 10, 35, 126],
    ("orthogonal", 3): [1, 3, 15, 91, 603],
    ("orthogonal", 5): [1, 3, 15, 105],
    ("orthogonal", 6): [1, 3, 15, 105],
    ("symmetric", 2): [1, 2, 5, 14, 42, 132],
    ("symmetric", 3): [1, 2, 6, 23, 103],
    ("symmetric", 4): [1, 2, 6, 24, 119],
    ("symmetric", 5): [1, 2, 6, 24, 120],
}
TENSOR_BASE = {"symplectic": lambda n: 2 * n, "orthogonal": lambda n: n,
               "symmetric": lambda n: n}
DEFAULT_MAX_TENSOR_DIM = 65536


def algebra_dimension(flavor: str, r: int) -> int:
    """r! for the symmetric group algebra, (2r-1)!! for B_r."""
    out = 1
    for k in (range(2, r + 1) if flavor == "symmetric" else range(1, 2 * r, 2)):
        out *= k
    return out


def _parse(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise _Wrong(f"stdout is not JSON: {exc}") from None


class _Wrong(Exception):
    pass


def check_certify(stdout: bytes, flavor: str, r: int, n: int) -> str:
    """`pass` is true, every check has expected == got, every seminormal
    record that ran passed, and each image rank expected is the reference."""
    doc = _parse(stdout)
    if doc.get("pass") is not True:
        return "certificate pass is not true"
    want = IMAGE_RANK.get((flavor, n), [])
    for name, section in doc["sections"].items():
        records = section if isinstance(section, list) else [section]
        for rec in records:
            if rec.get("skipped"):
                continue
            for chk in rec["checks"]:
                if chk.get("pass") is not True:
                    return f"{name}: check {chk['name']!r} did not pass"
                if "expected" in chk and chk["expected"] != chk["got"]:
                    return f"{name}: {chk['name']!r} expected {chk['expected']} got {chk['got']}"
                if chk["name"].startswith("image rank over") and r <= len(want) \
                        and chk["got"] != want[r - 1]:
                    return f"{name}: {chk['name']!r} is {chk['got']}, reference {want[r - 1]}"
    return ""


def check_dims(stdout: bytes, flavor: str, r: int, n: int,
               max_tensor_dim: int = DEFAULT_MAX_TENSOR_DIM) -> str:
    """Rows 1..r; image_rank is null exactly when dim V^r exceeds the cap,
    and otherwise equals the reference."""
    doc = _parse(stdout)
    rows = doc["rows"]
    if [row["r"] for row in rows] != list(range(1, r + 1)):
        return f"rows are not r = 1..{r}"
    want = IMAGE_RANK[(flavor, n)]
    for row in rows:
        k = row["r"]
        over_cap = TENSOR_BASE[flavor](n) ** k > max_tensor_dim
        if (row["image_rank"] is None) != over_cap:
            return f"r={k}: image_rank null is {row['image_rank'] is None}, cap says {over_cap}"
        if row["image_rank"] is not None and row["image_rank"] != want[k - 1]:
            return f"r={k}: image_rank {row['image_rank']}, reference {want[k - 1]}"
        if row["dim_algebra"] != algebra_dimension(flavor, k):
            return f"r={k}: dim_algebra {row['dim_algebra']}"
    return ""


def check_basis(stdout: bytes, flavor: str, r: int, n: int | None, split: bool) -> str:
    """Entry count is the algebra dimension; for a split basis the
    permissible entries number the reference image rank and the kernel
    entries make up the rest."""
    doc = _parse(stdout)
    entries = doc["entries"]
    dim = algebra_dimension(flavor, r)
    if len(entries) != dim:
        return f"{len(entries)} entries, algebra dimension {dim}"
    if split:
        kernel = sum(1 for e in entries if e["kernel"])
        permissible = sum(1 for e in entries if not e["kernel"])
        if kernel + permissible != dim:
            return f"kernel {kernel} + permissible {permissible} != {dim}"
        if permissible != IMAGE_RANK[(flavor, n)][r - 1]:
            return f"{permissible} permissible entries, reference {IMAGE_RANK[(flavor, n)][r - 1]}"
    return ""


def check_transition_dets(stdout: bytes) -> str:
    """Every corank block of the transition matrix has determinant +-1."""
    dets = _parse(stdout)["dets"]
    if not dets:
        return "no determinants"
    bad = {l: d for l, d in dets.items() if d not in ("1", "-1")}
    return f"determinants not +-1: {bad}" if bad else ""


def check_gram_jm(stdout: bytes, r: int) -> str:
    """Every Gram matrix is square over the cell's paths and symmetric;
    there are r JM matrices of that size and L_1 acts as zero."""
    cells = _parse(stdout)["cells"]
    if not cells:
        return "no cells"
    for cell in cells:
        n, gram, jm = cell["paths"], cell["gram"], cell["jm"]
        if len(gram) != n or any(len(row) != n for row in gram):
            return f"Gram at {cell['vertex']} is not {n}x{n}"
        if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(i)):
            return f"Gram at {cell['vertex']} is not symmetric"
        if len(jm) != r or any(len(m) != n or any(len(row) != n for row in m) for m in jm):
            return f"JM matrices at {cell['vertex']} have the wrong shape"
        if any(c != "0" for row in jm[0] for c in row):
            return f"L_1 is not zero at {cell['vertex']}"
    return ""


def check(kind: str, stdout: bytes, **params) -> str:
    """Dispatch on the job kind; a malformed output is a wrong answer."""
    checker = {"certify": check_certify, "dims": check_dims, "basis": check_basis,
               "transition_dets": check_transition_dets, "gram_jm": check_gram_jm}[kind]
    try:
        return checker(stdout, **params)
    except _Wrong as exc:
        return str(exc)
    except (KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
