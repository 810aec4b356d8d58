"""Library jobs of the cellular workload: public ``brauercell.murphy`` calls
run as one fresh process, the way the test suite uses them.

    python3 perfbench/libjob.py transition_dets R FLAVOR
    python3 perfbench/libjob.py gram_jm R FLAVOR

Prints one JSON document on stdout: the transition determinant of every
corank block, or for every vertex the Gram matrix and the matrices of
L_1..L_r on its cell module.  Ring elements are written with
``Poly.to_json``; integers and fractions as decimal strings.
"""

from __future__ import annotations

import json
import sys


def _coeff(c):
    return c.to_json() if hasattr(c, "to_json") else str(c)


def transition_dets(r: int, flavor: str) -> dict:
    from brauercell.murphy import murphy_basis
    basis = murphy_basis(r, flavor, max_r=r)
    dets = basis.transition_dets()
    return {"job": "transition_dets", "r": r, "flavor": flavor,
            "dets": {str(l): _coeff(d) for l, d in sorted(dets.items())}}


def gram_jm(r: int, flavor: str) -> dict:
    from brauercell.murphy import gram_matrix, jm_action, murphy_basis
    basis = murphy_basis(r, flavor, max_r=r)
    cells = []
    for v in basis.vertices:
        gram = gram_matrix(v, basis)
        jm = [jm_action(i, v, basis) for i in range(1, r + 1)]
        cells.append({"vertex": v.to_json(),
                      "paths": len(basis.paths[v]),
                      "gram": [[_coeff(c) for c in row] for row in gram.rows],
                      "jm": [[[_coeff(c) for c in row] for row in m] for m in jm]})
    return {"job": "gram_jm", "r": r, "flavor": flavor, "cells": cells}


JOBS = {"transition_dets": transition_dets, "gram_jm": gram_jm}


def main(argv: list[str]) -> int:
    if len(argv) != 3 or argv[0] not in JOBS:
        sys.stderr.write(__doc__)
        return 1
    payload = JOBS[argv[0]](int(argv[1]), argv[2])
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
