"""Command-line front end: build bases, run certificates, dump reports.

Exit codes: 0 success, 1 usage error, 2 cap exceeded, 3 certificate failure.
Running out of memory also exits 2, with one "cap exceeded: out of memory"
line on stderr and nothing on stdout.  An internal arithmetic failure (an
exactness check inside the computation that does not hold) exits 3, with
one "internal error:" line on stderr and nothing on stdout.  An --out
whose directory does not exist is a usage error, found before any
computation; a write to --out that fails exits 1 with one "error:" line.
All numeric output is exact (integers, and integer strings for the
coefficients); JSON output is byte-identical across runs for the same
configuration, with wall-clock timing reported on stderr only.

No command forks on the flavor.  ``basis --split`` and ``certify`` build
one ``sft.SplitBasis`` for every flavor, under the --max-r cap, and
``certify`` prints the sections ``sft.certify_sections`` picks for it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .errors import CapExceeded
from .tensorrep import MAX_TENSOR_DIM

USAGE_ERROR = 1
CAP_ERROR = 2
CERT_FAILURE = 3
# --p must lie below this, so the trial-division primality test stays under
# 2^16 divisions
MAX_P = 2 ** 31


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="brauercell",
                description="Cellular bases of Brauer/symmetric group algebras "
                            "and kernel/image certificates on tensor space")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, tensor=True):
        sp.add_argument("--flavor", required=True,
                        choices=["symplectic", "orthogonal", "symmetric"])
        sp.add_argument("--r", type=int, required=True)
        sp.add_argument("--N", type=int, default=None)
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--max-r", type=int, default=5, dest="max_r")
        if tensor:
            sp.add_argument("--max-tensor-dim", type=int, default=MAX_TENSOR_DIM,
                            dest="max_tensor_dim")

    b = sub.add_parser("basis", help="dump a cellular basis")
    common(b, tensor=False)
    b.add_argument("--dual", action="store_true",
                   help="use the dual cellular structure")
    b.add_argument("--split", action="store_true",
                   help="dump the split (kernel/image adapted) basis")

    c = sub.add_parser("certify", help="run the kernel/image certificate")
    common(c)
    c.add_argument("--field", choices=["Q", "Fp"], default="Q")
    c.add_argument("--p", type=int, default=None)
    c.add_argument("--seminormal-cap", type=int, default=4, dest="seminormal_cap",
                   help="run seminormal specialization checks for r up to this")

    d = sub.add_parser("dims", help="permissible path counts and image ranks")
    common(d)
    d.add_argument("--format", choices=["json", "table"], default="json")
    return p


def _validate(args) -> None:
    if args.command in ("certify", "dims") or getattr(args, "split", False):
        if args.N is None:
            raise UsageError("--N is required for this command")
    if args.N is not None and args.N < 1:
        raise UsageError("--N must be positive")
    if args.r < 1:
        raise UsageError("--r must be positive")
    if args.max_r < 1 or getattr(args, "max_tensor_dim", 1) < 1:
        raise UsageError("caps must be positive")
    if getattr(args, "p", None) is not None:
        if args.field != "Fp":
            raise UsageError("--p is only used with --field Fp")
        if args.p >= MAX_P:
            raise UsageError(f"--p must be below 2^31 = {MAX_P}")
    if getattr(args, "field", "Q") == "Fp":
        if args.p is None or not _is_prime(args.p):
            raise UsageError("--field Fp requires a prime --p")
        if args.flavor == "orthogonal" and args.p == 2:
            raise UsageError("the orthogonal case excludes characteristic 2")
    if args.r > args.max_r:
        raise CapExceeded(f"r={args.r} exceeds the cap {args.max_r}")
    if args.command == "basis" and args.N is not None and not args.split:
        raise UsageError("--N is only used with --split")
    if getattr(args, "split", False) and args.dual:
        raise UsageError("--dual is not used with --split")
    if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise UsageError(_out_error(args.out, "No such file or directory"))


def _out_error(path: str, reason: str) -> str:
    return f"cannot write --out {path}: {reason}"


class UsageError(ValueError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _basis_flavor(flavor: str, dual: bool) -> str:
    if flavor == "symmetric":
        return "symmetric-dual" if dual else "symmetric"
    if flavor == "symplectic":
        return "brauer-dual-murphy" if dual else "brauer-murphy"
    return "brauer-murphy" if dual else "brauer-dual-murphy"


def cmd_basis(args) -> tuple[dict, int]:
    if args.split:
        from .sft import SplitBasis
        split = SplitBasis(args.r, args.N, args.flavor, max_r=args.max_r)
        payload = {"command": "basis", "flavor": args.flavor, "r": args.r,
                   "N": args.N, "split": True, "entries": split.to_json()}
        return payload, 0
    from .murphy import murphy_basis
    basis = murphy_basis(args.r, _basis_flavor(args.flavor, args.dual),
                         max_r=args.max_r)
    payload = {"command": "basis", "flavor": args.flavor, "r": args.r,
               "dual": args.dual, "split": False, "entries": basis.basis_json()}
    return payload, 0


def cmd_certify(args) -> tuple[dict, int]:
    from .sft import SplitBasis, certify_sections
    split = SplitBasis(args.r, args.N, args.flavor, max_r=args.max_r)
    fields = (args.p,) if args.field == "Fp" else ()
    sections, all_pass = certify_sections(split, args.max_tensor_dim, fields,
                                          args.seminormal_cap)
    payload = {"command": "certify", "flavor": args.flavor, "r": args.r,
               "N": args.N, "pass": all_pass, "sections": sections}
    return payload, 0 if all_pass else CERT_FAILURE


def cmd_dims(args) -> tuple[dict, int]:
    from .branching import algebra_dimension, expected_image_dimension
    from .matchings import all_diagrams, all_permutation_diagrams
    from .tensorrep import TensorRep, image_rank
    rows = []
    for r in range(1, args.r + 1):
        expected = expected_image_dimension(r, args.N, args.flavor)
        row = {"r": r, "dim_algebra": algebra_dimension(r, args.flavor),
               "sum_squared_permissible_paths": expected, "image_rank": None}
        try:
            rep = TensorRep(args.flavor, args.N, r, max_tensor_dim=args.max_tensor_dim)
        except CapExceeded:
            pass  # over the tensor cap: the image rank stays null
        else:
            diagrams = (all_permutation_diagrams(r) if args.flavor == "symmetric"
                        else all_diagrams(r))
            row["image_rank"] = image_rank(diagrams, rep)
        rows.append(row)
    payload = {"command": "dims", "flavor": args.flavor, "N": args.N,
               "rows": rows}
    return payload, 0


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [f"flavor={payload['flavor']} N={payload['N']}",
             f"{'r':>3} {'dim':>8} {'sum#perm^2':>12} {'image_rank':>12}"]
    for row in payload["rows"]:
        rank = "-" if row["image_rank"] is None else str(row["image_rank"])
        lines.append(f"{row['r']:>3} {row['dim_algebra']:>8} "
                     f"{row['sum_squared_permissible_paths']:>12} {rank:>12}")
    return "\n".join(lines) + "\n"


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it
    onto ``path``, so a reader never sees a partly written file."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    t0 = time.monotonic()
    try:
        _validate(args)
        if args.command == "basis":
            payload, code = cmd_basis(args)
        elif args.command == "certify":
            payload, code = cmd_certify(args)
        else:
            payload, code = cmd_dims(args)
        text = render(payload, getattr(args, "format", "json"))
        if args.out:
            try:
                _write_atomic(args.out, text)
            except OSError as exc:
                sys.stderr.write(f"error: {_out_error(args.out, exc.strerror or exc)}\n")
                return USAGE_ERROR
        else:
            sys.stdout.write(text)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except CapExceeded as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return CAP_ERROR
    except MemoryError:
        sys.stderr.write("cap exceeded: out of memory\n")
        return CAP_ERROR
    except ArithmeticError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return CERT_FAILURE
    sys.stderr.write(f"elapsed: {time.monotonic() - t0:.3f}s\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
