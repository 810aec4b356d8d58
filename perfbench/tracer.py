"""Traced job runner: records spans around the calls into each brauercell
module, from outside the package, inside the job's own process.

    python3 perfbench/tracer.py OUT.json cli <brauercell argv...>
    python3 perfbench/tracer.py OUT.json lib <libjob argv...>

Every traced name below is wrapped once, in the module that defines it and
in every brauercell module that bound it through ``from .x import y``;
methods are wrapped on their class, so operators and bound calls go
through the wrapper too.  Spans are kept in memory and written to OUT.json
when the job ends, together with per-name call counts and self times.

A span's self time is its duration minus the durations of its direct child
spans.  Names in HOT, the ones called per product, per query or per
diagram, get no span record of their own: their count and time are added
to the nearest enclosing non-hot span, which keeps the recording cost
bounded.  Self times and call counts are exact for every name.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# layer metric name -> (module, attribute path); an entry "Class.method"
# wraps the method on the class
TARGETS = {
    "diagrams.diagram_mult": ("diagrams", ["diagram_mult"]),
    "diagrams.element_mul": ("diagrams", ["AlgebraElement.__mul__"]),
    "rings.arith": ("rings", [f"{cls}.{op}" for cls in ("Poly", "RatFunc")
                              for op in ("__add__", "__radd__", "__sub__", "__rsub__",
                                         "__mul__", "__rmul__", "__truediv__",
                                         "__rtruediv__")]),
    "branching.enumerate_paths": ("branching", ["enumerate_paths"]),
    "murphy.basis_build": ("murphy", ["MurphyBasis.__init__"]),
    "murphy.expand": ("murphy", ["MurphyBasis.expand"]),
    "murphy.gram_matrix": ("murphy", ["MurphyBasis.gram_matrix"]),
    "murphy.transition_dets": ("murphy", ["MurphyBasis.transition_dets"]),
    "murphy.jm_action": ("murphy", ["MurphyBasis.jm_action"]),
    "murphy.basis_json": ("murphy", ["MurphyBasis.basis_json"]),
    "exactmat.linear_solver_build": ("exactmat", ["LinearSolver.__init__"]),
    "exactmat.linear_solve": ("exactmat", ["LinearSolver.solve"]),
    "exactmat.bareiss": ("exactmat", ["ExactMatrix.rank", "ExactMatrix.det"]),
    "exactmat.sparse_rank_q": ("exactmat", ["sparse_rank_q"]),
    "exactmat.gram_rank_q": ("exactmat", ["gram_rank_q"]),
    "exactmat.rank_modp": ("exactmat", ["rank_modp"]),
    "tensorrep.rep_diagram": ("tensorrep", ["TensorRep.rep_diagram"]),
    "tensorrep.rep_element": ("tensorrep", ["TensorRep.rep_element"]),
    "tensorrep.image_rank": ("tensorrep", ["image_rank"]),
    "sft.split_basis": ("sft", ["SplitBasis.__init__"]),
    "sft.certify_sft": ("sft", ["certify_sft"]),
    "sft.quotient_cell_modules": ("sft", ["quotient_cell_modules"]),
    "sft.ideal_span_rank": ("sft", ["ideal_span_rank"]),
    "sft.harterich_check": ("sft", ["harterich_check"]),
    "seminormal.gz_idempotents": ("seminormal", ["gz_idempotents"]),
    "seminormal.specialize_quotient": ("seminormal", ["specialize_quotient"]),
    "cli.render": ("cli", ["render"]),
    "cli.main": ("cli", ["main"]),
}
HOT = frozenset({"diagrams.diagram_mult", "diagrams.element_mul", "rings.arith",
                 "murphy.expand", "exactmat.linear_solve", "tensorrep.rep_diagram",
                 "tensorrep.rep_element"})
# rank kernels whose first argument is a list of sparse dict rows
RANK_KERNELS = ("exactmat.sparse_rank_q", "exactmat.gram_rank_q", "exactmat.rank_modp")


class Tracer:
    """Span stack with per-name aggregates.  ``clock`` is injectable so the
    self-time arithmetic can be checked on a synthetic span tree."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []      # [name, start, child_s, span_index]
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.spans: list[list] = []      # [name, start, end, parent, {hot: [calls, s]}]
        self.counters: dict[str, int] = {}

    def enter(self, name: str) -> None:
        parent = self.stack[-1][3] if self.stack else -1
        if name in HOT:
            index = parent
        else:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, {}])
        self.stack.append([name, self.clock(), 0.0, index])

    def exit(self) -> None:
        end = self.clock()
        name, start, child_s, index = self.stack.pop()
        duration = end - start
        stat = self.stats.setdefault(name, [0, 0.0])
        stat[0] += 1
        stat[1] += duration - child_s
        if self.stack:
            self.stack[-1][2] += duration
        if name in HOT:
            if index >= 0:
                hot = self.spans[index][4].setdefault(name, [0, 0.0])
                hot[0] += 1
                hot[1] += duration
        else:
            self.spans[index][1] = start
            self.spans[index][2] = end

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def to_json(self) -> dict:
        return {"stats": self.stats, "counters": self.counters, "spans": self.spans}


def _wrap(tracer: Tracer, name: str, fn):
    enter, exit_ = tracer.enter, tracer.exit
    if name in RANK_KERNELS:
        @functools.wraps(fn)
        def traced(rows, *args, **kwargs):
            tracer.count("exactmat.rank_rows", len(rows))
            tracer.count("exactmat.rank_nnz", sum(len(r) for r in rows))
            enter(name)
            try:
                return fn(rows, *args, **kwargs)
            finally:
                exit_()
    elif name == "tensorrep.image_rank":
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = tracer.counters.get("exactmat.rank_nnz", 0)
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
                tracer.count("tensorrep.image_nnz",
                             tracer.counters.get("exactmat.rank_nnz", 0) - before)
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every target; rebind module-level functions wherever a
    brauercell module holds them."""
    modules = {m: importlib.import_module(f"brauercell.{m}")
               for m in ("rings", "exactmat", "diagrams", "branching", "murphy",
                         "tensorrep", "sft", "seminormal", "cli")}
    for name, (mod, attrs) in TARGETS.items():
        for attr in attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(modules[mod], cls_name)
                if meth in vars(cls):
                    setattr(cls, meth, _wrap(tracer, name, vars(cls)[meth]))
                continue
            original = getattr(modules[mod], attr)
            wrapped = _wrap(tracer, name, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] not in ("cli", "lib"):
        sys.stderr.write(__doc__)
        return 1
    out_path, kind, job_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    install(tracer)
    try:
        if kind == "cli":
            from brauercell import cli
            return cli.main(job_argv)
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import libjob
        return libjob.main(job_argv)
    finally:
        # also on an exception, so a job that dies still reports its spans
        with open(out_path, "w") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
