"""The brauercell benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a brauercell source checkout (the directory that
holds ``src/brauercell``); it exits 2 without a result anywhere else.

Every job is a fresh single process, started only after the previous one
has exited (a closed loop with one client), under the resource guard of
``guard.py``.  The seed fixes the job order and the prime of every F_p job;
the program receives only its argv.

``--trace 0`` runs the job list once and keeps cycling through it in the
same order while the next job, at its first-pass time, still ends within
``--seconds``.  Between the first jobs it times a fresh interpreter
importing the CLI's modules; ``setup_s`` is the median of those samples.
Each job's wall and CPU time is the median over its repeats; ``wall_ref_s``
and ``cpu_ref_s`` sum those over the job list, and ``peak_rss_mb`` is the
largest peak RSS of any job.  The times and ``setup_s`` are scaled to the
reference memory latency measured by ``calibrate.py`` during the run.  A
failed job counts at the time cap and the memory limit.  ``--trace 1``
runs the job list once, each job untraced and then under ``tracer.py``, and
reports the per-layer metrics of the traced jobs plus ``trace.overhead_s``,
the traced minus the untraced wall time.

Every job's output is checked (``checks.py``), and repeats of a job must
print identical bytes.  Human-readable lines come first on stdout; the last
line is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calibrate import Calibrator  # noqa: E402
from checks import check  # noqa: E402
from guard import run_guarded  # noqa: E402
from tracer import TARGETS  # noqa: E402

PRIMES = (3, 5, 7, 11, 13)
MEM_LIMIT = 2 << 30          # RLIMIT_AS of every job, bytes
RUN_DEADLINE_S = 125.0       # no job starts after this; with the cap, a run ends < 180 s
SETUP_REPEATS = 9
SETUP_MODULES = ("brauercell.cli", "brauercell.sft", "brauercell.seminormal",
                 "brauercell.tensorrep")


@dataclass
class Job:
    kind: str                 # checker name
    argv: list[str]           # brauercell CLI argv, or libjob argv
    params: dict = field(default_factory=dict)
    lib: bool = False

    @property
    def label(self) -> str:
        return ("lib " if self.lib else "") + " ".join(self.argv)


def _certify(flavor, r, n, prime=None):
    argv = ["certify", "--flavor", flavor, "--r", str(r), "--N", str(n)]
    if r > 5:
        argv += ["--max-r", str(r)]
    if prime is not None:
        argv += ["--field", "Fp", "--p", str(prime)]
    return Job("certify", argv, {"flavor": flavor, "r": r, "n": n})


def _dims(flavor, n, r):
    return Job("dims", ["dims", "--flavor", flavor, "--N", str(n), "--r", str(r)],
               {"flavor": flavor, "r": r, "n": n})


def _basis(flavor, r, n=None, dual=False, split=False):
    argv = ["basis", "--flavor", flavor, "--r", str(r)]
    argv += ["--N", str(n)] if n is not None else []
    argv += ["--dual"] if dual else []
    argv += ["--split"] if split else []
    argv += ["--max-r", str(r)] if r > 5 else []
    return Job("basis", argv, {"flavor": flavor, "r": r, "n": n, "split": split})


def _lib(name, r, flavor):
    params = {"r": r} if name == "gram_jm" else {}
    return Job(name, [name, str(r), flavor], params, lib=True)


def certify_jobs(rng):
    jobs = [_certify("symplectic", 4, 1), _certify("symplectic", 4, 2),
            _certify("symplectic", 5, 1), _certify("orthogonal", 4, 2),
            _certify("orthogonal", 4, 3), _certify("orthogonal", 5, 2),
            _certify("symmetric", 5, 2), _certify("symmetric", 5, 3),
            _certify("symmetric", 6, 2)]
    for flavor, r, n in (("symplectic", 5, 1), ("orthogonal", 4, 2), ("symmetric", 5, 3)):
        jobs.append(_certify(flavor, r, n, prime=rng.choice(PRIMES)))
    return jobs


def dims_jobs(rng):
    return [_dims("symplectic", 1, 5), _dims("symplectic", 2, 4), _dims("symplectic", 3, 4),
            _dims("orthogonal", 2, 5), _dims("orthogonal", 5, 4), _dims("orthogonal", 6, 4),
            _dims("symmetric", 3, 5), _dims("symmetric", 4, 5)]


def cellular_jobs(rng):
    return [_basis("symplectic", 5), _basis("symplectic", 5, dual=True),
            _basis("symplectic", 5, n=1, split=True), _basis("orthogonal", 5, n=2, split=True),
            _basis("symmetric", 5, n=2, split=True), _basis("symmetric", 6),
            _lib("transition_dets", 5, "brauer-murphy"), _lib("gram_jm", 4, "brauer-murphy"),
            _lib("gram_jm", 5, "symmetric")]


def frontier_jobs(rng):
    return [_dims("symplectic", 2, 5), _dims("symplectic", 4, 4), _dims("symmetric", 5, 5),
            _dims("orthogonal", 3, 5), _certify("symplectic", 5, 2),
            _certify("orthogonal", 5, 3), _certify("symplectic", 6, 1)]


# Layers whose traced call count must be nonzero on a workload, because the
# untraced call graph of its jobs reaches them.  A zero there is a runner bug.
_CORE = {"diagrams.diagram_mult", "diagrams.element_mul", "rings.arith",
         "branching.enumerate_paths", "murphy.basis_build", "murphy.expand",
         "exactmat.linear_solver_build", "exactmat.linear_solve", "exactmat.bareiss",
         "cli.render", "cli.main"}
REACHED = {
    "certify": _CORE | {"murphy.gram_matrix", "exactmat.sparse_rank_q",
                        "exactmat.gram_rank_q", "exactmat.rank_modp",
                        "tensorrep.rep_diagram", "tensorrep.rep_element",
                        "tensorrep.image_rank", "sft.split_basis", "sft.certify_sft",
                        "sft.quotient_cell_modules", "sft.ideal_span_rank",
                        "sft.harterich_check", "seminormal.gz_idempotents",
                        "seminormal.specialize_quotient"},
    "dims": {"branching.enumerate_paths", "exactmat.sparse_rank_q",
             "tensorrep.rep_diagram", "tensorrep.rep_element", "tensorrep.image_rank",
             "cli.render", "cli.main"},
    "cellular": _CORE | {"murphy.gram_matrix", "murphy.transition_dets",
                         "murphy.jm_action", "murphy.basis_json", "sft.split_basis"},
    "frontier": set(),
}

# name -> (job list builder, per-job time cap in seconds).  Why each
# workload exists is recorded in BENCHMARK.json.  cellular and frontier are
# run by hand and not listed there: frontier because every one of its jobs
# fails at the seed commit, cellular to leave the listed workloads time for
# runs long enough to be steady on a shared host (README.md, "Noise").
WORKLOADS = {
    "certify": (certify_jobs, 45.0),
    "dims": (dims_jobs, 45.0),
    "cellular": (cellular_jobs, 45.0),
    "frontier": (frontier_jobs, 20.0),
}


def _job_argv(job: Job, trace_path: str | None) -> list[str]:
    if trace_path is not None:
        return [sys.executable, os.path.join(HERE, "tracer.py"), trace_path,
                "lib" if job.lib else "cli", *job.argv]
    if job.lib:
        return [sys.executable, os.path.join(HERE, "libjob.py"), *job.argv]
    return [sys.executable, "-m", "brauercell.cli", *job.argv]


@dataclass
class Outcome:
    job: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout_bytes: int
    reason: str          # "" on success
    wrong: bool          # a wrong answer or differing repeat (not a crash)


class Runner:
    """Runs guarded jobs and keeps what every job printed the first time."""

    def __init__(self, root: str, jobs: list[Job], cap_s: float, workdir: str):
        self.jobs, self.cap_s, self.workdir, self.root = jobs, cap_s, workdir, root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.first_digest: dict[int, str] = {}
        self.t_begin = time.perf_counter()

    def past_deadline(self) -> bool:
        return time.perf_counter() - self.t_begin > RUN_DEADLINE_S

    def run(self, i: int, trace_path: str | None = None) -> Outcome:
        job = self.jobs[i]
        if self.past_deadline():
            print(f"job: {job.label}  FAILED: not started, run deadline", flush=True)
            return Outcome(i, self.cap_s, self.cap_s, MEM_LIMIT / 2**20, 0,
                           "not started: run deadline", False)
        res = run_guarded(_job_argv(job, trace_path), timeout_s=self.cap_s,
                          mem_bytes=MEM_LIMIT, workdir=self.workdir, env=self.env,
                          cwd=self.root)
        reason, wrong = res.reason, False
        if not reason:
            reason = check(job.kind, res.stdout, **job.params)
            digest = hashlib.sha256(res.stdout).hexdigest()
            if not reason and self.first_digest.setdefault(i, digest) != digest:
                reason = "stdout differs between repeats"
            wrong = bool(reason)
        if reason:
            out = Outcome(i, self.cap_s, self.cap_s, MEM_LIMIT / 2**20,
                          len(res.stdout), reason, wrong)
        else:
            out = Outcome(i, res.wall_s, res.cpu_s, res.maxrss_mb, len(res.stdout), "", False)
        status = "ok" if not reason else f"FAILED: {reason}"
        tag = " traced" if trace_path else ""
        print(f"job{tag}: {job.label}  wall {res.wall_s:.3f} s  cpu {res.cpu_s:.3f} s  "
              f"rss {res.maxrss_mb:.1f} MB  {status}", flush=True)
        return out


def setup_sample(runner: Runner) -> float:
    """Wall time of a fresh interpreter importing the CLI's modules."""
    res = run_guarded([sys.executable, "-c", "import " + ", ".join(SETUP_MODULES)],
                      timeout_s=runner.cap_s, mem_bytes=MEM_LIMIT, workdir=runner.workdir,
                      env=runner.env, cwd=runner.root)
    if res.reason:
        raise SystemExit(f"import of {', '.join(SETUP_MODULES)} failed: "
                         f"{res.reason}\n{res.stderr.decode(errors='replace')}")
    return res.wall_s


def run_untraced(runner: Runner, seconds: float, cal: Calibrator):
    """One full pass, then keep cycling in the same order while the next job,
    at its first-pass time, still ends within `seconds`.

    Setup is sampled before each of the first SETUP_REPEATS jobs, after one
    untimed warm-up, so its median spans the run instead of one moment of
    it.  `cal` is sampled after the warm-up and after every job.  Returns
    the outcomes and the setup median."""
    setup_sample(runner)
    cal.sample()
    setup, outcomes = [], []
    first_wall: dict[int, float] = {}
    t0 = time.perf_counter()
    i = 0
    while True:
        j = i % len(runner.jobs)
        if i >= len(runner.jobs) and (
                runner.past_deadline()
                or time.perf_counter() - t0 + first_wall[j] > seconds):
            break
        if len(setup) < SETUP_REPEATS and not runner.past_deadline():
            setup.append(setup_sample(runner))
        outcome = runner.run(j)
        cal.sample()
        first_wall.setdefault(j, outcome.wall_s)
        outcomes.append(outcome)
        i += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_sample(runner))
    return outcomes, statistics.median(setup)


def end_to_end(outcomes: list[Outcome], setup_s: float, factor: float) -> dict:
    """The listed metrics.  Times are scaled by the run's calibration
    `factor` (calibrate.py); the raw sums are printed beside them."""
    per_job: dict[int, list[Outcome]] = {}
    for o in outcomes:
        per_job.setdefault(o.job, []).append(o)
    wall = sum(statistics.median(o.wall_s for o in runs) for runs in per_job.values())
    cpu = sum(statistics.median(o.cpu_s for o in runs) for runs in per_job.values())
    rss = max(o.rss_mb for o in outcomes)
    print(f"raw: wall_s = {wall} s, cpu_s = {cpu} s, setup_s = {setup_s} s; "
          f"calibration factor {factor}", flush=True)
    return {"wall_ref_s": {"value": wall * factor, "unit": "s"},
            "cpu_ref_s": {"value": cpu * factor, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "setup_s": {"value": setup_s * factor, "unit": "s"}}


LAYER_METRICS = ([f"{name}.{kind}" for name in TARGETS for kind in ("calls", "self_s")]
                 + ["exactmat.rank_rows", "exactmat.rank_nnz", "tensorrep.image_nnz",
                    "cli.stdout_bytes", "trace.overhead_s"])


def run_traced(runner: Runner, workload: str):
    """Each job untraced, then traced; returns outcomes and layer metrics."""
    totals = {name: 0 for name in LAYER_METRICS}
    outcomes = []
    trace_path = os.path.join(runner.workdir, "spans.json")
    untraced_wall = traced_wall = 0.0
    for i, job in enumerate(runner.jobs):
        plain = runner.run(i)
        if os.path.exists(trace_path):
            os.remove(trace_path)
        traced = runner.run(i, trace_path)
        outcomes += [plain, traced]
        untraced_wall += plain.wall_s
        traced_wall += traced.wall_s
        if not job.lib:
            totals["cli.stdout_bytes"] += traced.stdout_bytes
        if not os.path.exists(trace_path):
            continue
        with open(trace_path) as fh:
            spans = json.load(fh)
        os.remove(trace_path)
        for name, (calls, self_s) in spans["stats"].items():
            totals[f"{name}.calls"] += calls
            totals[f"{name}.self_s"] += self_s
        for name, value in spans["counters"].items():
            totals[name] += value
    totals["trace.overhead_s"] = traced_wall - untraced_wall
    missing = sorted(n for n in REACHED[workload] if totals[f"{n}.calls"] == 0)
    if missing and not any(o.reason for o in outcomes):
        raise SystemExit(f"runner bug: no traced calls of {', '.join(missing)} "
                         f"although the {workload} jobs reach them")
    share = totals["cli.main.self_s"] / traced_wall if traced_wall else 0.0
    print(f"trace: traced wall {traced_wall:.3f} s, untraced {untraced_wall:.3f} s, "
          f"cli.main self {100 * share:.2f}% of traced wall", flush=True)
    return outcomes, totals


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name == "cli.stdout_bytes" else "count"


def metadata(root: str, seed: int, workload: str) -> dict:
    sha = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "brauercell")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    import numpy
    cores = len(os.sched_getaffinity(0))
    blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {"workload": workload, "seed": seed, "git_sha": sha,
            "src_sha256": digest.hexdigest(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "nproc": cores,
            "blas_threads": int(blas) if blas else cores,
            "mem_limit_mb": MEM_LIMIT >> 20, "job_cap_s": WORKLOADS[workload][1]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "brauercell", "cli.py")):
        sys.stderr.write("error: run from the root of a brauercell checkout "
                         "(src/brauercell/cli.py not found)\n")
        return 2
    # turn a polite kill into an exception, so the running job is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build, cap_s = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    jobs = build(rng)
    rng.shuffle(jobs)
    workdir = os.path.join(HERE, "_work")
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(root, jobs, cap_s, workdir)
    print("meta: " + json.dumps(metadata(root, args.seed, args.workload), sort_keys=True),
          flush=True)

    if args.trace:
        outcomes, totals = run_traced(runner, args.workload)
        metrics = {name: {"value": totals[name], "unit": _layer_unit(name)}
                   for name in LAYER_METRICS}
    else:
        with Calibrator() as cal:
            outcomes, setup_s = run_untraced(runner, args.seconds, cal)
        metrics = end_to_end(outcomes, setup_s, cal.factor())

    failed = [o for o in outcomes if o.reason]
    for name, m in metrics.items():
        print(f"metric: {name} = {m['value']} {m['unit']}")
    print(f"metric: fail_frac = {len(failed) / len(outcomes)} fraction "
          f"({len(failed)} of {len(outcomes)} jobs failed)")
    for o in failed:
        print(f"failure: {jobs[o.job].label}: {o.reason}")
    result = {"correct": not any(o.wrong for o in outcomes), "attempted": len(outcomes),
              "failed": len(failed), "metrics": metrics}
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
