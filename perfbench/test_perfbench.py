"""Self-tests of the benchmark: the checker, the resource guard, the
calibration chase and the tracer's self-time arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from calibrate import Calibrator, Chase
from checks import check
from guard import run_guarded
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def cli(*argv: str) -> bytes:
    return subprocess.run([sys.executable, "-m", "brauercell.cli", *argv], env=ENV,
                          capture_output=True, check=True).stdout


def corrupt(stdout: bytes, edit) -> bytes:
    doc = json.loads(stdout)
    edit(doc)
    return json.dumps(doc).encode()


# -- checker ------------------------------------------------------------------

def test_certify_checker_accepts_real_output_and_rejects_flipped_pass():
    out = cli("certify", "--flavor", "orthogonal", "--r", "3", "--N", "2")
    params = {"flavor": "orthogonal", "r": 3, "n": 2}
    assert check("certify", out, **params) == ""
    flipped = corrupt(out, lambda d: d.update({"pass": False}))
    assert "pass" in check("certify", flipped, **params)


def test_certify_checker_rejects_expected_got_mismatch():
    out = cli("certify", "--flavor", "symplectic", "--r", "3", "--N", "1")

    def edit(doc):
        chk = doc["sections"]["split_basis"]["checks"][2]
        chk["got"] += 1
        chk["expected"] += 1
    assert check("certify", corrupt(out, edit), flavor="symplectic", r=3, n=1) != ""


def test_dims_checker_rejects_off_by_one_rank_and_misplaced_null():
    out = cli("dims", "--flavor", "symplectic", "--N", "1", "--r", "3")
    params = {"flavor": "symplectic", "r": 3, "n": 1}
    assert check("dims", out, **params) == ""
    off = corrupt(out, lambda d: d["rows"][2].update({"image_rank": d["rows"][2]["image_rank"] + 1}))
    assert "reference" in check("dims", off, **params)
    null = corrupt(out, lambda d: d["rows"][0].update({"image_rank": None}))
    assert "null" in check("dims", null, **params)


def test_basis_checker_rejects_wrong_split_and_count():
    out = cli("basis", "--flavor", "symplectic", "--r", "3", "--N", "1", "--split")
    params = {"flavor": "symplectic", "r": 3, "n": 1, "split": True}
    assert check("basis", out, **params) == ""

    def flip_kernel(doc):
        entry = next(e for e in doc["entries"] if e["kernel"])
        entry["kernel"] = False
    assert "permissible" in check("basis", corrupt(out, flip_kernel), **params)
    assert "entries" in check("basis", corrupt(out, lambda d: d["entries"].pop()), **params)


def test_library_checkers():
    assert check("transition_dets", b'{"dets": {"0": "1", "1": "-1"}}') == ""
    assert check("transition_dets", b'{"dets": {"0": "1", "1": "2"}}') != ""
    good = {"cells": [{"vertex": {}, "paths": 2, "gram": [["2", "1"], ["1", "3"]],
                       "jm": [[["0", "0"], ["0", "0"]], [["1", "0"], ["0", "-1"]]]}]}
    assert check("gram_jm", json.dumps(good).encode(), r=2) == ""
    good["cells"][0]["gram"][0][1] = "5"
    assert "symmetric" in check("gram_jm", json.dumps(good).encode(), r=2)
    assert "not JSON" in check("gram_jm", b"Traceback", r=2)


# -- guard --------------------------------------------------------------------

class CountingPopen:
    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return subprocess.Popen(*args, **kwargs)


def test_guard_records_memory_limit_failure_with_one_process(tmp_path):
    popen = CountingPopen()
    res = run_guarded([sys.executable, "-c", "x = bytearray(1 << 30)"], timeout_s=60,
                      mem_bytes=256 << 20, workdir=str(tmp_path), popen=popen)
    assert popen.calls == 1
    assert res.reason == "MemoryError (exit 1)"
    assert res.returncode == 1 and not res.timed_out
    assert os.listdir(tmp_path) == []


def test_guard_kills_child_at_the_time_cap(tmp_path):
    popen = CountingPopen()
    res = run_guarded([sys.executable, "-c", "import time; time.sleep(60)"], timeout_s=0.5,
                      mem_bytes=256 << 20, workdir=str(tmp_path), popen=popen)
    assert popen.calls == 1
    assert res.reason == "timeout" and res.timed_out and res.returncode is None
    assert res.wall_s < 10


def test_guard_passes_success_through(tmp_path):
    res = run_guarded([sys.executable, "-c", "print('hi')"], timeout_s=60,
                      mem_bytes=256 << 20, workdir=str(tmp_path))
    assert res.reason == "" and res.stdout == b"hi\n" and res.maxrss_mb > 0


# -- calibration --------------------------------------------------------------

def test_chase_follows_one_cycle_through_every_slot():
    chase = Chase(size=1000, steps=10)
    seen, i = set(), 0
    while i not in seen:
        seen.add(i)
        i = chase.next[i]
    assert i == 0 and len(seen) == 1000
    assert chase.run() > 0


def test_calibrator_samples_and_stops_its_helper():
    with Calibrator() as cal:
        assert cal.sample() > 0 and cal.sample() > 0
    assert cal.proc.returncode is not None
    assert cal.factor() > 0


# -- tracer -------------------------------------------------------------------

def test_self_time_on_synthetic_span_tree():
    #  main [0, 10]
    #    certify_sft [1, 4]     -> diagram_mult [2, 3] (hot)
    #    quotient_cell_modules [5, 9] -> certify_sft [6, 7]
    ticks = iter([0, 1, 2, 3, 4, 5, 6, 7, 9, 10])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.enter("cli.main")
    tracer.enter("sft.certify_sft")
    tracer.enter("diagrams.diagram_mult")
    tracer.exit()
    tracer.exit()
    tracer.enter("sft.quotient_cell_modules")
    tracer.enter("sft.certify_sft")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert tracer.stats == {"cli.main": [1, 3], "sft.certify_sft": [2, 3],
                            "diagrams.diagram_mult": [1, 1],
                            "sft.quotient_cell_modules": [1, 3]}
    names = [s[0] for s in tracer.spans]
    assert names == ["cli.main", "sft.certify_sft", "sft.quotient_cell_modules",
                     "sft.certify_sft"]
    assert tracer.spans[1] == ["sft.certify_sft", 1, 4, 0, {"diagrams.diagram_mult": [1, 1]}]
    assert tracer.spans[3][3] == 2


def test_traced_job_prints_the_same_bytes_and_counts_calls(tmp_path):
    argv = ["certify", "--flavor", "symplectic", "--r", "3", "--N", "1"]
    spans = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, os.path.join(HERE, "tracer.py"), str(spans),
                             "cli", *argv], env=ENV, capture_output=True, check=True)
    assert traced.stdout == cli(*argv)
    stats = json.loads(spans.read_text())["stats"]
    for name in ("diagrams.diagram_mult", "murphy.basis_build", "sft.certify_sft",
                 "tensorrep.rep_diagram", "seminormal.specialize_quotient", "cli.main"):
        assert stats[name][0] > 0, name


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_refuses_a_directory_without_the_program(tmp_path, trace):
    res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "dims",
                          "--seed", "1", "--seconds", "1", "--trace", trace],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
