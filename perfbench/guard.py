"""Run one job as a fresh child process under a resource guard.

The child gets its own process group, an address-space limit (RLIMIT_AS)
and a wall-clock cap.  A CPU-time limit of twice the cap (two cores) plus a
margin stops the child even if this process dies without killing it.  Its
stdout and stderr go to files, so a large dump cannot fill a pipe.  The
parent blocks until the child exits, then reaps it with ``os.wait4`` to
read that child's own CPU time and peak RSS.  On timeout the whole process
group is killed and reaped before ``run_guarded`` returns, so no job
outlives it.
"""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass
class JobResult:
    """Outcome of one guarded child.  ``reason`` is empty on success."""

    wall_s: float
    cpu_s: float
    maxrss_mb: float
    returncode: int | None
    timed_out: bool
    stdout: bytes
    stderr: bytes
    reason: str = ""


def _limits(mem_bytes: int, timeout_s: float):
    cpu_s = int(2 * timeout_s) + 10

    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (mem_bytes, mem_bytes))
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s))
    return apply


def failure_reason(returncode: int | None, timed_out: bool, stderr: bytes) -> str:
    """Why a child failed, or "" if it exited 0.  The exit code is recorded
    as the child gave it; a MemoryError traceback is named as such."""
    if timed_out:
        return "timeout"
    if returncode == 0:
        return ""
    if returncode is not None and returncode < 0:
        return f"signal {-returncode}"
    if b"MemoryError" in stderr:
        return f"MemoryError (exit {returncode})"
    return f"exit {returncode}"


def run_guarded(argv: list[str], *, timeout_s: float, mem_bytes: int,
                workdir: str, env: dict | None = None, cwd: str | None = None,
                popen=subprocess.Popen) -> JobResult:
    """Run ``argv`` to completion (or to the cap) and return its result.

    Exactly one child process is started.  ``workdir`` holds the child's
    stdout/stderr files; they are removed again before returning."""
    out_path = os.path.join(workdir, "job.stdout")
    err_path = os.path.join(workdir, "job.stderr")
    with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
        t0 = time.perf_counter()
        proc = popen(argv, stdin=subprocess.DEVNULL, stdout=out_fh, stderr=err_fh,
                     env=env, cwd=cwd, start_new_session=True,
                     preexec_fn=_limits(mem_bytes, timeout_s))
    # The cap is enforced by a timer, so this process sleeps in the kernel
    # while the child runs.  The child is reaped only after the exited flag
    # is set, so the timer never signals a process group that is gone.
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}

    def at_cap():
        with lock:
            if not state["exited"]:
                state["timed_out"] = True
                os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout_s, at_cap)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        with lock:
            state["exited"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        timer.cancel()
        _kill_and_reap(proc.pid)
        raise
    timed_out = state["timed_out"]
    # the child has been reaped by wait4; keep Popen from waiting on it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    os.remove(out_path)
    os.remove(err_path)
    return JobResult(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                     maxrss_mb=usage.ru_maxrss / 1024.0,
                     returncode=None if timed_out else proc.returncode,
                     timed_out=timed_out, stdout=stdout, stderr=stderr,
                     reason=failure_reason(proc.returncode, timed_out, stderr))


def _kill_and_reap(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass
