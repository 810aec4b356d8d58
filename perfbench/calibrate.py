"""Memory-latency calibration for the end-to-end times.

The reference machine is a VM on a shared host whose speed drifts by up to
±30% for minutes at a time, and a whole run often sits in one such regime.
The brauercell jobs are bound by memory latency (dict lookups and small
objects scattered over tens of MB), and so is a pointer chase through a
shuffled list: timed between the jobs of a run, the chase slowed and sped
up with them, where a pure arithmetic loop did not.  ``Calibrator`` times
the chase during a run; ``factor`` scales the run's times to a machine on
which one chase takes ``REF_S`` seconds.

The chase runs in a helper process of its own, started before any job, so
that its ~40 MB list is not copied into the jobs' address space when they
are forked and does not show in their peak RSS:

    python3 perfbench/calibrate.py     # one chase per line read; prints its time
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time

REF_S = 0.035      # chase time the scaled metrics refer to, seconds
SIZE = 1 << 20     # list length; list plus int objects span ~40 MB
STEPS = 100_000    # steps per chase, 30-50 ms on the reference machine


class Chase:
    """A pointer chase along one random cycle through ``size`` slots."""

    def __init__(self, size: int = SIZE, steps: int = STEPS, seed: int = 0):
        order = list(range(size))
        random.Random(seed).shuffle(order)
        self.next = [0] * size
        for a, b in zip(order, order[1:] + order[:1]):
            self.next[a] = b
        self.steps = steps

    def run(self) -> float:
        """Seconds taken by one chase of ``steps`` steps."""
        nxt, i = self.next, 0
        t0 = time.perf_counter()
        for _ in range(self.steps):
            i = nxt[i]
        return time.perf_counter() - t0


class Calibrator:
    """Owns the helper process; ``close`` ends it and waits for it."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples: list[float] = []

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        self.samples.append(float(line))
        return self.samples[-1]

    def factor(self) -> float:
        """REF_S over the median chase time: multiply a time of this run by it."""
        return REF_S / statistics.median(self.samples)

    def close(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def main() -> None:
    chase = Chase()
    for _ in sys.stdin:
        print(repr(chase.run()), flush=True)


if __name__ == "__main__":
    main()
