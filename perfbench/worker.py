"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/worker.py '<json spec>'`` with ``src`` on
``PYTHONPATH``. The spec names the workload, seed, sizes, whether to trace,
the run id and the output directory. The worker prints one JSON line that
describes the repetition.

Host speed on a shared machine drifts by up to ~1.8x within seconds. So from
the import of numpy to the end of the measured phase, the worker times a fixed
reference loop every ``PERIOD_S`` of CPU time, from a ``SIGPROF`` handler.
``run.py`` uses the loop's mean time in each phase to scale that phase to a
host of reference speed. The loop mixes dict and small-array work like the
policy's hot path; on this host a pure-Python loop tracked the numpy-heavier
workloads (variance, gradcheck) worse. This module imports only numpy and the
standard library, so the sampler runs before scipy and ``dypo`` are imported.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import numpy as np

PERIOD_S = 0.02
LOOP_ITERATIONS = 100
MIN_SAMPLES = 5  # below this a phase borrows the mean over all samples


_LOGITS = np.linspace(-1.0, 1.0, 9)


def reference_loop() -> float:
    """Tuple-keyed dict lookups and 9-wide softmax rows, like the policy's hot path."""
    table: dict = {}
    total = 0.0
    for i in range(LOOP_ITERATIONS):
        ctx = (i % 37, (i % 9,))
        row = table.get(ctx)
        if row is None:
            row = table[ctx] = np.exp(_LOGITS - _LOGITS.max())
        total += float(np.cumsum(row / row.sum())[-1])
    return total


class HostSpeed:
    """Samples the reference loop's duration every PERIOD_S of process CPU time."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)

    def _sample(self, signum, frame) -> None:
        t0 = time.monotonic()
        reference_loop()
        self.starts.append(t0)
        self.durations.append(time.monotonic() - t0)

    def window(self, t0: float, t1: float) -> dict:
        """Samples taken in [t0, t1): their count, total time and mean loop time."""
        inside = [d for s, d in zip(self.starts, self.durations) if t0 <= s < t1]
        basis = inside if len(inside) >= MIN_SAMPLES else self.durations
        return {"samples": len(inside), "loop_s": sum(inside),
                "mean_loop_s": sum(basis) / len(basis) if basis else None}


if __name__ == "__main__":
    speed = HostSpeed()
    speed.start()
    from workloads import run_repetition

    print(json.dumps(run_repetition(json.loads(sys.argv[1]), speed)))
