"""Machine-speed calibration: a fixed kernel timed between measured blocks.

The host this benchmark runs on is shared.  run.py times in CPU time, which
leaves out the time the host gives the virtual CPU to other guests (steal),
but for stretches of seconds to minutes the same block of work still takes
up to 1.6 times more CPU time, as neighbours compete for caches and cores.
A fixed kernel that touches no ``screwgrasp`` code slows down with it.
run.py interleaves short rounds of the kernel with the measured operations,
about SHARE of their CPU time, so that the kernel samples the machine every
tenth of a second or so.  It times them in
CPU time of the process and divides each time metric by ``slowdown()``, the
kernel's mean time per round over NOMINAL_S, so the metric reads as on the
idle reference machine.  A change to the
program does not touch the kernel, so it moves the scaled metric as it moves
the unscaled one.

The kernel mixes the two kinds of work the program does: a pure-Python loop
(interpreter overhead) and small dense numpy solves (the interior-point
linear algebra).
"""

from __future__ import annotations

import time

import numpy as np

# CPU seconds per round on the idle reference machine (2-core Intel Xeon VM at 2.0 GHz,
# Python 3.11.7, numpy 2.4.6); a constant, so that scaled metrics of two runs compare
NOMINAL_S = 0.0125
# calibration time as a share of the measured CPU time
SHARE = 0.12

_N = 24
_A = np.random.default_rng(0).standard_normal((_N, _N))
_A = _A @ _A.T + _N * np.eye(_N)
_B = np.ones(_N)


def one_round() -> float:
    """The kernel once: returns a value so that no step can be skipped."""
    s = 0
    for i in range(30_000):
        s += i * i % 7
    z = 0.0
    for _ in range(300):
        x = np.linalg.solve(_A, _B)
        z += float(np.maximum(_A @ x, 0.0).sum())
    return s + z


class Calibration:
    """Kernel rounds run so far and the CPU time they took."""

    def __init__(self):
        self.rounds = 0
        self.seconds = 0.0
        self.owed = 0.0  # calibration CPU seconds due and not yet run

    def run(self, rounds: int = 1) -> None:
        t0 = time.process_time()
        for _ in range(rounds):
            one_round()
        self.seconds += time.process_time() - t0
        self.rounds += rounds

    def after(self, cpu_s: float) -> None:
        """Run the whole rounds now due for ``cpu_s`` more measured CPU seconds."""
        self.owed += SHARE * cpu_s
        if self.owed >= NOMINAL_S:
            rounds = int(self.owed / NOMINAL_S)
            self.owed -= rounds * NOMINAL_S
            self.run(rounds)

    def slowdown(self) -> float:
        """Mean time per round over NOMINAL_S: 1.0 on the idle reference machine."""
        return self.seconds / self.rounds / NOMINAL_S
