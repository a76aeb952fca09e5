"""Host corrections: the benchmark's timings net of a shared host's drift.

On a shared 2-vCPU host the machine speeds up and slows down by 20%
and more within minutes, and a process's CPU time moves with its wall
time, so raw timings are not steady across runs.  Two corrections,
chosen by how long a sample runs (both chosen from repeated runs on a
2-vCPU x86-64 host, see ``README.md``):

* Short samples (a clip solve, a set-up launch: about a second to a few
  seconds) are rescaled by a fixed numpy workload of the benchmark's
  own, a calibration *burst* of complex FFTs on 256-px grids, run in
  this process just before and just after each sample::

      corrected_s = wall_s * REFERENCE_BURST_S / mean(point before, point after)

  A burst in a child process tracked the samples far worse, so the
  bursts run in the benchmark process itself.

* Long samples (a canvas, a service job: tens of seconds) drift within
  themselves more than bursts at their ends can tell, and rescaling
  them by those bursts added spread.  They subtract the steal time the
  kernel counted while they ran (``/proc/stat``: time the hypervisor
  gave the host's CPUs to someone else).  Rescaling them by the median
  of all the run's bursts instead steadied one set of runs and unsteadied
  the next, so it is not done.

Neither correction calls the program under test, so a change to the
program moves the corrected figure as it moves the wall time on a quiet
host.  Raw wall times are kept next to every corrected one.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List

import numpy as np

#: Seconds one burst takes at the reference host speed (the median of
#: 30 bursts on a 2-vCPU x86-64 host with numpy 2.4).
REFERENCE_BURST_S = 0.165


def steal_s() -> float:
    """Steal time counted on all CPUs since boot; 0 where not counted."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class StealClock:
    """Times one long sample: ``wall`` seconds, the ``steal`` counted
    meanwhile, and ``corrected`` = wall - steal."""

    def __enter__(self) -> "StealClock":
        self._steal = steal_s()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall = time.perf_counter() - self._t0
        self.steal = steal_s() - self._steal
        self.corrected = max(0.0, self.wall - self.steal)
        return False


class HostSpeed:
    """Calibration bursts around consecutive short samples.

    Args:
        bursts: bursts per calibration point; their median is used.
    """

    def __init__(self, bursts: int = 1) -> None:
        rng = np.random.default_rng(20140601)
        # Every buffer is allocated once, so bursts add a constant to the
        # process's peak resident set instead of a varying one.
        self._stack = rng.standard_normal((8, 256, 256)) + 1j * rng.standard_normal((8, 256, 256))
        self._conj = self._stack.conj()
        self._fields = np.empty_like(self._stack)
        self._spectra = np.empty_like(self._stack)
        self.bursts = bursts
        self.points: List[float] = []
        self._burst()  # first touch: page faults and FFT plan set-up
        self._last = self.measure()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> bool:
        # Drop the buffers so later samples' peak resident set is the
        # program's alone.
        self._stack = self._conj = self._fields = self._spectra = None
        return False

    def _burst(self) -> float:
        t0 = time.perf_counter()
        for _ in range(6):
            np.fft.ifft2(self._stack, out=self._fields)
            np.multiply(self._fields, self._conj, out=self._fields)
            np.fft.fft2(self._fields, out=self._spectra)
        return time.perf_counter() - t0

    def measure(self) -> float:
        point = statistics.median(self._burst() for _ in range(self.bursts))
        self.points.append(point)
        return point

    def rescale(self, wall_s: float) -> float:
        """Rescale a sample that ended just now; calibrates after it."""
        before, after = self._last, self.measure()
        self._last = after
        return wall_s * REFERENCE_BURST_S / ((before + after) / 2.0)
