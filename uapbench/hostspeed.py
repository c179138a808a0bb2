"""The speed of the vCPU the benchmark runs on, sampled between items.

On a shared host a vCPU runs at full speed or up to ~1.5x slower, switching
every few milliseconds to minutes as other tenants load the core (see
README.md, "Noise").  A run's mean item time follows the share of slow
periods it happened to catch.  ``HostSpeed`` runs a short fixed reference
unit (a Python loop and two small matrix-vector products) in bursts between
items.  The mean unit of a phase gives the speed the phase ran at, and
``scale(phase)`` turns the times measured in that phase into times at a
fixed reference speed: the speed at which one unit takes
``REFERENCE_UNIT_S``, the full-speed unit of the host the baseline was
measured on.  On every host the scaled times stay proportional to the
program's own cost, so a parent and a child commit compare directly.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

BURST_UNITS = 40                     # ~8 ms per burst at full speed
# One reference unit at full speed on the baseline host (Intel Xeon at
# 2.0 GHz, Python 3.11, numpy 2.4): the 5th percentile of its units, which
# read 0.18-0.21 ms over many runs.
REFERENCE_UNIT_S = 2.0e-4
_MATRIX = np.linspace(0.0, 1.0, 500 * 64).reshape(500, 64)
_VECTOR = np.ones(64)


def reference_unit() -> float:
    """A fixed ~0.2 ms of interpreter and numpy work."""
    total = 0
    for i in range(3000):
        total += i * i
    residual = _MATRIX @ _VECTOR - total * 1e-12
    return float(np.sign(residual) @ _MATRIX @ _VECTOR)


class HostSpeed:
    def __init__(self) -> None:
        self.units: dict[str, list[float]] = {}

    def sample(self, phase: str) -> float:
        """Time one burst of reference units, file them under ``phase`` and
        return their mean."""
        out = self.units.setdefault(phase, [])
        for _ in range(BURST_UNITS):
            start = time.perf_counter()
            reference_unit()
            out.append(time.perf_counter() - start)
        return statistics.fmean(out[-BURST_UNITS:])

    def full_speed_unit(self) -> float:
        """The 5th percentile of every unit of the run, in seconds."""
        every = [u for units in self.units.values() for u in units]
        return statistics.quantiles(every, n=20)[0]

    def slowdown(self, phase: str) -> float:
        """Mean unit of ``phase`` over the run's full-speed unit (>= ~1)."""
        return statistics.fmean(self.units[phase]) / self.full_speed_unit()

    def scale(self, phase: str) -> float:
        """Factor that turns times measured in ``phase`` into times at the
        reference speed."""
        return REFERENCE_UNIT_S / statistics.fmean(self.units[phase])
