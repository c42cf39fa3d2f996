"""Host-speed probe: a fixed mix of work timed between operations.

On the shared 2-vCPU Xeon VM this benchmark was tuned on (Python
3.11.7, numpy 2.4.6) host speed drifts by up to 2x over minutes: the
same operation took 0.5 s in one 10 s stretch and 0.95 s in the next.
Ten runs per workload without this probe spread 0.07 to 0.32 (quartile
distance over median of samples_per_s); with each operation scaled by
the probe timed beside it, ten runs spread 0.04 to 0.10.

The probe is frozen code that imports nothing from aps2sim, so no change
to the simulator can move it.  It mixes the three kinds of work the
simulator does: Python objects and containers (the decode loop), many
small numpy calls (per-run trace assembly), and large vector passes
(modulation and mixer over long runs).
"""

from __future__ import annotations

import bisect
from time import perf_counter

import numpy as np

# Host times are reported as if the probe had taken this long: a host
# speed in the range the VM above ran at (its probe took 0.05-0.15 s).
REFERENCE_S = 0.1

_LONG = np.arange(300_000, dtype=np.float64)
_SHORT = np.arange(48, dtype=np.int64)


class _Run:
    __slots__ = ("start", "n")

    def __init__(self, start: int, n: int):
        self.start = start
        self.n = n

    @property
    def end(self) -> int:
        return self.start + 5 * self.n


def _objects() -> int:
    starts, runs, hist = [], [], {}
    for i in range(20_000):
        run = _Run(i * 20, 8 + (i & 7))
        if run.end > 0:
            runs.append(run)
            starts.append(run.start)
        key = i & 511
        hist[key] = hist.get(key, 0) + bisect.bisect_right(starts, i * 10)
    return len(runs)


def _small_arrays() -> int:
    parts = []
    for _ in range(1_500):
        z = np.full(48, 0.25 + 0.5j) * np.exp(0.01j * _SHORT)
        pair = np.stack([z.real, z.imag], axis=-1)
        parts.append(np.clip(pair, -1.0, 1.0)[:, 0])
    return np.concatenate(parts).size


def _long_arrays() -> int:
    z = np.exp(2j * np.pi * 0.013 * _LONG)
    pair = np.stack([z.real, z.imag], axis=-1) @ np.eye(2)
    return np.clip(pair, -1.0, 1.0).size


def probe() -> float:
    """Seconds the fixed work mix takes on this host right now."""
    t0 = perf_counter()
    _objects()
    _small_arrays()
    _long_arrays()
    return perf_counter() - t0
