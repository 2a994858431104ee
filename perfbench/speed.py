"""Machine-speed probes, to state timings at a fixed reference speed.

On a shared machine the same fixed work runs up to 2x slower for minutes
at a time (a neighbour's load; the kernels below took 0.06 s in one
minute and 0.15 s in another).  A run lasts half a minute, so its raw wall
time mostly reports which phase it fell in.  Each timing is therefore
scaled by reference / probe, where the probe is the mean time of a fixed
kernel of the same kind of work (Python-callback quadrature, small batched
eigensolves, vectorized trigonometry) run before the timed work and after
each of its operations.  The kernels use numpy and scipy only, never critfield, so a
change to critfield leaves them alone.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy import integrate



def _python() -> None:
    def inner(y):
        return integrate.quad(lambda x: math.exp(-0.5 * (x * x + y * y)) * abs(x - y),
                              -6.0, 6.0, epsabs=1e-12, epsrel=1e-9)[0]
    integrate.quad(inner, -6.0, 6.0, epsabs=1e-10, epsrel=1e-8)


_RNG = np.random.default_rng(0)
_MATS = _RNG.standard_normal((20000, 3, 3))
_MATS = _MATS + _MATS.transpose(0, 2, 1)
_ANGLES = _RNG.uniform(0.0, 6.0, 500_000)


def _eig() -> None:
    for _ in range(5):
        np.linalg.eigvalsh(_MATS)


def _trig() -> None:
    for _ in range(12):
        np.sin(_ANGLES).sum()


KERNELS = {"python": _python, "eig": _eig, "trig": _trig}
# Seconds one kernel takes at the reference speed; a typical value on the
# 2-core machine the reference figures come from.
REFERENCE_S = {"python": 0.09, "eig": 0.09, "trig": 0.11}


def probe(kind: str, repeats: int = 3) -> list[float]:
    """Wall times of `repeats` runs of one kernel."""
    kernel = KERNELS[kind]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def scale(kind: str, samples: list[float]) -> float:
    """Factor that turns a wall time taken while the kernel ran in the mean
    of samples into reference time.  The mean, not the median: over a few
    seconds the kernel time jumps between a fast and a slow level, and the
    timed work runs through both in proportion."""
    return REFERENCE_S[kind] / statistics.fmean(samples)
