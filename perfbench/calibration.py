"""Calibration loops: fixed work whose time tracks the host's current speed.

The benchmark was defined on a 2-core virtual machine whose speed drifts by
up to 1.7x, in stretches of seconds to minutes, with wall and CPU time alike.
A command's time moves with that drift, so its median over a run depends on
how much of the run fell into slow stretches.  Each timed command therefore
runs between two calibration loops, and the gated metric is the command's
wall time over the mean time of the two loops.

The drift slows interpreter-bound code more than dense linear algebra, so
one loop cannot cancel it for every workload.  There are two, and each
workload uses the one that matches where its time goes (``KIND``).  The
choice was made from recordings of every workload next to seven candidate
loops: with its own kind, the quartile spread of 20 s medians of a
workload's ratio was 0.015 to 0.05, against 0.06 to 0.16 for raw wall time
(see NOTES.md).

The loops use nothing from ``mtkrr``, so a change to the program does not
change them.  The garbage collector is off while they run, so that their time
does not grow with the heap the commands leave behind.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter

import numpy
from scipy import integrate, optimize

KIND = {
    "heatmap_small": "interpreter",
    "verify_bounds": "interpreter",
    "experiment_wide": "dense",
    "table_spline": "dense",
}

_V = numpy.linspace(0.1, 2.0, 50)
_M = numpy.random.default_rng(0).standard_normal((256, 256))
_S = (_M @ _M.T)[:160, :160]


def _interpreter() -> None:
    """Integer arithmetic, quadrature of a Python integrand, bounded minimisation, small-array arithmetic."""
    total = 0.0
    for i in range(100_000):
        total += (i * i) % 13
    for k in range(150):
        total += integrate.quad(lambda t: math.exp(-t * (k + 1)) * t**1.5 / (1.0 + t * t), 0.0, math.inf)[0]
    for k in range(40):
        total += optimize.minimize_scalar(lambda x: float(numpy.sum(_V / (_V + x) ** 2)) + 0.01 * x * (k + 1),
                                          bounds=(1e-6, 10.0), method="bounded").x
    for i in range(3000):
        total += float((_V[:16] * i).sum())


def _dense() -> None:
    """Products of 256 x 256 matrices and symmetric eigendecompositions of 160 x 160 ones."""
    for _ in range(16):
        _M @ _M
    for _ in range(4):
        numpy.linalg.eigh(_S)


_LOOPS = {"interpreter": _interpreter, "dense": _dense}


def calibrate(kind: str) -> float:
    """Wall time of one run of the ``kind`` calibration loop (about 20 to 35 ms)."""
    body = _LOOPS[kind]
    gc.disable()
    try:
        start = perf_counter()
        body()
        return perf_counter() - start
    finally:
        gc.enable()
