"""A fixed reference computation, timed beside every benchmark pass.

On a shared host another tenant's load changes how fast the same code
runs, by up to a factor of two, in spells that last from seconds to
minutes; a median over one run cannot remove that.  Dividing a pass's
time by the time of a fixed computation run on the same CPU just before
and just after it cancels most of the change.

The reference imports nothing from harnack_forge, so no change to the
program moves it.  Its four parts mimic the kinds of work the program
does: numpy calls on 4x4 matrices (the Riccati layer and the optimizer),
arithmetic on whole 256x256 grids (the solver), interpreted Python (the
campaign loops) and float formatting (the CSV writers).  Their times are
combined by geometric mean, so each part weighs the same whatever its
length.  Editing this file changes the unit of every ``*_ref`` metric;
do it only in a change to the benchmark, never in one that claims a gain.
"""

from __future__ import annotations

import math
import time

import numpy as np

_SMALL = np.arange(16.0).reshape(4, 4) / 16.0
_SMALL_T = _SMALL.T.copy()
_GRID = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
_GRID_T = _GRID.T.copy()


def _small_matrices():
    s = 0.0
    for _ in range(3000):
        x = _SMALL @ _SMALL_T
        s += float((0.5 * (x + x.T))[0, 0])
    return s


def _grid_arrays():
    s = 0.0
    for _ in range(40):
        x = _GRID * _GRID_T + _GRID
        s += float((np.roll(x, 1, axis=0) - x).sum())
    return s


def _interpreter():
    s = 0
    for i in range(150_000):
        s += i * i
    return s


def _formatting():
    return len(",".join(repr(float(v)) for v in _GRID.ravel()[:10_000]))


PARTS = (_small_matrices, _grid_arrays, _interpreter, _formatting)


def _gmean(values):
    return math.exp(sum(math.log(max(v, 1e-9)) for v in values) / len(values))


def measure():
    """(wall_s, cpu_s) of the reference: geometric means over its parts."""
    walls, cpus = [], []
    for part in PARTS:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        part()
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
    return _gmean(walls), _gmean(cpus)
