"""Reference probe: a fixed computation that does not call dotphase.

The benchmark's host is a share of a machine whose speed for the same work
drifts by up to 2x over seconds to minutes, with the load of its
neighbours. A call's wall time therefore says as much about the neighbours
as about the program. The runner times this probe between calls and
reports call times in units of the probe time measured beside them
(``ref``): the drift scales both alike and cancels, while a change to the
program moves only the numerator.

The probe mixes the two kinds of work the workloads do: a gate applied
with ``np.tensordot`` along every axis of a 2^15-amplitude state (fits in
L2) and along a few axes of a 2^17-amplitude one (does not), the kernel of
the large registers; and a pure-Python loop, the interpreter-bound work of
argument handling, schedules, readout reordering and JSON.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 3              # the probe time is the median of this many runs
LARGE_QUBITS = 15
LARGER_QUBITS, LARGER_AXES = 17, 5
PY_STEPS = 20000

_GATE = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)


def _state(qubits: int) -> np.ndarray:
    # allocated afresh on every run, as the program allocates its states, so
    # the probe does not keep one placement in the caches for a whole process
    return np.full((2,) * qubits, 2.0 ** (-qubits / 2), dtype=np.complex128)


def _sweep_axes(psi: np.ndarray, axes: int) -> np.ndarray:
    for axis in range(axes):
        psi = np.moveaxis(np.tensordot(_GATE, psi, axes=([1], [axis])), 0, axis)
    return psi


def _once() -> float:
    t0 = time.perf_counter()
    _sweep_axes(_state(LARGE_QUBITS), LARGE_QUBITS)
    _sweep_axes(_state(LARGER_QUBITS), LARGER_AXES)
    total = 0
    for i in range(PY_STEPS):
        total += i * i % 7
    return time.perf_counter() - t0


def probe_s() -> float:
    """Seconds the probe takes now: the median of REPEATS runs."""
    return statistics.median(_once() for _ in range(REPEATS))
