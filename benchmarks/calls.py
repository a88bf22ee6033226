"""Seeded call lists for the four workloads.

Each workload is an endless sequence of rounds. A round has a fixed
composition and order (command, register size, gate mode, shot count), so
the mix of call costs is the same for every seed and, since a run's call
count is fixed by its length, for every run; the seed draws only the free values (phases, sampling
seeds, fit targets, device constants). A call is ``(kind, config)``: ``config`` is the JSON config the CLI
reads through ``--config``, ``kind`` a label for reporting and checking.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from reference import pulse_unitary

TWO_PI = 2.0 * math.pi
WORKLOADS = ("exact-large", "shots", "sweep-small", "pulse-fit")


def _phase(rng) -> float:
    # uniform on (0, 2pi], the CLI's accepted range
    return TWO_PI - float(rng.uniform(0.0, TWO_PI))


def _estimate(m, phase, mode="ideal", shots=0, seed=0, include_target=False) -> dict:
    return {"command": "estimate", "m": m, "phase_rad": phase, "mode": mode,
            "shots": shots, "seed": seed, "include_target": include_target,
            "full_distribution": False, "format": "json"}


# Fixed interleaved order. Half the calls are ideal, half pulse-literal.
# m = 16 is the majority, and two of the three m = 15 calls carry the
# target qubit, which makes them 16-qubit states of about the same cost; so
# the median and the tail both sit in one band of call times whichever
# pulse-literal calls fail. One m = 17 call per round: it costs four times
# an m = 16 call, and as the number of successful pulse-literal calls varies
# with the phases, so does its share of a run's successful call time and
# with it the call rate; one in a round keeps that share near a fifth. m = 17
# runs ideal only: a pulse-literal m = 17 call succeeds for about one phase
# in four and then costs five times the median call, so whether a run's one
# or two of them succeeded moved the run's call rate by 15 %. The unitarity
# defect shows through the pulse-literal calls at m = 16.
# Entries are (m, mode, include_target).
_I, _P = "ideal", "pulse-literal"
EXACT_LARGE_ROUND = (
    (16, _I, False), (16, _P, False), (15, _I, True), (16, _P, False),
    (16, _I, False), (16, _P, False), (17, _I, False), (16, _P, False),
    (16, _I, False), (16, _P, False), (15, _P, True), (16, _P, False),
    (16, _I, False), (16, _P, False), (15, _I, False), (16, _I, False),
    (16, _I, False), (16, _P, False), (16, _I, False), (16, _P, False),
    (16, _I, False), (16, _P, False), (16, _I, False), (16, _P, False),
)


def _exact_large(rng):
    for m, mode, target in itertools.cycle(EXACT_LARGE_ROUND):
        tag = f"m{m}-{mode}" + ("-target" if target else "")
        yield tag, _estimate(m, _phase(rng), mode, include_target=target)


# (m, shots) in an order where every prefix mixes register sizes and shot
# counts, so runs that stop at different points still share one cost mix
SHOTS_ROUND = ((10, 1000), (11, 2500), (12, 4000), (10, 2500), (11, 4000),
               (12, 1000), (10, 4000), (11, 1000), (12, 2500))


def _shots(rng):
    for m, shots in itertools.cycle(SHOTS_ROUND):
        yield f"m{m}-shots", _estimate(m, _phase(rng), shots=shots,
                                       seed=int(rng.integers(2 ** 31)))


def _sweep_small(rng):
    # every three-value subset of m = 5..10 once per round, in a fixed order;
    # the gate mode alternates and swaps between rounds
    for r in itertools.count():
        for i, m_values in enumerate(itertools.combinations(range(5, 11), 3)):
            mode = ("ideal", "pulse-literal")[(i + r) % 2]
            yield f"sweep-{mode}", {
                "command": "sweep", "m_values": list(m_values), "n": 3,
                "phases_rad": None, "random_phases": 12, "mode": mode,
                "seed": int(rng.integers(2 ** 31)), "format": "json"}


def _pulse_target(rng) -> np.ndarray:
    theta, phase, alpha = rng.uniform(0.0, TWO_PI, 3)
    return np.exp(1j * alpha) * pulse_unitary(theta, phase)


def _haar_target(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _fit(preset=None, matrix=None) -> dict:
    if matrix is not None:
        matrix = [float(x) for z in matrix.reshape(-1) for x in (z.real, z.imag)]
    return {"command": "pulse-fit", "preset": preset, "matrix": matrix, "format": "json"}


def _clock(rng) -> dict:
    h = int(rng.integers(1, 61))
    by_phase = bool(rng.integers(2))
    return {
        "command": "calibrate-clock",
        "duration_s": None if by_phase else float(rng.uniform(0.5, 2.0)),
        "varphi": float(rng.uniform(0.0, 1.0)) if by_phase else None,
        "total_scales": int(rng.integers(h, 101)), "elapsed_scales": h,
        "t_ideal_s": float(rng.uniform(0.5, 2.0)),
        "eta_percent": float(rng.uniform(95.0, 105.0)),
        "comparison_mode": ["literal", "deviation"][int(rng.integers(2))],
        "varpi": 2 * math.pi * 1e10, "n0": 1.51, "n_vac": 1.0, "r63": 10.6e-12,
        "e_field": 1e6, "v": 1.9854e8, "c": 299792458.0, "format": "json",
    }


def _feasibility(rng) -> dict:
    u = rng.uniform
    return {
        "command": "feasibility", "omega1_mev": 1e-4,
        "omega2_mev": float(u(0.05, 0.2)), "omega_c_mhz": float(u(100.0, 500.0)),
        "delta_mev": float(u(0.5, 2.0)), "tunneling_t_mev": float(u(0.005, 0.02)),
        "level_split_delta_mev": float(u(5.0, 15.0)),
        "coherence_time_s": float(u(1.0, 20.0)),
        "single_gate_time_s": float(u(1e-7, 1e-6)),
        "two_gate_time_s": float(u(5e-5, 2e-4)),
        "n_qubits": None if rng.integers(2) else int(rng.integers(2, 700)),
        "format": "json",
    }


# kinds in a fixed order; the four presets take turns in the preset slots
PULSE_FIT_ROUND = ("preset", "reachable", "haar", "clock",
                   "preset", "reachable", "haar", "feasibility")


def _pulse_fit(rng):
    presets = itertools.cycle(("hadamard", "phase", "pulse-hadamard", "pulse-phase"))
    makers = {
        "preset": lambda: _fit(preset=_preset(next(presets), rng)),
        "reachable": lambda: _fit(matrix=_pulse_target(rng)),
        "haar": lambda: _fit(matrix=_haar_target(rng)),
        "clock": lambda: _clock(rng),
        "feasibility": lambda: _feasibility(rng),
    }
    for kind in itertools.cycle(PULSE_FIT_ROUND):
        yield kind, makers[kind]()


def _preset(name: str, rng) -> str:
    return f"{name}:{float(rng.uniform(-math.pi, math.pi))!r}" if "phase" in name else name


_GENERATORS = {"exact-large": _exact_large, "shots": _shots,
               "sweep-small": _sweep_small, "pulse-fit": _pulse_fit}


def calls(workload: str, seed: int):
    """Endless, deterministic call sequence for ``workload`` and ``seed``."""
    return _GENERATORS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))
