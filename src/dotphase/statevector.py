"""Dense state-vector core for a qubit register plus an optional cavity mode.

Basis convention: qubit 1 is the most significant bit of the basis index;
the cavity mode, when present, occupies the least significant position.
The cavity Fock space is truncated to {0, 1}.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _pcg
from .errors import (
    CapacityError,
    ConfigurationError,
    DimensionError,
    NumericalInvariantError,
    ValidationError,
)

MAX_QUBITS = 24
NORM_TOL = 1e-10
UNITARY_TOL = 1e-12
GENERATOR_ID = "numpy-pcg64"
# Below this many seeds, sample draws through numpy's own Generator, one
# default_rng(seed).random() (about 18 us) per seed; the array pass costs
# about 0.2 ms even for one seed, so it wins from about 11-16 seeds on.
SAMPLE_BATCH_MIN = 16


@dataclass
class QuantumState:
    """Amplitude vector over ``num_qubits`` qubits and an optional cavity mode."""

    num_qubits: int
    has_cavity: bool
    amplitudes: np.ndarray  # complex128, length 2**num_qubits * (2 if cavity)

    @property
    def num_factors(self) -> int:
        return self.num_qubits + (1 if self.has_cavity else 0)

    @property
    def dim(self) -> int:
        return 2 ** self.num_factors

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "QuantumState":
        return QuantumState(self.num_qubits, self.has_cavity, self.amplitudes.copy())


@dataclass
class MeasurementRecord:
    """Outcome of measuring every qubit of the register (cavity untouched)."""

    bits: tuple  # qubit 1 first
    collapsed: QuantumState
    seed_used: int
    generator: str = GENERATOR_ID


def new_state(m: int, with_cavity: bool = False) -> QuantumState:
    """All-zeros computational basis state on m qubits (cavity in vacuum)."""
    if not (1 <= m <= MAX_QUBITS):
        raise CapacityError(f"qubit count must be in [1, {MAX_QUBITS}], got {m}")
    dim = 2 ** (m + (1 if with_cavity else 0))
    amps = np.zeros(dim, dtype=np.complex128)
    amps[0] = 1.0
    return QuantumState(m, with_cavity, amps)


def _require_unitary(gate: np.ndarray, dim: int) -> np.ndarray:
    gate = np.asarray(gate, dtype=np.complex128)
    if gate.shape != (dim, dim):
        raise DimensionError(f"expected {dim}x{dim} gate, got shape {gate.shape}")
    dev = np.max(np.abs(gate.conj().T @ gate - np.eye(dim)))
    # written so that a NaN deviation fails too
    if not dev <= UNITARY_TOL:
        raise ValidationError(f"gate is not unitary (deviation {dev:.3e})")
    return gate


def _check_norm(state: QuantumState) -> QuantumState:
    if not abs(state.norm() - 1.0) <= NORM_TOL:
        raise NumericalInvariantError(
            f"state norm drifted to {state.norm():.15f}"
        )
    return state


def _qubit_axis(state: QuantumState, qubit_index: int) -> int:
    if not (1 <= qubit_index <= state.num_qubits):
        raise DimensionError(
            f"qubit index {qubit_index} out of range 1..{state.num_qubits}"
        )
    return qubit_index - 1


def _apply(state: QuantumState, axes: list, gate: np.ndarray) -> QuantumState:
    """Contract a unitary on the tensor factors ``axes`` (its row order)."""
    k = len(axes)
    gate = _require_unitary(gate, 2 ** k).reshape((2,) * (2 * k))
    psi = state.amplitudes.reshape((2,) * state.num_factors)
    psi = np.tensordot(gate, psi, axes=(list(range(k, 2 * k)), axes))
    psi = np.moveaxis(psi, list(range(k)), axes)
    # tensordot returned a new array, so the state can own it without a copy
    out = QuantumState(state.num_qubits, state.has_cavity, psi.reshape(-1))
    return _check_norm(out)


def apply_1q(state: QuantumState, qubit_index: int, gate: np.ndarray) -> QuantumState:
    """Apply a 2x2 unitary to the indexed qubit (1-based)."""
    return _apply(state, [_qubit_axis(state, qubit_index)], gate)


def apply_2q(
    state: QuantumState, control_index: int, target_index: int, gate: np.ndarray
) -> QuantumState:
    """Apply a 4x4 unitary to the ordered (control, target) qubit pair."""
    if control_index == target_index:
        raise DimensionError("control and target must be distinct")
    axes = [_qubit_axis(state, control_index), _qubit_axis(state, target_index)]
    return _apply(state, axes, gate)


def apply_qubit_cavity(
    state: QuantumState, qubit_index: int, gate: np.ndarray
) -> QuantumState:
    """Apply a 4x4 unitary on (qubit, cavity), basis order {g0, g1, e0, e1}."""
    if not state.has_cavity:
        raise ConfigurationError("state has no cavity mode")
    axes = [_qubit_axis(state, qubit_index), state.num_factors - 1]
    return _apply(state, axes, gate)


def probabilities(state: QuantumState) -> np.ndarray:
    """Born-rule probability for every basis state (cavity dimension included)."""
    probs = np.abs(state.amplitudes) ** 2
    if not abs(probs.sum() - 1.0) <= NORM_TOL:
        raise NumericalInvariantError(f"probabilities sum to {probs.sum():.15f}")
    return probs


def register_probabilities(state: QuantumState, m: int) -> np.ndarray:
    """Born-rule marginal of qubits 1..m, indexed with qubit 1 as the most
    significant bit; later qubits and the cavity are summed out."""
    if not (1 <= m <= state.num_qubits):
        raise DimensionError(f"register size {m} out of range 1..{state.num_qubits}")
    return probabilities(state).reshape(2 ** m, -1).sum(axis=1)


def sample(probs: np.ndarray, seeds) -> np.ndarray:
    """One outcome index per seed, drawn from ``probs`` after normalising it.

    Each draw is the first uniform of a fresh PCG64 stream for its seed,
    looked up in a CDF built once: the same index, bit for bit, that numpy's
    ``Generator.choice`` draws with ``p=probs / probs.sum()`` for that seed.
    A batch of ``SAMPLE_BATCH_MIN`` seeds or more takes all its uniforms in
    one array pass (``_pcg.first_uniforms``), which reproduces numpy's.
    """
    probs = np.asarray(probs, dtype=np.float64)
    total = probs.sum()
    # written so that NaN entries fail too
    if not (np.all(probs >= 0.0) and 0.0 < total < np.inf):
        raise NumericalInvariantError(f"cannot sample: bad probabilities (sum {total})")
    cdf = np.cumsum(probs / total)
    cdf /= cdf[-1]
    if len(seeds) >= SAMPLE_BATCH_MIN:
        draws = _pcg.first_uniforms(seeds)
    else:
        draws = [np.random.default_rng(seed).random() for seed in seeds]
    return np.searchsorted(cdf, draws, side="right")


def measure_all(state: QuantumState, seed: int) -> MeasurementRecord:
    """Measure every qubit; the cavity factor is left untouched.

    The outcome is drawn from the register marginal with a seeded PCG64
    stream, so identical seeds give identical records.
    """
    m = state.num_qubits
    cav = 2 if state.has_cavity else 1
    outcome = int(sample(register_probabilities(state, m), [seed])[0])
    bits = tuple((outcome >> (m - 1 - i)) & 1 for i in range(m))

    collapsed_amps = np.zeros_like(state.amplitudes)
    block = slice(outcome * cav, (outcome + 1) * cav)
    collapsed_amps[block] = state.amplitudes[block]
    collapsed_amps /= np.linalg.norm(collapsed_amps)
    collapsed = QuantumState(m, state.has_cavity, collapsed_amps)
    return MeasurementRecord(bits=bits, collapsed=collapsed, seed_used=seed)


def overlap(a: QuantumState, b: QuantumState) -> complex:
    """Inner product <a|b>."""
    if a.dim != b.dim or a.num_qubits != b.num_qubits or a.has_cavity != b.has_cavity:
        raise DimensionError("states have different shapes")
    return complex(np.vdot(a.amplitudes, b.amplitudes))
