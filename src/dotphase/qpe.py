"""Phase-estimation protocol: register preparation, phase kicks, the
five-gate controlled-phase decomposition, the inverse QFT schedule, and the
measurement statistics.

Molecule j holds readout bit phi_{m-j+1}; detectors return register order
(molecule 1 first), which is reversed before forming the binary fraction.
The readout integer is j = sum_i phi_i 2^{m-i}, so the estimate is
2*pi*j / 2^m.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _pcg
from . import statevector as sv
from .errors import (
    BoundUndefinedError,
    CapacityError,
    DomainError,
    ValidationError,
)
# benchmarks/spans.py patches all three names here, so all stay imported
from .pulses import (
    hadamard_pulse_params,
    phase_gate_pulse_params,
    single_pulse_unitary,
)

MAX_REGISTER = 20
# Shots per experiment: every shot is a seed, a draw and two entries of the
# JSON report (about 50 bytes), so a million shots already make ~50 MB.
MAX_SHOTS = 1_000_000
# Runs of up to this many shots derive their seeds with one shot_seed call
# per shot (about 13 us each, so under 1 ms a run), which keeps each shot
# visible to a tracer that wraps shot_seed, as benchmarks/spans.py does;
# larger runs take the array pass in shot_seeds.
SHOT_SEED_LOOP_MAX = 64
# Amplitudes of one stack that sweep hands to exact_distributions: the
# registers of up to BATCH_AMPLITUDES >> m phases (1 MiB of state), so every
# gate serves them all at once; from m = 16 on each phase runs alone.
BATCH_AMPLITUDES = 2 ** 16

IDEAL_HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    dtype=np.complex128,
)


def check_register(m: int) -> int:
    """``m``, once it is a register size the simulator takes: 1 to
    MAX_REGISTER."""
    if not (1 <= m <= MAX_REGISTER):
        raise CapacityError(f"m must be in [1, {MAX_REGISTER}], got {m}")
    return m


def check_phase(phi: float) -> float:
    """``phi``, once it is a true phase the protocol takes: in (0, 2*pi]."""
    # written so that a NaN phase fails too
    if not (0.0 < phi <= math.tau):
        raise ValidationError(f"true phase must lie in (0, 2*pi], got {phi}")
    return phi


class GateMode(str, Enum):
    IDEAL = "ideal"
    PULSE_LITERAL = "pulse-literal"


@dataclass
class QpeConfig:
    """One phase-estimation experiment."""

    m: int
    true_phase_phi: float
    gate_mode: GateMode = GateMode.IDEAL
    include_target_qubit: bool = False
    shots: int = 0
    seed: int = 0

    def __post_init__(self):
        check_register(self.m)
        check_phase(self.true_phase_phi)
        if not (0 <= self.shots <= MAX_SHOTS):
            raise ValidationError(f"shots must be in [0, {MAX_SHOTS}], got {self.shots}")
        self.gate_mode = GateMode(self.gate_mode)


@dataclass
class PhaseEstimate:
    bits: tuple  # phi_1 ... phi_m, already reversed from register order
    estimated_phase: float
    eta_percent: float


@dataclass
class OutcomeDistribution:
    probs: np.ndarray  # indexed by readout integer j


@dataclass(frozen=True)
class SequenceStep:
    """One element of the five-gate controlled-phase decomposition."""

    kind: str            # "phase" or "cnot"
    slot: str | None = None   # "j" (control) or "k" (target) for phase gates
    angle: float | None = None


def _hadamard_gate(mode: GateMode) -> np.ndarray:
    if mode == GateMode.IDEAL:
        return IDEAL_HADAMARD
    return single_pulse_unitary(hadamard_pulse_params())


def _phase_diagonals(thetas, mode: GateMode, powers=(1,)) -> np.ndarray:
    """Diagonals of the theta phase gate of each of ``thetas`` raised to
    each of ``powers``, as a ``(len(powers), len(thetas), 2)`` array.

    Ideal mode gives (1, e^{i p theta}); pulse-literal mode builds one pulse,
    diag(-e^{-i theta}, e^{i theta}), per phase and raises its entries.
    ``np.power`` and not ``**``: numpy turns an array's ``** 2`` into
    ``np.square``, which rounds otherwise than the scalar power.

    Known defect: pulse-literal mode raises the rounded pulse entries to the
    power, so for powers from about 2^14 the gate can drift past
    UNITARY_TOL and the run stops with "gate is not unitary"."""
    powers = np.asarray(powers)[:, None]
    if mode == GateMode.IDEAL:
        out = np.ones((len(powers), len(thetas), 2), dtype=np.complex128)
        out[..., 1] = np.exp(1j * powers * np.asarray(thetas, dtype=float))
        return out
    base = np.array([single_pulse_unitary(phase_gate_pulse_params(t)).diagonal()
                     for t in thetas])
    return np.power(base, powers[..., None])


@functools.lru_cache(maxsize=1024)
def _phase_gate(theta: float, mode: GateMode) -> np.ndarray:
    """theta phase gate of the inverse QFT.

    Memoised: the inverse QFT asks for the same few angles again and again.
    Every caller shares the cached array, so it is read-only."""
    gate = np.diag(_phase_diagonals([theta], mode)[0, 0])
    gate.flags.writeable = False
    return gate


def prepare_register(m: int, gate_mode: GateMode = GateMode.IDEAL) -> sv.QuantumState:
    """All-zeros register with a Hadamard-step pulse on every molecule."""
    state = sv.new_state(m)
    h = _hadamard_gate(gate_mode)
    for q in range(1, m + 1):
        state = sv.apply_1q(state, q, h)
    return state


def apply_phase_kicks(
    state: sv.QuantumState, phi, m: int, gate_mode: GateMode = GateMode.IDEAL
) -> sv.QuantumState:
    """Write e^{i 2^{m-j} phi} onto molecule j's relative phase, j = 1..m.

    A stack takes a sequence ``phi`` of one phase per row, and each molecule
    is kicked in one call over every row (``sv.apply_1q_diagonals``), which
    gives each row the bits its phase alone gets from ``sv.apply_1q``.
    The entries of all m kicks come from one ``_phase_diagonals`` call.
    ``state`` itself is not written: the first kick returns a new state,
    which the later kicks overwrite."""
    stacked = state.amplitudes.ndim > 1
    kicks = _phase_diagonals(phi if stacked else [phi], gate_mode, _kick_powers(m))
    for j, entries in enumerate(kicks, start=1):
        if stacked:
            state = sv.apply_1q_diagonals(state, j, entries, in_place=j > 1)
        else:
            state = sv.apply_1q(state, j, np.diag(entries[0]), in_place=j > 1)
    return state


def _kick_powers(m: int) -> list[int]:
    """2^{m-j}: the power of the phase gate that kicks molecule j = 1..m."""
    return [2 ** (m - j) for j in range(1, m + 1)]


def controlled_phase_sequence(theta: float) -> list[SequenceStep]:
    """Five-gate decomposition whose composite is diag(1, 1, 1, e^{-2i theta}).

    Time order: theta phase gates U(x) = diag(1, e^{ix}) on the control (j)
    and target (k) slots interleaved with two CNOT(j -> k) gates.
    """
    if not math.isfinite(theta):
        raise ValidationError("theta must be finite")
    return [
        SequenceStep("phase", "j", -theta),
        SequenceStep("cnot"),
        SequenceStep("phase", "k", theta),
        SequenceStep("cnot"),
        SequenceStep("phase", "k", -theta),
    ]


def sequence_unitary(theta: float) -> np.ndarray:
    """4x4 composite of the five-gate sequence on the ordered (j, k) pair:
    column c is what ``_apply_sequence`` (ideal mode) makes of basis state c
    of a two-qubit register."""
    basis = np.eye(4, dtype=np.complex128)
    return np.column_stack([
        _apply_sequence(sv.QuantumState(basis[c]), 1, 2, theta,
                        GateMode.IDEAL).amplitudes
        for c in range(4)])


def _apply_sequence(
    state: sv.QuantumState, j: int, k: int, theta: float, mode: GateMode
) -> sv.QuantumState:
    """The five gates on the pair (j, k). They may overwrite ``state``,
    which every caller owns."""
    for step in controlled_phase_sequence(theta):
        if step.kind == "cnot":
            state = sv.apply_2q(state, j, k, CNOT, in_place=True)
        else:
            target = j if step.slot == "j" else k
            state = sv.apply_1q(state, target, _phase_gate(step.angle, mode),
                                in_place=True)
    return state


def inverse_qft(
    state: sv.QuantumState, m: int, gate_mode: GateMode = GateMode.IDEAL
) -> sv.QuantumState:
    """Inverse-QFT schedule: Hadamard on molecule 1, then for each molecule
    r = 2..m the controlled-phase sequences U_{s,r} (theta = pi / 2^{r-s+1})
    followed by a Hadamard on r. ``state`` itself is not written: each
    Hadamard returns a new state, which the sequences after it overwrite."""
    h = _hadamard_gate(gate_mode)
    state = sv.apply_1q(state, 1, h)
    for r in range(2, m + 1):
        for s in range(1, r):
            state = _apply_sequence(state, s, r, math.pi / 2 ** (r - s + 1),
                                    gate_mode)
        state = sv.apply_1q(state, r, h)
    return state


def bit_reverse(j: int, m: int) -> int:
    """m-bit reversal of j; tests keep it as the readout-order reference."""
    out = 0
    for _ in range(m):
        out = (out << 1) | (j & 1)
        j >>= 1
    return out


def estimate_from_bits(register_bits: tuple, true_phase: float) -> PhaseEstimate:
    """Turn register-order detector bits into a phase estimate."""
    readout = tuple(reversed(register_bits))
    frac = sum(b / 2 ** (i + 1) for i, b in enumerate(readout))
    phi_hat = math.tau * frac
    return PhaseEstimate(
        bits=readout,
        estimated_phase=phi_hat,
        eta_percent=phi_hat / true_phase * 100.0,
    )


def measure_and_estimate(
    state: sv.QuantumState, m: int, true_phase: float, seed: int
) -> PhaseEstimate:
    """Measure molecules 1..m and read the result out in reversed order."""
    record = sv.measure_all(state, seed)
    return estimate_from_bits(record.bits, true_phase)


def exact_distribution(
    m: int, phi: float, gate_mode: GateMode = GateMode.IDEAL
) -> OutcomeDistribution:
    """Full readout distribution of the protocol, no sampling."""
    return OutcomeDistribution(probs=exact_distributions(m, [phi], gate_mode)[0])


def exact_distributions(
    m: int, phis, gate_mode: GateMode = GateMode.IDEAL
) -> np.ndarray:
    """Readout distribution of the protocol for each phase of ``phis``, one
    row per phase, no sampling. The register is prepared once; all the
    phases are kicked as one stack of it, one call per molecule, and go
    through one inverse QFT, whose gates act on every row alike, so each
    row has the bits that phase's run alone would give. The stack holds
    ``len(phis) * 2^m`` amplitudes: callers bound it (sweep passes at most
    ``batch_size(m)`` phases a call)."""
    check_register(m)
    if len(phis) == 0:
        return np.empty((0, 2 ** m))
    prepared = prepare_register(m, gate_mode).amplitudes
    # the first kick copies the read-only rows of the broadcast register
    stack = sv.QuantumState(np.broadcast_to(prepared, (len(phis), 2 ** m)))
    state = inverse_qft(apply_phase_kicks(stack, phis, m, gate_mode), m, gate_mode)
    return _readout(state, m).probs


def batch_size(m: int) -> int:
    """Phases that sweep stacks in one exact_distributions call at register
    size ``m``."""
    return max(1, BATCH_AMPLITUDES >> m)


def _readout(state: sv.QuantumState, m: int) -> OutcomeDistribution:
    """Distribution of the readout integer over molecules 1..m: the register
    marginal with its bit order reversed (molecule 1 holds the last bit);
    of a stack, one row per state."""
    register = sv.register_probabilities(state, m)
    rows = register.reshape((-1,) + (2,) * m).transpose(0, *range(m, 0, -1))
    return OutcomeDistribution(probs=rows.reshape(register.shape))


def success_probability_bound(m: int, n: int) -> float:
    """Chance the m-bit estimate lands within 1/2^n: 1 - 1/(2^{m-n+1} - 4)."""
    _check_accuracy(n)
    if m <= n:
        raise DomainError(f"need m > n, got m={m}, n={n}")
    if m == n + 1:
        raise BoundUndefinedError(
            "bound denominator vanishes at m = n + 1; need m >= n + 2"
        )
    return 1.0 - 1.0 / (2 ** (m - n + 1) - 4)


def circular_distance(frac_a, frac_b):
    """Distance between turn fractions on the unit circle, in [0, 1/2];
    elementwise for arrays."""
    d = np.abs(frac_a - frac_b) % 1.0
    return np.minimum(d, 1.0 - d)


def _check_accuracy(n: int) -> None:
    if n < 0:
        raise DomainError(f"need n >= 0 accuracy bits, got n={n}")


def empirical_success(
    m: int, n: int, phi: float, gate_mode: GateMode = GateMode.IDEAL
) -> float:
    """Probability mass of readouts within circular distance 1/2^n of phi."""
    _check_accuracy(n)
    if m < n:
        raise DomainError(f"need m >= n, got m={m}, n={n}")
    return window_mass(exact_distribution(m, phi, gate_mode).probs, n, phi)


def window_mass(probs: np.ndarray, n: int, phi: float) -> float:
    """Mass of the readout distribution ``probs`` (over 2^m outcomes) within
    circular distance 1/2^n of phi."""
    size = len(probs)
    d = circular_distance(np.arange(size) / size, (phi / math.tau) % 1.0)
    return float(probs[d < 0.5 ** n].sum())


def kick_equivalence_check(m: int, phi: float) -> float:
    """Overlap modulus between the single-qubit-kick state and the explicit
    (m+1)-qubit controlled-phase construction with the target held in |1>."""
    if m > 10:
        raise ValidationError("kick equivalence check limited to m <= 10")
    a = apply_phase_kicks(prepare_register(m), phi, m)
    a_full = np.kron(a.amplitudes, np.array([0.0, 1.0]))  # append target |1>
    b = _controlled_kick_state(m, phi, IDEAL_HADAMARD)
    return float(abs(np.vdot(a_full, b.amplitudes)))


def _controlled_kick_state(m: int, phi: float, h: np.ndarray) -> sv.QuantumState:
    """Molecules 1..m after the Hadamard step ``h`` plus an explicit target
    molecule m+1 in |1>, after controlled-phase kicks e^{i 2^{m-j} phi} from
    each molecule j onto the target."""
    flip = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    # the state is made here, so the flip and the kicks may overwrite it
    state = sv.apply_1q(sv.new_state(m + 1), m + 1, flip, in_place=True)
    for q in range(1, m + 1):
        state = sv.apply_1q(state, q, h)
    kicks = _phase_diagonals([phi], GateMode.IDEAL, _kick_powers(m))[:, 0]
    for j, kick in enumerate(kicks, start=1):
        state = sv.apply_2q(state, j, m + 1, np.diag([1, 1, *kick]), in_place=True)
    return state


def shot_seed(seed: int, shot_index: int) -> int:
    """Deterministic per-shot seed so parallel and serial runs agree."""
    return int(np.random.SeedSequence([seed, shot_index]).generate_state(1)[0])


def shot_seeds(seed: int, n: int) -> np.ndarray:
    """``shot_seed(seed, i)`` for i = 0..n-1, as a uint32 array.

    Above SHOT_SEED_LOOP_MAX shots the seeds come from one array pass over
    the entropy words ``[seed words..., i]`` of every shot."""
    if n <= SHOT_SEED_LOOP_MAX:
        return np.array([shot_seed(seed, i) for i in range(n)], dtype=np.uint32)
    seed_words, _ = _pcg.int_words(np.array([seed], dtype=object))
    entropy = np.concatenate([np.repeat(seed_words, n, axis=1),
                              np.arange(n, dtype=np.uint32)[None]])
    return _pcg.generate_state(entropy, 1)[0]


def run_final_state(config: QpeConfig) -> sv.QuantumState:
    """Prepared-kicked-transformed state for one experiment.

    With include_target_qubit the (m+1)th molecule is simulated explicitly in
    |1> and the kicks become true controlled-phase gates; the inverse QFT
    still acts on molecules 1..m only.
    """
    m, phi, mode = config.m, config.true_phase_phi, config.gate_mode
    if config.include_target_qubit:
        state = _controlled_kick_state(m, phi, _hadamard_gate(mode))
    else:
        state = apply_phase_kicks(prepare_register(m, mode), phi, m, mode)
    return inverse_qft(state, m, mode)


def readout_distribution(config: QpeConfig) -> OutcomeDistribution:
    """Exact readout distribution for a config, honoring the target-qubit flag."""
    return _readout(run_final_state(config), config.m)
