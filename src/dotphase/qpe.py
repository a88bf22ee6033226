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
import operator
from dataclasses import dataclass

import numpy as np

from . import _pcg
from . import statevector as sv
from .errors import (
    BoundUndefinedError,
    CapacityError,
    DimensionError,
    DomainError,
    NumericalInvariantError,
    ValidationError,
    finite_result,
)
# benchmarks/spans.py patches the last three names here, so all stay imported
from .pulses import (HADAMARD_ENTRIES, GateMode, hadamard_pulse_params,
                     phase_gate_pulse_params, single_pulse_unitary)

MAX_REGISTER = 20
# Runs of up to this many shots take one shot_seed call per shot, larger
# runs shot_uniforms' array pass, which gives the same seeds. No crossover:
# the array pass wins from about 10 shots (at 50: about 75 against 360 us).
# The loop is kept only so that a tracer that wraps shot_seed, as
# benchmarks/spans.py does, counts one call per shot of a small run.
SHOT_SEED_LOOP_MAX = 64
# Readout chances of one tree call in sweep_successes (0.5 MiB of floats):
# the distributions of batch_size(*sizes) phases at every register size of
# the sweep, so every level serves them all at once; one phase a call once
# the sizes' 2^m sum past it.
BATCH_AMPLITUDES = 2 ** 16
# Floats of each array a level of the tree works on at a time
# (128 KiB): the branches of a larger level are streamed through blocks of
# this size, so that beside the distribution and the branch factors only a
# few blocks are alive.
TREE_BLOCK = 2 ** 14

IDEAL_HADAMARD = np.array(HADAMARD_ENTRIES, dtype=np.complex128).reshape(2, 2)
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


@dataclass
class PhaseEstimate:
    bits: tuple  # phi_1 ... phi_m, already reversed from register order
    estimated_phase: float
    eta_percent: float


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
    power, so for some phases the gate drifts past UNITARY_TOL from the
    power 2^13 (m = 14) on and the run stops with "gate is not unitary": a
    ``--shots 0`` estimate at that kick on the statevector, a sampled
    estimate or a sweep at the first such kick of the tree, which it names."""
    powers = np.asarray(powers)[:, None]
    if mode == GateMode.IDEAL:
        out = np.ones((len(powers), len(thetas), 2), dtype=np.complex128)
        out[..., 1] = np.exp(1j * powers * np.asarray(thetas, dtype=float))
        return out
    base = np.array([single_pulse_unitary(phase_gate_pulse_params(t)).diagonal()
                     for t in thetas]).reshape(-1, 2)
    return np.power(base, powers[..., None])


@functools.cache
def _phase_gate(theta: float, mode: GateMode) -> np.ndarray:
    """theta phase gate of the inverse QFT.

    Memoised: the inverse QFT asks for the same few angles, +-pi/2^k, again
    and again. Every caller shares the cached array, so it is read-only."""
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

    The entries of all m kicks come from one ``_phase_diagonals`` call.
    Every kick writes ``state``, which is returned."""
    kicks = _phase_diagonals([phi], gate_mode, _kick_powers(m))[:, 0]
    for j, entries in enumerate(kicks, start=1):
        state = sv.apply_1q(state, j, np.diag(entries))
    return state


def _kick_powers(m: int) -> list[int]:
    """2^{m-j}: the power of the phase gate that kicks molecule j = 1..m."""
    return [2 ** (m - j) for j in range(1, m + 1)]


def sequence_unitary(theta: float) -> np.ndarray:
    """4x4 composite of the five-gate sequence on the ordered (j, k) pair
    for a finite ``theta``: column c is what ``_apply_sequence`` (ideal
    mode) makes of basis state c of a two-qubit register."""
    if not math.isfinite(theta):
        raise ValidationError("theta must be finite")
    basis = np.eye(4, dtype=np.complex128)
    return np.column_stack([
        _apply_sequence(sv.QuantumState(basis[c]), 1, 2, theta,
                        GateMode.IDEAL).amplitudes
        for c in range(4)])


def _apply_sequence(
    state: sv.QuantumState, j: int, k: int, theta: float, mode: GateMode
) -> sv.QuantumState:
    """The paper's five gates on the pair (j, k), in time order: P(-theta)
    on j, CNOT(j -> k), P(theta) on k, CNOT(j -> k), P(-theta) on k, with
    P(x) = diag(1, e^{ix}) the mode's ``_phase_gate``. Each writes
    ``state``."""
    minus, plus = _phase_gate(-theta, mode), _phase_gate(theta, mode)
    state = sv.apply_1q(state, j, minus)
    state = sv.apply_2q(state, j, k, CNOT)
    state = sv.apply_1q(state, k, plus)
    state = sv.apply_2q(state, j, k, CNOT)
    return sv.apply_1q(state, k, minus)


def inverse_qft(
    state: sv.QuantumState, m: int, gate_mode: GateMode = GateMode.IDEAL
) -> sv.QuantumState:
    """Inverse-QFT schedule: Hadamard on molecule 1, then for each molecule
    r = 2..m the controlled-phase sequences U_{s,r} (theta = pi / 2^{r-s+1})
    followed by a Hadamard on r. Every gate writes ``state``, which is
    returned."""
    h = _hadamard_gate(gate_mode)
    state = sv.apply_1q(state, 1, h)
    for r in range(2, m + 1):
        for s in range(1, r):
            state = _apply_sequence(state, s, r, math.pi / 2 ** (r - s + 1),
                                    gate_mode)
        state = sv.apply_1q(state, r, h)
    return state


def estimate_from_bits(register_bits: tuple, true_phase: float) -> PhaseEstimate:
    """Turn register-order detector bits, one at least, into a phase estimate."""
    if not register_bits:
        raise ValidationError("need at least one register bit")
    if not set(register_bits) <= {0, 1}:
        raise ValidationError(f"register bits must be 0 or 1, got {tuple(register_bits)}")
    j = sum(int(b) << i for i, b in enumerate(register_bits))
    estimates, etas = readout_estimates(np.array([j]), len(register_bits), true_phase)
    return PhaseEstimate(tuple(reversed(register_bits)), float(estimates[0]), float(etas[0]))


def readout_estimates(readouts: np.ndarray, m: int, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """The estimates 2*pi*j/2^m of the ascending readout integers j and
    their etas, estimate / phi * 100. The largest eta is judged first, in
    Python floats, so no array arithmetic overflows."""
    estimates = math.tau * readouts / 2 ** m
    finite_result("eta_percent", lambda: float(estimates[-1]) / phi * 100.0)
    return estimates, estimates / phi * 100.0


def measure_and_estimate(
    state: sv.QuantumState, m: int, true_phase: float, seed: int
) -> PhaseEstimate:
    """Measure molecules 1..m of ``state``, a register of m molecules or
    more, and read the result out in reversed order."""
    if check_register(m) > state.num_qubits:
        raise DimensionError(f"register size {m} out of range 1..{state.num_qubits}")
    # a state that carries the target molecule has one bit more, its last
    return estimate_from_bits(sv.measure_all(state, seed).bits[:m], true_phase)


def exact_distribution(
    m: int, phi: float, gate_mode: GateMode = GateMode.IDEAL
) -> np.ndarray:
    """Full readout distribution of the protocol on the statevector, indexed
    by readout integer j, no sampling: ``readout_distribution`` without the
    target molecule. ``tree_distributions`` gives the same distribution to
    within rounding in O(2^m) work, and ``sweep`` and a sampled ``estimate``
    take theirs from it."""
    return readout_distribution(m, phi, gate_mode)


def batch_size(*sizes: int) -> int:
    """Phases that sweep_successes hands one tree call that grows the
    register sizes ``sizes`` together: as many as fit their distributions,
    P * sum(2^m), in BATCH_AMPLITUDES floats, one at least."""
    return max(1, BATCH_AMPLITUDES // sum(2 ** m for m in sizes))


def tree_distributions(
    m: int, phis, gate_mode: GateMode = GateMode.IDEAL, include_target: bool = False
) -> np.ndarray:
    """``readout_distribution(m, phi, gate_mode, include_target)`` for each
    phase of ``phis`` to within rounding, one row per phase, in O(2^m) work
    per phase: the one-register case of ``_shared_tree``, the
    measure-as-you-go tree of Griffiths & Niu (PRL 76, 3228, 1996). With
    ``include_target`` the kicks are ideal, since the target in |1> turns
    each into an ideal controlled phase on its molecule, and the Hadamard
    and phase gates stay the mode's, as in ``_controlled_kick_state``. It
    judges its gates in the statevector path's order, so of one phase its
    verdict is the statevector's text followed by the gate's name; of
    several, the kicks are judged molecule-major. Callers bound
    ``len(phis) * 2^m``, as sweep_successes does."""
    kick_mode = GateMode.IDEAL if include_target else gate_mode
    return _shared_tree([m], phis, gate_mode, kick_mode)[0]


def _shared_tree(registers, phis, gate_mode: GateMode,
                 kick_mode: GateMode) -> list[np.ndarray]:
    """``tree_distributions(m, phis, gate_mode)`` of each register size m of
    the ascending, distinct ``registers``, from one tree, its kicks those of
    ``kick_mode``.

    Molecule r is read right after its inverse-QFT Hadamard, since every
    later gate on it is diagonal in its basis. On each string of earlier
    bits (a branch), its amplitudes there are k_c0 f0 + k_c1 f1 for Hadamard
    row c: k is the kick entry times the Hadamard column and row, f0 and f1
    the unit phases the earlier bits put on |0> and |1>. So the chance of
    bit c is A_c + Re(B_c g), A_c = |k_c0|^2 + |k_c1|^2 and B_c = 2 k_c0
    conj(k_c1) per (phase, molecule), g = f0 conj(f1) the branch factor
    (``_branch_factors``). The chances (``_branch_probabilities``) grow the
    distribution by r's bit as its new most significant bit.

    So level r serves every register with m >= r: the stack's rows are
    (register, phase) pairs in ascending register order, and a register's
    rows leave it after level m. Molecule r's kick in register m is row
    top - m + r - 1 of the largest register's kicks. The kicks and the
    Hadamard (``_tree_gates``) serve all registers, as do the branch
    factors, which every call shares.

    Every entry comes from the statevector path's own sources, and is the
    same float operations on the same operands as in a tree of its register
    alone, so each register's rows have the bytes ``tree_distributions``
    gives it alone. Each complex product is written out as float products
    and sums on separate real and imaginary arrays, with no BLAS and no
    complex or transcendental ufunc on arrays, so the bits do not depend on
    the host's SIMD level or BLAS kernels. ``_tree_gates`` judges the
    Hadamard and the kicks, and ``_branch_factors`` each level's P(+-theta)
    when first reached, so a verdict names the first failing gate of the
    largest register's tree. Each row's sum must be within
    NORM_TOL of 1 (``_require_ones``); a failure names its phase's row in
    ``phis``. A branch's p0 + p1 would not see a drifting g, since B_0 +
    B_1 = 0, so ``_branch_factors`` judges |g|. A level's branches are
    streamed through blocks of TREE_BLOCK floats."""
    for m in registers:
        check_register(m)
    if len(phis) == 0:
        return [np.empty((0, 2 ** m)) for m in registers]
    top = registers[-1]
    h, kicks = _tree_gates(top, phis, gate_mode, kick_mode)
    # each kick's amplitude of |comp> before its branch factors, its entry
    # times h[comp, 0], times h[c, comp] of Hadamard row c: (top, P, c, comp)
    cr, ci = _mul(kicks.real, kicks.imag, h.real[:, 0], h.imag[:, 0])
    kr, ki = _mul(cr[:, :, None], ci[:, :, None], h.real, h.imag)
    # A_c, Re B_c and Im B_c of each (molecule, phase, c), one array
    terms = np.empty((3,) + kr.shape[:-1])
    terms[0] = kr[..., 0] * kr[..., 0] + ki[..., 0] * ki[..., 0]
    terms[0] += kr[..., 1] * kr[..., 1] + ki[..., 1] * ki[..., 1]
    terms[1:] = _mul(kr[..., 0], ki[..., 0], kr[..., 1], -ki[..., 1])
    terms[1:] *= 2.0
    growing = list(registers)
    dist = np.ones((len(growing) * len(phis), 1))
    done = []
    for r in range(1, top + 1):
        gr, gi = _branch_factors(r, gate_mode)
        # molecule r's terms, one row per (register, phase)
        powers = [top - m + r - 1 for m in growing]
        a, br, bi = terms[:, powers].reshape(3, -1, 2, 1)
        grown = np.empty((len(dist), 2, len(gr)))
        # r's bit is the distribution's new most significant bit
        step = max(1, TREE_BLOCK // (2 * len(dist)))
        for start in range(0, len(gr), step):
            cut = slice(start, start + step)
            probs = _branch_probabilities(a, br, bi, gr[cut], gi[cut])
            np.multiply(probs, dist[:, None, cut], out=grown[:, :, cut])
        dist = grown.reshape(len(dist), -1)
        if growing[0] == r:
            # the smallest register is complete: its rows leave the stack
            growing.pop(0)
            finished, dist = dist[:len(phis)], dist[len(phis):]
            _require_ones(finished.sum(axis=-1, keepdims=True))
            done.append(finished)
    return done


@functools.cache
def _branch_factors(r: int, gate_mode: GateMode):
    """``(gr, gi)``, the branch factors g = f0 conj(f1) of tree level r,
    one per branch. Per earlier molecule s, molecule 1's bit the least
    significant, f is the diagonal of P(-theta) X^b P(theta) X^b chosen by
    s's bit b, theta = pi / 2^{r-s+1} (the phase gate s puts on itself
    changes no chance). They depend on neither the phase nor the register
    size, and level r's are level r - 1's with a new least significant bit
    at angle theta = pi / 2^r: one outer product a level. Its P(-theta) and
    P(theta) (``_phase_gate``) are judged here, after level r - 1's, in the
    order the inverse QFT first applies them. Each |g|^2 must be within
    NORM_TOL of 1.

    Memoised: every tree call shares them, 2^{m+1} floats per mode for
    levels 1..m (16 MiB at m = 20), so they are read-only."""
    if r == 1:
        gr, gi = np.ones(1), np.zeros(1)
    else:
        gr, gi = _branch_factors(r - 1, gate_mode)
        minus, plus = (_phase_gate(s * math.pi / 2 ** r, gate_mode).diagonal() for s in (-1, 1))
        _require_unitary(_diagonal_deviation(np.array([minus, plus])),
                         lambda i: f"P({'-+'[i]}pi/2^{r})")
        # the new bit b puts q0 p_b on f0 and q1 p_{1-b} on f1, p = P(theta)
        # and q = P(-theta), so g gains (q0 p_b) conj(q1 p_{1-b})
        xr, xi = _mul(minus.real[0], minus.imag[0], plus.real, plus.imag)
        yr, yi = _mul(minus.real[1], minus.imag[1], plus.real[::-1], plus.imag[::-1])
        wr, wi = _mul(xr, xi, yr, -yi)
        gr, gi = (part.reshape(-1) for part in _mul(gr[:, None], gi[:, None], wr, wi))
    squares = gr * gr + gi * gi
    # written so that a NaN fails too
    ok = np.abs(squares - 1.0) <= sv.NORM_TOL
    if not ok.all():
        raise NumericalInvariantError(
            f"branch factor of molecule {r} has |g|^2 = {squares[np.argmin(ok)]:.15f}")
    gr.flags.writeable = gi.flags.writeable = False
    return gr, gi


def _tree_gates(m: int, phis, gate_mode: GateMode, kick_mode: GateMode):
    """The Hadamard of ``gate_mode`` and the ``(m, P, 2)`` kick diagonals of
    ``kick_mode``, molecule 1's first, of a tree of register size ``m`` over
    ``phis``, once each is unitary: the Hadamard's deviation is the
    statevector's own and each kick's has its bits (``_diagonal_deviation``).
    The Hadamard is judged first, then the kicks molecule-major, each named
    by its power and phase; ``_branch_factors`` judges the phase gates."""
    h = _hadamard_gate(gate_mode)
    kicks = _phase_diagonals(phis, kick_mode, _kick_powers(m))
    _require_unitary(sv._unitary_deviation(h), lambda: "Hadamard")
    _require_unitary(_diagonal_deviation(kicks),
                     lambda j, p: f"kick of power 2^{m - 1 - j} at phi = {float(phis[p])!r}")
    return h, kicks


def _require_unitary(devs: np.ndarray, name) -> None:
    """Raise the statevector's verdict on the first of ``devs`` past
    UNITARY_TOL, followed by ``name(*i)``, the name of the gate at index i."""
    # written so that a NaN deviation fails too
    ok = devs <= sv.UNITARY_TOL
    if not ok.all():
        first = np.unravel_index(np.argmin(ok), ok.shape)
        raise ValidationError(
            f"gate is not unitary (deviation {devs[first]:.3e}): {name(*first)}")


def _diagonal_deviation(d: np.ndarray) -> np.ndarray:
    """``statevector._unitary_deviation`` of the gate diag(d) for each
    diagonal of the ``(..., 2)`` stack ``d``, bit for bit: max |conj(d) d - 1|."""
    return np.abs(d.conj() * d - 1.0).max(axis=-1)


def _mul(ar, ai, br, bi):
    """Real and imaginary parts of (ar + i ai)(br + i bi) for broadcast
    float arrays, written out as float products and sums, which round alike
    on every host."""
    return ar * br - ai * bi, ar * bi + ai * br


def _branch_probabilities(a, br, bi, gr, gi) -> np.ndarray:
    """Chances ``(P, c, B)``, A_c + Re(B_c g), for terms ``a``, ``br + i
    bi`` of shape ``(P, c, 1)`` and branch factors ``gr + i gi`` of shape
    ``(B,)``, clamped at 0, below which a chance of 0 can round."""
    probs = br * gr
    probs -= bi * gi
    probs += a
    return np.maximum(probs, 0.0, out=probs)


def _require_ones(values: np.ndarray) -> None:
    """Raise unless each of ``values``, the row sums of a tree call's
    distributions whose axis -2 runs over its phases, is within NORM_TOL of
    1, naming the first sum that is not and its phase's row."""
    # written so that a NaN fails too
    ok = np.abs(values - 1.0) <= sv.NORM_TOL
    if not ok.all():
        first = np.unravel_index(np.argmin(ok), ok.shape)
        raise NumericalInvariantError(
            f"probabilities sum to {values[first]:.15f} in row {first[-2]} of the stack")


def _readout(state: sv.QuantumState, m: int) -> np.ndarray:
    """Distribution of the readout integer over molecules 1..m: the register
    marginal with its bit order reversed (molecule 1 holds the last bit)."""
    register = sv.register_probabilities(state, m)
    return register.reshape((2,) * m).transpose(range(m - 1, -1, -1)).reshape(-1)


def success_probability_bound(m: int, n: int) -> float:
    """Chance the m-bit estimate lands within 1/2^n: 1 - 1/(2^{m-n+1} - 4)."""
    _check_accuracy(n)
    if m <= n:
        raise DomainError(f"need m >= n + 2, got m={m}, n={n}")
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
    return sweep_successes([m], n, [phi], gate_mode)[0][0]


def sweep_successes(m_values, n: int, phis,
                    gate_mode: GateMode = GateMode.IDEAL) -> list[list[float]]:
    """``empirical_success(m, n, phi, gate_mode)`` of each phase of
    ``phis``, one list per entry m of ``m_values``, in their order, each
    list its own: the one batching of phases. The first phase whose
    largest kick angle, |phi| 2^(max m - 1), is not finite is rejected
    before any tree. Every call grows all the distinct sizes in one tree
    (``_shared_tree``), ``batch_size(*sizes)`` phases a call, so its
    distributions stay bounded however many phases there are. A verdict is
    that of the first failing batch's tree, and a row-sum verdict names its
    phase's row within that batch."""
    _check_accuracy(n)
    for m in m_values:
        if m < n:
            raise DomainError(f"need m >= n, got m={m}, n={n}")
        check_register(m)
    sizes = sorted(set(m_values))
    if not sizes:
        return []
    for phi in map(float, phis):
        # Python floats, so an overflow gives inf and no warning
        if not abs(phi) * 2 ** (sizes[-1] - 1) < math.inf:
            raise ValidationError(f"phase {phi!r} has no finite kick angle at m = {sizes[-1]}")
    per = batch_size(*sizes)
    masses: dict[int, list[float]] = {m: [] for m in sizes}
    for start in range(0, len(phis), per):
        batch = phis[start:start + per]
        for m, rows in zip(sizes, _shared_tree(sizes, batch, gate_mode, gate_mode)):
            masses[m] += window_masses(rows, n, batch)
    return [list(masses[m]) for m in m_values]


def window_mass(probs: np.ndarray, n: int, phi: float) -> float:
    """Mass of the readout distribution ``probs`` (over 2^m outcomes) within
    circular distance 1/2^n of phi, a finite phase."""
    _check_accuracy(n)
    if not math.isfinite(phi):
        raise ValidationError(f"phase must be finite, got {phi!r}")
    size = len(probs)
    d = circular_distance(np.arange(size) / size, (phi / math.tau) % 1.0)
    return float(probs[d < 0.5 ** n].sum())


def window_masses(rows: np.ndarray, n: int, phis) -> list[float]:
    """``window_mass`` of each row of ``rows``, one per phase of ``phis``,
    bit for bit: the arc from floor(x) - h + 1 to ceil(x) + h - 1, x = frac
    * 2^m and h = 2^{m-n} (1 for n > m), less each end window_mass leaves
    out, clamped to the circle; rounding moves no other index. Its slices,
    in the mask's order, keep the mask's sum. The first phase that is not
    finite is rejected as window_mass rejects it."""
    _check_accuracy(n)
    phis = np.asarray(phis, dtype=np.float64)
    finite = np.isfinite(phis)
    if not finite.all():
        raise ValidationError(f"phase must be finite, got {float(phis[~finite][0])!r}")
    size = rows.shape[1]
    fracs = (phis / math.tau) % 1.0
    x = fracs * size
    half = max(size >> n, 1)
    ends = np.stack((np.floor(x) - (half - 1), np.ceil(x) + (half - 1)), axis=1)
    inside = circular_distance((ends % size) / size, fracs[:, None]) < 0.5 ** n
    # an end left out moves the arc's first index up or its last one down
    ends += np.where(inside, 0.0, [1.0, -1.0])
    masses = []
    for row, (first, last) in zip(rows, ends.tolist()):
        a = int(first) % size
        b = a + min(int(last - first) + 1, size)
        arc = row[a:b] if b <= size else np.concatenate((row[:b - size], row[a:]))
        masses.append(float(arc.sum()))
    return masses


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
    state = sv.apply_1q(sv.new_state(m + 1), m + 1, flip)
    for q in range(1, m + 1):
        state = sv.apply_1q(state, q, h)
    kicks = _phase_diagonals([phi], GateMode.IDEAL, _kick_powers(m))[:, 0]
    for j, kick in enumerate(kicks, start=1):
        state = sv.apply_2q(state, j, m + 1, np.diag([1, 1, *kick]))
    return state


def shot_seed(seed: int, shot_index: int) -> int:
    """Deterministic per-shot seed so parallel and serial runs agree."""
    return int(np.random.SeedSequence([seed, shot_index]).generate_state(1)[0])


def shot_uniforms(seed: int, n: int) -> np.ndarray:
    """Shot i's uniform, the first ``default_rng(shot_seed(seed, i)).random()``,
    for i = 0..n-1. The run seed is checked here, for both paths.

    Above SHOT_SEED_LOOP_MAX shots the seeds come from one array pass over
    the entropy words ``[seed words..., i]``; the uniforms always do."""
    if (seed := operator.index(seed)) < 0:
        raise ValueError("expected non-negative integer")
    if n <= SHOT_SEED_LOOP_MAX:
        seeds = np.array([shot_seed(seed, i) for i in range(n)], dtype=np.uint32)
    else:
        entropy = np.array([*_pcg.int_words(seed), 0], dtype=np.uint32).repeat(n).reshape(-1, n)
        entropy[-1] = np.arange(n)
        seeds = _pcg.generate_state(entropy, 1)[0]
    return _pcg.first_uniforms(seeds)


def run_final_state(m: int, phi: float, gate_mode: GateMode = GateMode.IDEAL,
                    include_target: bool = False) -> sv.QuantumState:
    """Prepared-kicked-transformed state of one experiment.

    With include_target the (m+1)th molecule is simulated explicitly in
    |1> and the kicks become true controlled-phase gates; the inverse QFT
    still acts on molecules 1..m only.
    """
    check_register(m)
    check_phase(phi)
    if include_target:
        state = _controlled_kick_state(m, phi, _hadamard_gate(gate_mode))
    else:
        state = apply_phase_kicks(prepare_register(m, gate_mode), phi, m, gate_mode)
    return inverse_qft(state, m, gate_mode)


def readout_distribution(m: int, phi: float, gate_mode: GateMode = GateMode.IDEAL,
                         include_target: bool = False) -> np.ndarray:
    """Exact readout distribution of one experiment, indexed by readout
    integer j, honoring the target-qubit flag."""
    return _readout(run_final_state(m, phi, gate_mode, include_target), m)
