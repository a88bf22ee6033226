"""Dense state-vector core for a qubit register plus an optional cavity mode.

Basis convention: qubit 1 is the most significant bit of the basis index;
the cavity mode, when present, occupies the least significant position.
The cavity Fock space is truncated to {0, 1}.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

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
# A diagonal one-qubit gate whose axis leaves runs of 2 to LONG_RUN_MAX
# contiguous amplitudes in each slab takes _apply_long_run: numpy's cost per
# run makes such slabs slower than a pass over the whole state in long rows.
# The last axis (runs of 1) stays on the slabs, which numpy walks as one
# strided run.
LONG_RUN_MAX = 2 ** 10
# Largest block, in amplitudes, of the split complex product: its temporary
# stays in cache, and no gate allocates a second state besides its output.
# It is also the row length of the long-run pass, so at least
# 2 * LONG_RUN_MAX.
SPLIT_BLOCK = 2 ** 12
# Entries of each memo, _gate_plan (per distinct gate) and _layout (per
# state shape and axis set). An ideal sweep over m = 8-10 with 12 phases
# uses 140 gates and 136 layouts, and m = 5-10 uses 200 layouts; estimates
# at m = 15-17 use 409, so that memo refills, but building all 409 takes
# about 6 ms against about 300 ms per call. The bound keeps a run that makes
# many distinct gates (random phases, pulse fits) from growing the process.
PLAN_CACHE = 256


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
        # one pass over the amplitudes; np.linalg.norm takes two strided
        # passes, one over the real and one over the imaginary parts
        return math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real)

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


class _Plan(NamedTuple):
    """What one distinct gate needs at every call: its unitarity deviation
    and the structured kernels' inputs."""

    dev: float
    # (row, col, re, im) per nonzero that is not a diagonal 1, if the gate
    # has one nonzero per row; otherwise None
    entries: tuple | None
    # pure-real and pure-imaginary multipliers of a diagonal 2x2, else None
    diagonal: np.ndarray | None


@functools.lru_cache(maxsize=PLAN_CACHE)
def _gate_plan(raw: bytes, dim: int) -> _Plan:
    """Unitarity deviation and kernel plan of the ``dim`` x ``dim`` complex
    gate whose C-order bytes are ``raw``; read-only, shared by every call
    with the same gate."""
    gate = np.frombuffer(raw, dtype=np.complex128).reshape(dim, dim)
    dev = np.abs(gate.conj().T @ gate - np.eye(dim)).max()
    if np.count_nonzero(gate) != dim:
        return _Plan(dev, None, None)
    entries = []
    for row, col in zip(*np.nonzero(gate)):
        d = gate[row, col]
        if not (d == 1 and row == col):
            entries.append((int(row), int(col), d.real, complex(0.0, d.imag)))
    diagonal = None
    if dim == 2 and gate[0, 1] == 0:
        diagonal = np.zeros((2, 2), dtype=np.complex128)
        diagonal[0].real = gate.diagonal().real
        diagonal[1].imag = gate.diagonal().imag
        diagonal.flags.writeable = False
    return _Plan(dev, tuple(entries), diagonal)


class _Layout(NamedTuple):
    """What every call on one axis set of one state shape needs."""

    # np.tensordot's order of the state's axes, gate axes first, and its inverse
    order: tuple
    back: tuple
    # index of each slab, the gate axes fixed to a gate index's bits (first
    # axis most significant); None if fewer than two other factors are left
    slabs: tuple | None
    # for one axis with runs of 2 to LONG_RUN_MAX, 0 ``run`` times then 1
    # ``run`` times over a long-run row: which diagonal entry multiplies
    # each amplitude; else None
    run_index: np.ndarray | None


@functools.lru_cache(maxsize=PLAN_CACHE)
def _layout(ndim: int, axes: tuple) -> _Layout:
    """Read-only layout of a gate on the factors ``axes`` of a
    ``(2,) * ndim`` tensor, shared by every call with the same key."""
    k = len(axes)
    order = axes + tuple(a for a in range(ndim) if a not in axes)
    back = tuple(order.index(a) for a in range(ndim))
    slabs = run_index = None
    if ndim - k >= 2:
        slabs = []
        for c in range(2 ** k):
            index = [slice(None)] * ndim
            for pos, axis in enumerate(axes):
                index[axis] = (c >> (k - 1 - pos)) & 1
            slabs.append(tuple(index))
        slabs = tuple(slabs)
    run = 2 ** (ndim - 1 - axes[0])
    if k == 1 and 2 <= run <= LONG_RUN_MAX:
        tile = min(SPLIT_BLOCK, 2 ** ndim)
        run_index = np.repeat(np.arange(2, dtype=np.uint8), run)
        run_index = np.tile(run_index, tile // (2 * run))
        run_index.flags.writeable = False
    return _Layout(order, back, slabs, run_index)


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
    """Apply a unitary on the tensor factors ``axes`` (its row order).

    A gate that leaves fewer than two other factors, or has more than one
    nonzero entry in a row, is contracted by ``_apply_dense`` in the one
    BLAS call that ``np.tensordot`` makes: BLAS multiplies such small
    matrices with kernels that round otherwise than the split products. A
    diagonal one-qubit gate whose axis leaves runs of 2 to LONG_RUN_MAX
    amplitudes in each slab multiplies the whole state by a pattern
    (``_apply_long_run``). Any other gate with one nonzero per row
    (diagonal, CNOT, X) moves whole slabs (``_apply_monomial``). All give
    the same bits: BLAS rounds each product once and adds the exact zeros
    of the other terms, as the split products of ``_multiply_split`` do.
    The unitarity verdict and the kernels' inputs are worked out once per
    distinct gate (``_gate_plan``) and once per axis set (``_layout``).
    """
    dim = 2 ** len(axes)
    gate = np.asarray(gate, dtype=np.complex128)
    if gate.shape != (dim, dim):
        raise DimensionError(f"expected {dim}x{dim} gate, got shape {gate.shape}")
    # keyed on the gate's values, so a gate edited in place is judged anew
    plan = _gate_plan(gate.tobytes(), dim)
    # written so that a NaN deviation fails too
    if not plan.dev <= UNITARY_TOL:
        raise ValidationError(f"gate is not unitary (deviation {plan.dev:.3e})")
    psi = state.amplitudes.reshape((2,) * state.num_factors)
    layout = _layout(psi.ndim, tuple(axes))
    if layout.slabs is None or plan.entries is None:
        psi = _apply_dense(psi, layout.order, layout.back, gate)
    elif plan.diagonal is not None and layout.run_index is not None:
        psi = _apply_long_run(psi, layout.run_index, plan.diagonal)
    else:
        psi = _apply_monomial(psi, layout.slabs, plan.entries)
    # every path returns a new array, so the state can own it without a copy
    out = QuantumState(state.num_qubits, state.has_cavity, psi.reshape(-1))
    return _check_norm(out)


def _apply_monomial(psi: np.ndarray, slabs: tuple, entries: tuple) -> np.ndarray:
    """Unitary gate with a single nonzero ``d`` in each row, given as its
    ``(row, col, d.real, 1j * d.imag)`` entries other than diagonal 1s:
    output slab ``row`` is ``d`` times input slab ``col``. The output starts
    as a copy of the input, so only the listed slabs are rewritten. The
    product is taken as ``src * d.real + src * 1j * d.imag``, which rounds
    like BLAS's ``zgemm``; numpy's complex ``src * d`` differs from it in the
    last bit."""
    out = psi.copy()
    for row, col, re, im in entries:
        src, dst = psi[slabs[col]], out[slabs[row]]
        if re == 1 and im == 0:
            dst[...] = src
        else:
            _multiply_split(src, re, im, dst)
    return out


def _apply_long_run(
    psi: np.ndarray, run_index: np.ndarray, diagonal: np.ndarray
) -> np.ndarray:
    """Diagonal one-qubit gate ``diag(d)`` on the axis whose slabs hold runs
    of contiguous amplitudes: the whole state is multiplied, in rows of
    SPLIT_BLOCK amplitudes (or all of a smaller state), by the pattern
    ``run_index`` picks from ``d``. As in ``_apply_monomial`` the pattern is
    split into a pure-real and a pure-imaginary multiplier, the rows of
    ``diagonal``, so each component of the product is rounded once, as
    ``zgemm`` rounds it; an entry ``d == 1`` gives its amplitudes back up
    to the sign of an exact zero."""
    re, im = np.take(diagonal, run_index, axis=1)
    rows = psi.reshape(-1, run_index.size)
    out = np.empty_like(rows)
    _multiply_split(rows, re, im, out)
    return out.reshape(psi.shape)


def _apply_dense(
    psi: np.ndarray, order: tuple, back: tuple, gate: np.ndarray
) -> np.ndarray:
    """Contract the complex ``gate`` with the factors ``order`` puts first:
    the ``np.dot`` call that ``np.tensordot`` makes, on the same operands,
    without its argument handling. Those are the gate in the caller's
    layout, which BLAS may read transposed (and then, as a matrix-vector
    product, round otherwise than a copy), and the state reordered by
    ``order``, flattened to ``(2^k, rest)``. That copy is freed before the
    result is reordered back by ``back`` into a C-contiguous array, so no
    more than two state-sized temporaries coexist."""
    out = np.dot(gate, psi.transpose(order).reshape(len(gate), -1))
    return np.ascontiguousarray(out.reshape(psi.shape).transpose(back))


def _multiply_split(src: np.ndarray, re, im, dst: np.ndarray) -> None:
    """``dst = src * re + src * im`` with ``re`` pure real and ``im`` pure
    imaginary, block by block along the leading axes of ``src``: no block,
    and so no temporary, holds more than SPLIT_BLOCK amplitudes, where a
    full-size product would make one as large as ``src``."""
    per = src.size // src.shape[0]
    if per > SPLIT_BLOCK:
        for s, d in zip(src, dst):
            _multiply_split(s, re, im, d)
        return
    step = SPLIT_BLOCK // per
    for i in range(0, src.shape[0], step):
        s, d = src[i:i + step], dst[i:i + step]
        np.multiply(s, re, out=d)
        d += s * im


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
