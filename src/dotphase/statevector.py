"""Dense state-vector core for a qubit register.

Basis convention: qubit 1 is the most significant bit of the basis index.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _flat
from ._flat import SPLIT_BLOCK
from .errors import (
    CapacityError,
    DimensionError,
    NumericalInvariantError,
    ValidationError,
)

MAX_QUBITS = 24
NORM_TOL = 1e-10
UNITARY_TOL = 1e-12
GENERATOR_ID = "numpy-pcg64"


@dataclass
class QuantumState:
    """Amplitude vector over ``num_qubits`` qubits."""

    # complex128, length 2**num_qubits
    amplitudes: np.ndarray

    def __post_init__(self):
        # every kernel writes the amplitudes as C-contiguous 16-byte complex
        # runs: a buffer that is not one, or is read-only, is copied here,
        # once; any other stays the caller's, and every gate writes it
        self.amplitudes = np.require(self.amplitudes, np.complex128, ["C", "W"])
        if self.amplitudes.ndim != 1:
            raise DimensionError(
                f"amplitudes must be one state, a 1-D array, got "
                f"{self.amplitudes.ndim} dimensions")
        # the qubit count and every kernel's view of the amplitudes come from
        # this length
        size = len(self.amplitudes)
        if size < 2 or size & (size - 1):
            raise DimensionError(
                f"amplitude count must be a power of two of at least 2, got {size}")

    @property
    def num_qubits(self) -> int:
        return len(self.amplitudes).bit_length() - 1

    def norm(self) -> float:
        """Euclidean norm, in one pass over the real view of the amplitudes:
        faster than np.vdot."""
        real = self.amplitudes.view(np.float64)
        return math.sqrt(np.vecdot(real, real))

    def copy(self) -> "QuantumState":
        return QuantumState(self.amplitudes.copy())


@dataclass
class MeasurementRecord:
    """Outcome of measuring every qubit of the register."""

    bits: tuple  # qubit 1 first
    collapsed: QuantumState
    seed_used: int
    generator: str = GENERATOR_ID


def new_state(m: int) -> QuantumState:
    """All-zeros computational basis state on m qubits."""
    if not (1 <= m <= MAX_QUBITS):
        raise CapacityError(f"qubit count must be in [1, {MAX_QUBITS}], got {m}")
    amps = np.zeros(2 ** m, dtype=np.complex128)
    amps[0] = 1.0
    return QuantumState(amps)


class _Plan(NamedTuple):
    """What one distinct gate needs at every call: its unitarity deviation
    and the structured kernels' inputs."""

    dev: float
    # if the gate has one nonzero d per row, each off the diagonal a 1: its
    # cycles of slabs, each a pair (rows, factor). A cycle of two or more
    # slabs moves them, slab rows[i] taking slab rows[i + 1] (the last one
    # slab rows[0]), and its factor is None; a one-slab cycle scales its slab
    # by a diagonal d other than 1, given as the factor (d.real, 1j * d.imag).
    # Diagonal 1s are left out. Otherwise (a gate that would both move and
    # scale a slab runs dense) None
    cycles: tuple | None
    # pure-real and pure-imaginary multipliers of a diagonal 2x2 neither of
    # whose entries is 1 (the pattern pass's input), else None
    diagonal: np.ndarray | None


def _unitary_deviation(gate: np.ndarray) -> np.float64:
    """Largest modulus of an entry of g^H g - 1 for the square complex gate
    g, each entry of g^H g summed elementwise down the rows, with no BLAS
    product, so its bits do not depend on the host's BLAS kernels."""
    gram = (gate.conj()[:, :, None] * gate[:, None, :]).sum(axis=0)
    return np.abs(gram - np.eye(len(gate))).max()


# Entries of _gate_plan, the one bounded memo: its key is a gate's bytes, and
# every call brings new kicks. A warm exact-large round (24 estimates at m =
# 15-17) makes 294 new plans and 11 323 hits; the bound keeps a run of many
# distinct gates (random phases, pulse fits) from growing the process.
PLAN_CACHE = 256


@functools.lru_cache(maxsize=PLAN_CACHE)
def _gate_plan(raw: bytes, dim: int) -> _Plan:
    """Unitarity deviation and kernel plan of the ``dim`` x ``dim`` complex
    gate whose C-order bytes are ``raw``; read-only, shared by every call
    with the same gate."""
    gate = np.frombuffer(raw, dtype=np.complex128).reshape(dim, dim)
    dev = float(_unitary_deviation(gate))
    off = gate[~np.eye(dim, dtype=bool)]
    # a gate that would both move a slab and scale it runs dense
    if np.count_nonzero(gate) != dim or np.any((off != 0) & (off != 1)):
        return _Plan(dev, None, None)
    # column of each row's nonzero: a permutation in any gate that passes
    # the unitarity check, the only gates a kernel sees
    col = (np.flatnonzero(gate) % dim).tolist()
    # pure-real and pure-imaginary multipliers of the diagonal entries, one
    # row each: _flat._product's factors
    entries = gate.diagonal()
    split = np.zeros((2, dim), dtype=np.complex128)
    split[0].real, split[1].imag = entries.real, entries.imag
    split.flags.writeable = False
    cycles, seen = [], set()
    for start in range(dim):
        rows, row = [], start
        while row not in seen:
            seen.add(row)
            rows.append(row)
            row = col[row]
        # a start on an earlier cycle gives none; a diagonal 1 needs none.
        # Factors are numpy scalars, which a ufunc takes faster than Python ones
        if len(rows) > 1:
            cycles.append((tuple(rows), None))
        elif rows and gate[start, start] != 1:
            cycles.append(((start,), (split[0, start], split[1, start])))
    # a diagonal 2x2 neither of whose entries is 1 has two one-slab cycles
    diagonal = split if dim == 2 and len(cycles) == 2 else None
    return _Plan(dev, tuple(cycles), diagonal)


class _Layout(NamedTuple):
    """What every call on one axis set of one qubit count needs."""

    # the flat amplitudes as (L, 2, R) for one axis or (L, 2, M, 2, R) for
    # two, M left out where it is 1: L the factors above the first gate axis,
    # and R the run of contiguous amplitudes below the last
    shape: tuple
    # one run of R amplitudes as a single item, whose copies move bytes
    item: np.dtype
    # index into that view of each slab, the gate axes fixed to a gate
    # index's bits (first axis most significant). None if fewer than two
    # other factors are left
    slabs: tuple | None
    # the view's axes as the dense kernel transposes it, gate axes first in
    # the order of ``axes``, and the columns of each of the blocks
    # ``_flat._column_blocks`` cuts: SPLIT_BLOCK / 2^k, or where slabs is
    # None all of them, so that one block holds the state
    order: tuple
    cols: int


@functools.cache
def _layout(ndim: int, axes: tuple) -> _Layout:
    """Read-only layout of a gate on the factors ``axes`` of a ``(2,) * ndim``
    tensor, shared by every call with the same key: n^2 keys on n qubits."""
    k = len(axes)
    ends = sorted(axes)
    run = 2 ** (ndim - 1 - ends[-1])
    lead = 2 ** ends[0]
    # the view's axis of each gate axis, in the order of ``axes``
    if k == 1:
        shape, places = (lead, 2, run), (1,)
    elif ends[1] == ends[0] + 1:
        shape, places = (lead, 2, 2, run), (1, 2)
    else:
        shape, places = (lead, 2, 2 ** (ends[1] - ends[0] - 1), 2, run), (1, 3)
    places = [places[ends.index(axis)] for axis in axes]
    order = (*places, *(a for a in range(len(shape)) if a not in places))
    slabs, cols = None, 2 ** (ndim - k)
    if ndim - k >= 2:
        cols = SPLIT_BLOCK >> k
        slabs = []
        for c in range(2 ** k):
            index = [slice(None)] * (len(shape) - 1)
            for pos, place in enumerate(places):
                index[place] = (c >> (k - 1 - pos)) & 1
            slabs.append(tuple(index))
        slabs = tuple(slabs)
    item = np.dtype((np.void, 16 * run))
    return _Layout(shape, item, slabs, order, cols)


def _check_norm(state: QuantumState) -> QuantumState:
    """``state``, once it has unit norm."""
    norm = state.norm()
    # written so that a NaN norm fails too
    if not abs(norm - 1.0) <= NORM_TOL:
        raise NumericalInvariantError(f"state norm drifted to {norm:.15f}")
    return state


def _qubit_axis(state: QuantumState, qubit_index: int) -> int:
    if not (1 <= qubit_index <= state.num_qubits):
        raise DimensionError(
            f"qubit index {qubit_index} out of range 1..{state.num_qubits}"
        )
    return qubit_index - 1


def _apply(state: QuantumState, axes: list, gate: np.ndarray) -> QuantumState:
    """Apply a unitary on the tensor factors ``axes`` (its row order),
    writing ``state``'s amplitudes, and return ``state``.

    A gate that leaves fewer than two other factors, has more than one
    nonzero entry in a row, or has an off-diagonal entry other than 0 and 1
    (one that would both move a slab and scale it, such as Y or a phased
    3-cycle) goes to ``_flat._apply_dense``, which makes
    ``np.tensordot``'s BLAS call block by block. Any other gate (diagonal,
    CNOT, X, a 0/1 permutation with phases on its fixed points) goes to a
    structured kernel: ``_apply_monomial`` scales the slab of each diagonal
    entry other than 1 and moves the slabs of each longer cycle on the flat
    amplitudes, never both, leaving a slab whose entry is a diagonal 1
    untouched, so an ideal phase gate touches half the state; a diagonal
    one-qubit gate neither of whose entries is 1 multiplies the whole state
    by a pattern of them instead (``_apply_pattern``) where its axis leaves
    runs shorter than SPLIT_BLOCK. Every kernel allocates at most three
    blocks besides the state.
    All give the same bits: BLAS rounds each product once and adds exact
    zeros, as the split products of ``_flat._product`` do. The verdict and the kernels'
    inputs are worked out once per distinct gate (``_gate_plan``) and axis
    set (``_layout``). The result's norm is checked; a gate that fails a
    check before it runs leaves the state as it was.
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
    layout = _layout(state.num_qubits, tuple(axes))
    amps = state.amplitudes
    if layout.slabs is None or plan.cycles is None:
        _flat._apply_dense(amps, layout, gate)
    elif plan.diagonal is not None and layout.shape[-1] < SPLIT_BLOCK:
        _flat._apply_pattern(amps, layout.shape[-1], plan.diagonal)
    else:
        _flat._apply_monomial(amps, layout, plan.cycles)
    return _check_norm(state)


def apply_1q(state: QuantumState, qubit_index: int, gate: np.ndarray) -> QuantumState:
    """Apply a 2x2 unitary to the indexed qubit (1-based), writing
    ``state`` and returning it: pass ``state.copy()`` to keep a state."""
    return _apply(state, [_qubit_axis(state, qubit_index)], gate)


def apply_2q(
    state: QuantumState, control_index: int, target_index: int, gate: np.ndarray
) -> QuantumState:
    """Apply a 4x4 unitary to the ordered (control, target) qubit pair,
    writing ``state`` as ``apply_1q`` does."""
    if control_index == target_index:
        raise DimensionError("control and target must be distinct")
    axes = [_qubit_axis(state, control_index), _qubit_axis(state, target_index)]
    return _apply(state, axes, gate)


def apply_qubit_cavity(
    state: QuantumState, qubit_index: int, gate: np.ndarray
) -> QuantumState:
    """Apply a 4x4 unitary on (qubit, cavity), basis order {g0, g1, e0, e1}.

    The cavity, truncated to {0, 1}, is the register's last qubit, so m
    molecules and their cavity are ``new_state(m + 1)``. A call is one gate:
    it goes to ``_apply`` itself, not through ``apply_2q``, and writes
    ``state`` as ``apply_1q`` does."""
    cavity = state.num_qubits
    if qubit_index == cavity:
        raise DimensionError(f"qubit {qubit_index} is the cavity, the last qubit")
    axes = [_qubit_axis(state, qubit_index), _qubit_axis(state, cavity)]
    return _apply(state, axes, gate)


def probabilities(state: QuantumState) -> np.ndarray:
    """Born-rule probability for every basis state."""
    probs = np.abs(state.amplitudes) ** 2
    total = probs.sum()
    # written so that a NaN sum fails too
    if not abs(total - 1.0) <= NORM_TOL:
        raise NumericalInvariantError(f"probabilities sum to {total:.15f}")
    return probs


def register_probabilities(state: QuantumState, m: int) -> np.ndarray:
    """Born-rule marginal of qubits 1..m, indexed with qubit 1 as the most
    significant bit; later qubits are summed out."""
    if not (1 <= m <= state.num_qubits):
        raise DimensionError(f"register size {m} out of range 1..{state.num_qubits}")
    probs = probabilities(state)
    return probs.reshape(2 ** m, -1).sum(axis=-1)


def sample_uniforms(probs: np.ndarray, uniforms) -> np.ndarray:
    """The outcome index of each uniform in [0, 1), drawn from ``probs``
    after normalising it.

    Each uniform is looked up in a CDF built once: the same index, bit for
    bit, that numpy's ``Generator.choice`` draws with ``p=probs /
    probs.sum()`` from a generator whose next ``random()`` is that uniform.
    """
    probs = np.asarray(probs, dtype=np.float64)
    total = probs.sum()
    # written so that NaN entries fail too
    if not (np.all(probs >= 0.0) and 0.0 < total < np.inf):
        raise NumericalInvariantError(f"cannot sample: bad probabilities (sum {total})")
    cdf = np.cumsum(probs / total)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, uniforms, side="right")


def measure_all(state: QuantumState, seed: int) -> MeasurementRecord:
    """Measure every qubit, collapsing the state onto one basis state.

    The outcome is drawn from the Born-rule probabilities with the first
    uniform of a seeded PCG64 stream, so identical seeds give identical
    records.
    """
    m = state.num_qubits
    uniform = np.random.default_rng(seed).random()
    outcome = int(sample_uniforms(probabilities(state), [uniform])[0])
    bits = tuple((outcome >> (m - 1 - i)) & 1 for i in range(m))

    collapsed_amps = np.zeros_like(state.amplitudes)
    collapsed_amps[outcome] = state.amplitudes[outcome]
    collapsed_amps /= np.linalg.norm(collapsed_amps)
    return MeasurementRecord(bits=bits, collapsed=QuantumState(collapsed_amps),
                             seed_used=seed)


def overlap(a: QuantumState, b: QuantumState) -> complex:
    """Inner product <a|b>."""
    if a.amplitudes.shape != b.amplitudes.shape:
        raise DimensionError("states have different shapes")
    return complex(np.vdot(a.amplitudes, b.amplitudes))
