"""Dense state-vector core for a qubit register.

Basis convention: qubit 1 is the most significant bit of the basis index.

A state may also hold a stack of P states of the same size, as a
``(P, 2^m)`` amplitude array: every gate acts on each row, and every row
must keep its own unit norm.
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
# Largest block, in amplitudes, of the split complex product and of a slab
# rotation: their temporaries stay in cache, and a diagonal or permutation
# gate allocates no state-sized array but the one copy of a state it may not
# overwrite. It is also the row length of the long-run pass, so at least
# 2 * LONG_RUN_MAX.
SPLIT_BLOCK = 2 ** 12
# Entries of each memo, _gate_plan (per distinct gate) and _layout (per
# state shape and axis set). An ideal sweep over m = 8-10 with 12 phases
# makes 626 gate calls, each on one stack of all 12 phases: 599 through
# _apply with 20 distinct gates, and 27 kicks (one per molecule, through
# apply_1q_diagonals), which judge their diagonals row by row and plan
# none; they use 136 layouts. m = 5-10 makes 910 calls with 200 layouts,
# and the same 20 gates. Estimates at m = 15-17 use 409 layouts, so that
# memo refills, but the 393 layouts a 24-call round of them rebuilds take
# about 3 ms against about 60 ms per call. The bound keeps a run that makes
# many distinct gates (random phases, pulse fits) from growing the process.
PLAN_CACHE = 256


@dataclass
class QuantumState:
    """Amplitude vector over ``num_qubits`` qubits, or a stack of them (see
    the module docstring)."""

    # complex128, length 2**num_qubits; (P, that) for a stack
    amplitudes: np.ndarray

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.shape[-1].bit_length() - 1

    def norm(self) -> float:
        """Norm of a single state (of a stack, the root of its rows'
        squared norms summed)."""
        return math.sqrt(_squared_norms(self.amplitudes).sum())

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
    # if the gate has one nonzero d per row: its cycles of slabs, each a pair
    # (rows, factors) in which slab rows[i] becomes factors[i] times slab
    # rows[i + 1] (the last one times slab rows[0]), a factor being
    # (d.real, 1j * d.imag), or None for d == 1; diagonal 1s are left out.
    # Otherwise None
    cycles: tuple | None
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
    # column of each row's nonzero: a permutation in any gate that passes
    # the unitarity check, the only gates a kernel sees
    col = (np.flatnonzero(gate) % dim).tolist()
    cycles, seen = [], set()
    for start in range(dim):
        rows, factors, row = [], [], start
        while row not in seen:
            seen.add(row)
            d = complex(gate[row, col[row]])
            rows.append(row)
            factors.append(None if d == 1 else (d.real, complex(0.0, d.imag)))
            row = col[row]
        # a start on an earlier cycle gives none; a diagonal 1 needs none
        if rows and factors != [None]:
            cycles.append((tuple(rows), tuple(factors)))
    diagonal = None
    if dim == 2 and gate[0, 1] == 0:
        diagonal = np.zeros((2, 2), dtype=np.complex128)
        diagonal[0].real = gate.diagonal().real
        diagonal[1].imag = gate.diagonal().imag
        diagonal.flags.writeable = False
    return _Plan(dev, tuple(cycles), diagonal)


def _diagonal_deviations(entries: np.ndarray) -> np.ndarray:
    """Unitarity deviation of ``diag(entries[p])`` for each row ``p``: the
    diagonal of g^H g - 1, whose entries are rounded as the matrix product
    of ``_gate_plan`` rounds them, so each equals that gate's plan ``dev``
    bit for bit."""
    return np.abs(entries.conj() * entries - 1.0).max(axis=1)


class _Layout(NamedTuple):
    """What every call on one axis set of one state shape needs."""

    # np.tensordot's order of the state's axes, gate axes first, and its inverse
    order: tuple
    back: tuple
    # index of each slab, the gate axes fixed to a gate index's bits (first
    # axis most significant); it starts at the first gate axis, after a
    # ``...`` that covers the axes before it and a stack's axis (numpy
    # takes a short index faster). None if fewer than two other factors
    # are left
    slabs: tuple | None
    # for one axis with runs of 2 to LONG_RUN_MAX, 0 ``run`` times then 1
    # ``run`` times over a long-run row: which diagonal entry multiplies
    # each amplitude; else None
    run_index: np.ndarray | None


@functools.lru_cache(maxsize=PLAN_CACHE)
def _layout(ndim: int, axes: tuple) -> _Layout:
    """Read-only layout of a gate on the factors ``axes`` of a
    ``(2,) * ndim`` tensor or a stack of them, shared by every call with
    the same key."""
    k = len(axes)
    order = axes + tuple(a for a in range(ndim) if a not in axes)
    back = tuple(order.index(a) for a in range(ndim))
    slabs = run_index = None
    if ndim - k >= 2:
        slabs, first = [], min(axes)
        for c in range(2 ** k):
            index = [slice(None)] * (ndim - first)
            for pos, axis in enumerate(axes):
                index[axis - first] = (c >> (k - 1 - pos)) & 1
            slabs.append((Ellipsis, *index))
        slabs = tuple(slabs)
    run = 2 ** (ndim - 1 - axes[0])
    if k == 1 and 2 <= run <= LONG_RUN_MAX:
        # a row never straddles two states of a stack: the tile divides 2^ndim
        tile = min(SPLIT_BLOCK, 2 ** ndim)
        run_index = np.repeat(np.arange(2, dtype=np.uint8), run)
        run_index = np.tile(run_index, tile // (2 * run))
        run_index.flags.writeable = False
    return _Layout(order, back, slabs, run_index)


def _squared_norms(amps: np.ndarray) -> np.ndarray:
    """Squared norm of each row of a stack (of a single state, a 0-d
    array), in one pass over the real view of the amplitudes: one call
    for the whole stack, where np.vdot takes one per row, and faster than
    np.vdot on a single state too."""
    real = np.ascontiguousarray(amps).view(np.float64)
    return np.vecdot(real, real)


def _check_norm(state: QuantumState) -> QuantumState:
    """``state``, once each of its rows has unit norm."""
    squares = _squared_norms(state.amplitudes)
    if squares.ndim == 0:
        norm = math.sqrt(squares)
        # written so that a NaN norm fails too
        if not abs(norm - 1.0) <= NORM_TOL:
            raise NumericalInvariantError(f"state norm drifted to {norm:.15f}")
        return state
    norms = np.sqrt(squares)
    ok = np.abs(norms - 1.0) <= NORM_TOL
    if not ok.all():
        row = int(np.argmin(ok))
        raise NumericalInvariantError(
            f"state norm drifted to {norms[row]:.15f} in row {row} of the stack")
    return state


def _qubit_axis(state: QuantumState, qubit_index: int) -> int:
    if not (1 <= qubit_index <= state.num_qubits):
        raise DimensionError(
            f"qubit index {qubit_index} out of range 1..{state.num_qubits}"
        )
    return qubit_index - 1


def _apply(
    state: QuantumState, axes: list, gate: np.ndarray, in_place: bool = False
) -> QuantumState:
    """Apply a unitary on the tensor factors ``axes`` (its row order).

    A gate that leaves fewer than two other factors, or has more than one
    nonzero entry in a row, is contracted by ``_apply_dense`` in the one
    BLAS call that ``np.tensordot`` makes, into a new array: BLAS
    multiplies such small matrices with kernels that round otherwise than
    the split products. The other kernels overwrite the state they are
    given: a diagonal one-qubit gate whose axis leaves runs of 2 to
    LONG_RUN_MAX amplitudes in each slab multiplies the whole state by a
    pattern (``_apply_long_run``), and any other gate with one nonzero per
    row (diagonal, CNOT, X) rotates whole slabs (``_apply_monomial``).
    They work on the caller's amplitudes only with ``in_place`` and a
    C-contiguous writeable array; otherwise on one copy of them. All give
    the same bits: BLAS rounds each product once and adds the exact zeros
    of the other terms, as the split products of ``_product`` do. The
    unitarity verdict and the kernels' inputs are worked out once per
    distinct gate (``_gate_plan``) and once per axis set (``_layout``).

    On a stack the structured kernels make one pass over all its rows and
    the contraction runs row by row; each row's norm is checked.
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
    amps, ndim = state.amplitudes, state.num_qubits
    psi = amps.reshape(amps.shape[:-1] + (2,) * ndim)
    layout = _layout(ndim, tuple(axes))
    if layout.slabs is None or plan.cycles is None:
        psi = _apply_dense(psi, layout.order, layout.back, gate)
    else:
        if not (in_place and psi.flags.carray):
            psi = psi.copy()
        if plan.diagonal is not None and layout.run_index is not None:
            psi = _apply_long_run(psi, layout.run_index, plan.diagonal)
        else:
            psi = _apply_monomial(psi, layout.slabs, plan.cycles)
    # psi is C-contiguous, so the flat view shares its memory
    return _check_norm(QuantumState(psi.reshape(amps.shape)))


def _apply_monomial(psi: np.ndarray, slabs: tuple, cycles: tuple) -> np.ndarray:
    """Unitary gate with a single nonzero ``d`` in each row, given as its
    ``cycles`` (see ``_Plan``): each slab on a cycle is overwritten with
    ``d`` times the next one, so slabs whose entry is a diagonal 1 are not
    touched. Each cycle is rotated block by block through one temporary
    block, which holds the first slab's block until the last entry reads
    it; a cycle of one entry scales its slab. The product is taken as
    ``src * d.real + src * 1j * d.imag``, which rounds like BLAS's
    ``zgemm``; numpy's complex ``src * d`` differs from it in the last bit.
    Returns ``psi``."""
    for rows, factors in cycles:
        for block in _blocks([psi[slabs[row]] for row in rows]):
            if len(block) == 1:
                _product(block[0], *factors[0], block[0])
                continue
            # the first slab's block is overwritten first and read last, so
            # the last entry reads a copy of it
            block.append(block[0].copy())
            for i, factor in enumerate(factors):
                if factor is None:
                    block[i][...] = block[i + 1]
                else:
                    _product(block[i + 1], *factor, block[i])
    return psi


def _apply_long_run(
    psi: np.ndarray, run_index: np.ndarray, diagonal: np.ndarray
) -> np.ndarray:
    """Diagonal one-qubit gate ``diag(d)`` on the axis whose slabs hold runs
    of contiguous amplitudes: the C-contiguous ``psi`` is multiplied in
    place, in rows of SPLIT_BLOCK amplitudes (or all of a smaller state),
    by the pattern ``run_index`` picks from ``d``. As in ``_apply_monomial``
    the pattern is split into a pure-real and a pure-imaginary multiplier,
    the rows of ``diagonal``, so each component of the product is rounded
    once, as ``zgemm`` rounds it; an entry ``d == 1`` gives its amplitudes
    back up to the sign of an exact zero. A ``diagonal`` of shape
    ``(2, P, 2)`` gives each state of a ``P``-row stack its own ``d``.
    Returns ``psi``."""
    re, im = np.take(diagonal, run_index[None], axis=-1)
    # a row never straddles two states, so each state's rows take its pattern
    rows = psi.reshape(re.shape[:-2] + (-1, run_index.size))
    for block, block_re, block_im in _blocks([rows, re, im]):
        _product(block, block_re, block_im, block)
    return psi


def _apply_row_diagonals(
    psi: np.ndarray, slabs: tuple, entries: np.ndarray, split: np.ndarray
) -> np.ndarray:
    """Diagonal one-qubit gate ``diag(entries[p])`` on row ``p`` of the
    stack ``psi``, slab by slab as ``_apply_monomial`` scales a slab: the
    slab of gate index ``c`` in row ``p`` is overwritten with its product
    with ``split[:, p, c]`` (pure-real and pure-imaginary parts), and left
    untouched where ``entries[p, c] == 1``, as a single state's slab is.
    Returns ``psi``."""
    for c, slab in enumerate(slabs):
        moved = entries[:, c] != 1
        if not moved.any():
            continue
        # only the rows whose entry moves them, which is all of them but
        # for phases whose kick is an exact 1
        rows = psi if moved.all() else psi[moved]
        view = rows[slab]
        factors = [f[moved, c].reshape((-1,) + (1,) * (view.ndim - 1)) for f in split]
        for block, block_re, block_im in _blocks([view, *factors]):
            _product(block, block_re, block_im, block)
        if rows is not psi:
            psi[moved] = rows
    return psi


def _apply_dense(
    psi: np.ndarray, order: tuple, back: tuple, gate: np.ndarray
) -> np.ndarray:
    """Contract the complex ``gate`` with the factors ``order`` puts first
    (``_contract``), a stack one row at a time: each row then gets the bits
    its state alone would, where one BLAS call over the stack rounds
    otherwise."""
    if psi.ndim == len(order):
        return _contract(psi, order, back, gate)
    return np.stack([_contract(row, order, back, gate) for row in psi])


def _contract(
    psi: np.ndarray, order: tuple, back: tuple, gate: np.ndarray
) -> np.ndarray:
    """The ``np.dot`` call that ``np.tensordot`` makes, on the same operands,
    without its argument handling. Those are the gate in the caller's
    layout, which BLAS may read transposed (and then, as a matrix-vector
    product, round otherwise than a copy), and the state reordered by
    ``order``, flattened to ``(2^k, rest)``. That copy is freed before the
    result is reordered back by ``back`` into a C-contiguous array, so no
    more than two state-sized temporaries coexist."""
    out = np.dot(gate, psi.transpose(order).reshape(len(gate), -1))
    return np.ascontiguousarray(out.reshape(psi.shape).transpose(back))


def _blocks(views: list) -> list:
    """Matching blocks of ``views``, cut along their leading axes so that no
    block holds more than SPLIT_BLOCK amplitudes: a temporary the size of a
    block stays in cache, where one the size of a view could be as large as
    the state. The other views have the first one's shape, or one that
    broadcasts to it: a view of length 1 on an axis that is cut goes whole
    into each block, so a multiplier per state of a stack follows its
    state's blocks."""
    first = views[0]
    if first.size <= SPLIT_BLOCK:
        return [views]
    per = first.size // len(first)
    if per > SPLIT_BLOCK:
        return [block for i in range(len(first))
                for block in _blocks([v[i] if len(v) > 1 else v[0] for v in views])]
    step = SPLIT_BLOCK // per
    return [[v[i:i + step] if len(v) > 1 else v for v in views]
            for i in range(0, len(first), step)]


def _product(src: np.ndarray, re, im, dst: np.ndarray) -> None:
    """``dst = src * re + src * im`` with ``re`` pure real and ``im`` pure
    imaginary; ``dst`` may be ``src`` itself, since ``src * im`` is taken
    before ``dst`` is written."""
    t = src * im
    np.multiply(src, re, out=dst)
    dst += t


def apply_1q(
    state: QuantumState, qubit_index: int, gate: np.ndarray, *, in_place: bool = False
) -> QuantumState:
    """Apply a 2x2 unitary to the indexed qubit (1-based).

    With ``in_place`` a diagonal or permutation gate may overwrite the
    state's amplitudes, so pass it only for a state no one else holds;
    either way use the returned state."""
    return _apply(state, [_qubit_axis(state, qubit_index)], gate, in_place)


def apply_1q_diagonals(
    state: QuantumState, qubit_index: int, entries: np.ndarray, *, in_place: bool = False
) -> QuantumState:
    """Apply the diagonal 2x2 unitary ``diag(entries[p])`` to the indexed
    qubit of row ``p`` of a stack, for a ``(P, 2)`` array ``entries``.

    One call serves every row, where ``apply_1q`` would take one call and
    one ``_gate_plan`` entry per row, and each row gets the bits
    ``apply_1q`` gives it with its own gate: the same kernel, the same
    split products and, below three factors, the same contraction. Each
    row's unitarity deviation is the one ``_gate_plan`` finds for its gate,
    and each row's norm is checked. ``in_place`` as in ``apply_1q``."""
    axis = _qubit_axis(state, qubit_index)
    amps, ndim = state.amplitudes, state.num_qubits
    entries = np.asarray(entries, dtype=np.complex128)
    if amps.ndim != 2 or entries.shape != (len(amps), 2):
        raise DimensionError(
            f"expected a (P, 2) array of diagonals for a stack of P rows, "
            f"got shape {entries.shape} for amplitudes of shape {amps.shape}")
    dev = _diagonal_deviations(entries)
    # written so that a NaN deviation fails too
    ok = dev <= UNITARY_TOL
    if not ok.all():
        raise ValidationError(f"gate is not unitary (deviation {dev[np.argmin(ok)]:.3e})")
    psi = amps.reshape(amps.shape[:-1] + (2,) * ndim)
    layout = _layout(ndim, (axis,))
    if layout.slabs is None:
        psi = np.stack([_contract(row, layout.order, layout.back, np.diag(d))
                        for row, d in zip(psi, entries)])
    else:
        if not (in_place and psi.flags.carray):
            psi = psi.copy()
        # pure-real and pure-imaginary multipliers, as _gate_plan splits them
        split = np.zeros((2,) + entries.shape, dtype=np.complex128)
        split[0].real = entries.real
        split[1].imag = entries.imag
        if layout.run_index is not None:
            psi = _apply_long_run(psi, layout.run_index, split)
        else:
            psi = _apply_row_diagonals(psi, layout.slabs, entries, split)
    return _check_norm(QuantumState(psi.reshape(amps.shape)))


def apply_2q(
    state: QuantumState,
    control_index: int,
    target_index: int,
    gate: np.ndarray,
    *,
    in_place: bool = False,
) -> QuantumState:
    """Apply a 4x4 unitary to the ordered (control, target) qubit pair;
    ``in_place`` as in ``apply_1q``."""
    if control_index == target_index:
        raise DimensionError("control and target must be distinct")
    axes = [_qubit_axis(state, control_index), _qubit_axis(state, target_index)]
    return _apply(state, axes, gate, in_place)


def apply_qubit_cavity(
    state: QuantumState, qubit_index: int, gate: np.ndarray
) -> QuantumState:
    """Apply a 4x4 unitary on (qubit, cavity), basis order {g0, g1, e0, e1}.

    The cavity, truncated to {0, 1}, is the register's last qubit, so m
    molecules and their cavity are ``new_state(m + 1)``. A call is one gate:
    it goes to ``_apply`` itself, not through ``apply_2q``."""
    cavity = state.num_qubits
    if qubit_index == cavity:
        raise DimensionError(f"qubit {qubit_index} is the cavity, the last qubit")
    axes = [_qubit_axis(state, qubit_index), _qubit_axis(state, cavity)]
    return _apply(state, axes, gate)


def probabilities(state: QuantumState) -> np.ndarray:
    """Born-rule probability for every basis state; of a stack, one row per
    state, each summing to one."""
    probs = np.abs(state.amplitudes) ** 2
    for total in np.atleast_1d(probs.sum(axis=-1)):
        if not abs(total - 1.0) <= NORM_TOL:
            raise NumericalInvariantError(f"probabilities sum to {total:.15f}")
    return probs


def register_probabilities(state: QuantumState, m: int) -> np.ndarray:
    """Born-rule marginal of qubits 1..m, indexed with qubit 1 as the most
    significant bit; later qubits are summed out. Of a stack, one row per
    state."""
    if not (1 <= m <= state.num_qubits):
        raise DimensionError(f"register size {m} out of range 1..{state.num_qubits}")
    probs = probabilities(state)
    return probs.reshape(probs.shape[:-1] + (2 ** m, -1)).sum(axis=-1)


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
    """Measure every qubit, collapsing the state onto one basis state.

    The outcome is drawn from the Born-rule probabilities with a seeded
    PCG64 stream, so identical seeds give identical records.
    """
    m = state.num_qubits
    outcome = int(sample(probabilities(state), [seed])[0])
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
