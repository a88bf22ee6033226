"""Gate kernels on the flat amplitudes of a state or a stack.

``statevector`` plans each gate, picks its kernel and checks the result;
these kernels write the C-contiguous amplitudes they are given. A
layout (``statevector._Layout``) views them as ``(P, L, 2, R)`` for one
axis or ``(P, L, 2, M, 2, R)`` for two, ``P`` being a stack's rows (1 for
a single state) and ``R`` the run of contiguous amplitudes below the last
gate axis, and indexes each slab in that view. Every kernel works on the
blocks ``_column_blocks`` cuts. A structured kernel either scales a slab
by a diagonal entry, one for the slab or one per row of a stack, through
the split products of ``_product``, which round like BLAS's ``zgemm``, or
moves the slabs of a cycle by byte copies, never both; the dense kernel,
which serves every other gate, calls ``zgemm`` itself.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

# Block, in amplitudes, of every kernel (``_column_blocks``): slabs of runs
# this long are scaled in place in pieces of it, shorter runs are gathered
# into a buffer of this size, the pattern pass works on blocks of it and a
# dense gate on blocks of SPLIT_BLOCK / 2^k columns. A gate allocates at
# most three blocks besides the new state it writes where it may not
# overwrite the old. At m = 16 (one BLAS thread), blocks of 2^11 took
# 11-16 % longer, from the numpy calls per block, and 2^13 gained nothing.
# It is also the pattern pass's crossover: a diagonal one-qubit gate
# neither of whose entries is 1 scales both slabs, which on runs shorter
# than a block one pass with a pattern of its entries does in 150-250 us at
# m = 16, against 200-480 us for gathering both slabs. With an entry 1 only
# one slab moves: gathering it takes 100-130 us from runs of 8 on, against
# 160-170 us; at runs of 2 and 4 the pattern wins by 7 % at m = 16 but loses
# by 20-30 % on a 12-row stack of 8 qubits, so such gates keep to their slab.
SPLIT_BLOCK = 2 ** 12
# Entries of each memo: statevector's _gate_plan (per distinct gate) and
# _layout (per qubit count and axis set), and _column_blocks (per array
# shape and block size). An ideal sweep over m = 8-10 with 12 phases makes
# 626 gate calls, each on one stack of all 12 phases: 599 through _apply
# with 20 distinct gates, and 27 kicks (one per molecule, through
# apply_1q_diagonals), which judge all their diagonals in one
# _unitary_deviation call and plan none; they use 136 layouts. m = 5-10
# makes 910 calls with 200 layouts, and the same 20 gates. Estimates at
# m = 15-17 use 409 layouts, so that memo refills, but the 393 layouts a
# 24-call round of them rebuilds take about 10 ms (26 us each) against
# about 3 s for the round; their block indices fill the last memo with
# 0.7 MiB. The bound keeps a run that makes many distinct gates (random
# phases, pulse fits) from growing the process.
PLAN_CACHE = 256


@functools.cache
def _pattern_index(run: int) -> np.ndarray:
    """Read-only index of the pattern pass on an axis that leaves runs of
    ``run`` amplitudes: which diagonal entry multiplies each amplitude of a
    block of SPLIT_BLOCK. One per run length, shared by every layout."""
    index = np.tile(np.repeat(np.arange(2, dtype=np.uint8), run), SPLIT_BLOCK // (2 * run))
    index.flags.writeable = False
    return index


def _apply_monomial(amps: np.ndarray, layout, cycles: tuple) -> np.ndarray:
    """Gate with one nonzero per row, given as its ``cycles`` (see
    ``statevector._Plan``), on the C-contiguous ``amps``: a one-slab cycle
    scales its slab by its factor, or by a factor per row (``_scale``), a
    longer one moves its slabs (``_move``), block by block, runs shorter
    than SPLIT_BLOCK as ``np.void`` items. Returns ``amps``."""
    run = layout.shape[-1]
    if run >= SPLIT_BLOCK:
        grid, cols = amps.reshape(layout.shape), SPLIT_BLOCK
    else:
        grid = amps.reshape(-1).view(layout.item).reshape(layout.shape[:-1])
        cols = SPLIT_BLOCK // run
    for rows, factor in cycles:
        slabs = [grid[layout.slabs[row]] for row in rows]
        blocks = _column_blocks(slabs[0].shape, cols)
        if factor is None:
            _move(slabs, blocks)
        else:
            # indexed, not star-unpacked: unpacking a stack's (2, P) ndarray
            # factor iterates it, about four times as slow
            _scale(slabs[0], blocks, factor[0], factor[1], run)
    return amps


def _scale(slab: np.ndarray, blocks: tuple, re, im, run: int) -> None:
    """``slab`` times the split factor ``re`` + ``im`` (``_product``, whose
    split products round like BLAS's ``zgemm`` where numpy's complex
    ``src * d`` differs in the last bit), or row ``p`` of a stack's slab
    times ``re[p]`` + ``im[p]`` for 1-D factors, block by block at the
    indices ``blocks``: blocks of runs of at least SPLIT_BLOCK amplitudes
    in place, blocks of shorter runs, as ``np.void`` items, gathered into
    one buffer, multiplied there as one contiguous array and scattered
    back."""
    if run < SPLIT_BLOCK:
        buf = np.empty(min(slab.size * run, SPLIT_BLOCK), dtype=np.complex128)
    for index in blocks:
        block = product = slab[index]
        if run < SPLIT_BLOCK:
            product = buf[:block.size * run]
            gathered = product.view(block.dtype).reshape(block.shape)
            gathered[...] = block
        factor = re, im
        if re.ndim:
            # a block within row p takes that row's factor, one of whole rows
            # its rows' column, beside its product viewed as one line per row
            factor = re[index[0], None], im[index[0], None]
            product = product.reshape(len(factor[0]), -1)
        _product(product, *factor, product)
        if run < SPLIT_BLOCK:
            block[...] = gathered


def _move(slabs: list, blocks: tuple) -> None:
    """One cycle of two or more ``slabs``, rotated by byte copies block by
    block at the indices ``blocks``, through a copy of the first slab's
    block: slab i takes slab i + 1's bytes, the last slab the first's.
    Blocks of complex runs and of ``np.void`` items alike."""
    for index in blocks:
        parts = [slab[index] for slab in slabs]
        parts.append(parts[0].copy())
        for dst, src in zip(parts, parts[1:]):
            dst[...] = src


def _apply_pattern(amps: np.ndarray, run: int, diagonal: np.ndarray) -> np.ndarray:
    """Diagonal one-qubit gate neither of whose entries is 1, on an axis
    that leaves runs of ``run`` < SPLIT_BLOCK amplitudes: the C-contiguous
    ``amps``, viewed as one line per row (a single state is one row), is
    multiplied in place, block by block (``_column_blocks``), by the
    pattern ``_pattern_index`` picks from the pure-real and pure-imaginary
    multipliers ``diagonal``, so each amplitude gets the bits a slab
    product gives it. A ``(2, P, 2)`` ``diagonal`` gives row ``p`` of a
    stack its own entries. Returns ``amps``."""
    grid = amps.reshape(-1, amps.shape[-1])
    # a row's first SPLIT_BLOCK entries: a block that lies within a row
    # holds that many, one of whole rows a row's length
    index = _pattern_index(run)[:grid.shape[1]]
    taken = re = im = None
    for block in _column_blocks(grid.shape, SPLIT_BLOCK):
        # one pattern for every row, or a stack's rows' own, taken anew
        # only where a block's rows change
        rows = block[0] if diagonal.ndim == 3 else slice(None)
        if rows != taken:
            # the last pattern goes first: with _product's temporary, three
            # blocks at most
            re = im = None
            (re, im), taken = np.take(diagonal[:, rows], index, axis=-1), rows
        part = grid[block]
        _product(part, re, im, part)
    return amps


def _apply_dense(src: np.ndarray, out: np.ndarray, layout, gate: np.ndarray) -> np.ndarray:
    """Any gate, or a ``(P, d, d)`` stack of one gate per row, from ``src``
    into the C-contiguous ``out`` (maybe ``src``): each block of
    ``layout.cols`` columns of the matrix ``np.tensordot`` multiplies
    (``_column_blocks``) goes through ``np.dot`` (from a copy where BLAS
    cannot take its strides) into a buffer, which is copied back. A block
    holds at least 4 whole columns, or a row's whole matrix, and BLAS then
    rounds each column as tensordot does; a gate stack needs the latter.
    Returns ``out``."""
    d = gate.shape[-1]
    lead = (slice(None),) * (d.bit_length() - 1)
    grid, dst = (a.reshape(layout.shape).transpose(layout.order) for a in (src, out))
    blocks = _column_blocks(grid.shape[len(lead):], layout.cols)
    work = np.empty(min(src.size, d * layout.cols), dtype=np.complex128)
    for index in blocks:
        block = grid[lead + index]
        product = work[:block.size]
        np.dot(gate if gate.ndim == 2 else gate[index[0]], block.reshape(d, -1),
               out=product.reshape(d, -1))
        np.copyto(dst[lead + index], product.reshape(block.shape))
    return out


@functools.lru_cache(maxsize=PLAN_CACHE)
def _column_blocks(shape: tuple, cols: int) -> tuple:
    """Indices that cut an array of axes ``shape``, a stack's rows first,
    into C-order blocks of at most ``cols`` elements: a range of the
    outermost axis that does not fit whole, or of the rows where every
    other axis does, an int in place of a range of one, and an int on each
    axis before it. So a block lies within one row (an int first index)
    or holds whole rows (a slice of axis 0). Memoised: building them took
    a fifth of a gate on 2^10 amplitudes."""
    inner = 1
    for axis in range(len(shape) - 1, -1, -1):
        if inner * shape[axis] > cols or axis == 0:
            # (an empty stack has no blocks)
            step = max(min(cols // inner, shape[axis]), 1)
            cuts = [i if step == 1 else slice(i, i + step)
                    for i in range(0, shape[axis], step)]
            return tuple(itertools.product(*map(range, shape[:axis]), cuts))
        inner *= shape[axis]


def _product(src: np.ndarray, re, im, dst: np.ndarray) -> None:
    """``dst = src * re + src * im`` with ``re`` pure real and ``im`` pure
    imaginary; ``dst`` may be ``src`` itself, since ``src * im`` is taken
    before ``dst`` is written."""
    t = src * im
    np.multiply(src, re, out=dst)
    dst += t
