"""Gate kernels on the flat amplitudes of a state or a stack.

``statevector`` plans each gate, picks its kernel and checks the result;
these kernels write the C-contiguous amplitudes they are given. A
layout (``statevector._Layout``) views them, a stack's rows included, as
``(L, 2, R)`` for one axis or ``(L, 2, M, 2, R)`` for two, ``R`` being the
run of contiguous amplitudes below the last gate axis, and indexes each
slab in that view. A structured kernel either scales a slab by a
diagonal entry, one for the slab or one per row of a stack, through the
split products of ``_product``, which round like BLAS's ``zgemm``, or
moves the slabs of a cycle by byte copies, never both; the dense kernel,
which serves every other gate, calls ``zgemm`` itself.
"""
from __future__ import annotations

import functools

import numpy as np

# Block, in amplitudes, of every kernel: runs this long are scaled in
# place, shorter ones are gathered into a buffer of this size, and the
# pattern pass and dense gates work on blocks of it. A gate allocates at
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
    longer one moves its slabs (``_move``), block by block (``_blocks``).
    Returns ``amps``."""
    run = layout.shape[-1]
    if run >= SPLIT_BLOCK:
        grid = amps.reshape(layout.shape)
    else:
        grid = amps.reshape(-1).view(layout.item).reshape(layout.shape[:-1])
    for rows, factor in cycles:
        slabs = [_blocks(grid[layout.slabs[row]], run) for row in rows]
        if factor is None:
            _move(slabs)
        else:
            _scale(slabs[0], *factor, run)
    return amps


def _scale(blocks: list, re, im, run: int) -> None:
    """One slab, given as its ``blocks``, times the split factor ``re`` +
    ``im`` (``_product``, whose split products round like BLAS's ``zgemm``
    where numpy's complex ``src * d`` differs in the last bit), or row
    ``p`` of a stack's slab times ``re[p]`` + ``im[p]`` for 1-D factors:
    pieces of runs of at least SPLIT_BLOCK amplitudes in place, arrays of
    shorter runs as ``np.void`` items gathered into one buffer, multiplied
    there as one contiguous array and scattered back."""
    # items of a row's slab where each row has a factor, else 0. A block and
    # a row's slab each hold a power of two of items, so a block lies within
    # one row or holds whole rows (the last maybe fewer): its factors are
    # its rows' column, beside its product viewed as one line per row
    row = re.ndim and sum(block.size for block in blocks) // len(re)
    if run < SPLIT_BLOCK:
        # the first block is the largest: only a slab's last may hold fewer runs
        buf = np.empty(blocks[0].size * run, dtype=np.complex128)
    start = 0
    for block in blocks:
        product = block
        if run < SPLIT_BLOCK:
            product = buf[:block.size * run]
            gathered = product.view(block.dtype).reshape(block.shape)
            gathered[...] = block
        if row:
            r0, r1 = start // row, -(-(start + block.size) // row)
            start += block.size
            product = product.reshape(r1 - r0, -1)
            _product(product, re[r0:r1, None], im[r0:r1, None], product)
        else:
            _product(product, re, im, product)
        if run < SPLIT_BLOCK:
            block[...] = gathered


def _move(slabs: list) -> None:
    """One cycle of two or more slabs, each given as its blocks, rotated by
    byte copies through one saved block: slab i takes slab i + 1's bytes,
    the last slab the first's. Blocks of complex runs and of ``np.void``
    items alike."""
    saved = np.empty_like(slabs[0][0])
    for blocks in zip(*slabs):
        kept = saved[:len(blocks[0])]
        kept[...] = blocks[0]
        for dst, src in zip(blocks, blocks[1:] + (kept,)):
            dst[...] = src


def _blocks(slab: np.ndarray, run: int) -> list:
    """A slab's blocks of at most SPLIT_BLOCK amplitudes, in one order for
    every slab of a layout: 1-D pieces of its runs where these hold at
    least SPLIT_BLOCK amplitudes (``slab`` is then complex, a run on its
    last axis), else parts of its array of ``np.void`` runs."""
    if run >= SPLIT_BLOCK:
        parts = slab if slab.ndim == 2 else [part for grid in slab for part in grid]
        return [part[i:i + SPLIT_BLOCK] for part in parts
                for i in range(0, run, SPLIT_BLOCK)]
    per = SPLIT_BLOCK // run
    if slab.size <= per:
        return [slab]
    if slab.ndim == 2 and slab.shape[1] > per:
        return [part[j:j + per] for part in slab for j in range(0, len(part), per)]
    step = per // (slab.shape[1] if slab.ndim == 2 else 1)
    return [slab[i:i + step] for i in range(0, len(slab), step)]


def _apply_pattern(amps: np.ndarray, run: int, diagonal: np.ndarray) -> np.ndarray:
    """Diagonal one-qubit gate neither of whose entries is 1, on an axis
    that leaves runs of ``run`` < SPLIT_BLOCK amplitudes: the C-contiguous
    ``amps`` is multiplied in place, block by block, by the pattern
    ``_pattern_index`` picks from the pure-real and pure-imaginary
    multipliers ``diagonal``, so each amplitude gets the bits a slab
    product gives it. A ``(2, P, 2)`` ``diagonal`` gives row ``p`` of a
    stack its own entries. Returns ``amps``."""
    index = _pattern_index(run)
    if diagonal.ndim == 3:
        if amps.shape[-1] > index.size:
            for row, row_diagonal in zip(amps, diagonal.swapaxes(0, 1)):
                _apply_pattern(row, run, row_diagonal)
            return amps
        # blocks of whole rows, each with its rows' patterns
        step = index.size // amps.shape[-1]
        for i in range(0, len(amps), step):
            block = amps[i:i + step]
            re, im = np.take(diagonal[:, i:i + step], index[:amps.shape[-1]], axis=-1)
            _product(block, re, im, block)
        return amps
    flat = amps.reshape(-1)
    re, im = np.take(diagonal, index[:flat.size], axis=-1)
    for i in range(0, flat.size, index.size):
        block = flat[i:i + index.size]
        if block.size < re.size:
            # a stack of short rows may end in a part block
            re, im = re[:block.size], im[:block.size]
        _product(block, re, im, block)
    return amps


def _apply_dense(src: np.ndarray, out: np.ndarray, layout, gate: np.ndarray) -> np.ndarray:
    """Any gate, from ``src`` into the C-contiguous ``out`` (maybe ``src``):
    each block of ``layout.cols`` columns of the matrix ``np.tensordot``
    multiplies goes through ``np.dot`` (from a copy where BLAS cannot take
    its strides) into a buffer, which is copied back. A block holds at
    least 4 whole columns, or a row's whole matrix, and BLAS then rounds
    each column as tensordot does. Returns ``out``."""
    k = len(gate).bit_length() - 1
    lead = (slice(None),) * k
    grid, dst = (a.reshape(layout.shape).transpose(layout.order) for a in (src, out))
    blocks = _column_blocks(grid.shape[k:], layout.cols)
    work = np.empty(grid[lead + blocks[0]].size, dtype=np.complex128)
    for index in blocks:
        block = grid[lead + index]
        product = work[:block.size]
        np.dot(gate, block.reshape(len(gate), -1), out=product.reshape(len(gate), -1))
        np.copyto(dst[lead + index], product.reshape(block.shape))
    return out


def _column_blocks(shape: tuple, cols: int) -> list:
    """Indices that cut an array of columns, of axes ``shape``, into C-order
    blocks of at most ``cols``: a range of the outermost axis that does not
    fit whole, and an index on each axis before it."""
    inner = 1
    for axis in range(len(shape) - 1, -1, -1):
        if inner * shape[axis] > cols:
            step = cols // inner
            return [(*index, slice(i, i + step)) for index in np.ndindex(*shape[:axis])
                    for i in range(0, shape[axis], step)]
        inner *= shape[axis]
    return [()]


def _product(src: np.ndarray, re, im, dst: np.ndarray) -> None:
    """``dst = src * re + src * im`` with ``re`` pure real and ``im`` pure
    imaginary; ``dst`` may be ``src`` itself, since ``src * im`` is taken
    before ``dst`` is written."""
    t = src * im
    np.multiply(src, re, out=dst)
    dst += t
