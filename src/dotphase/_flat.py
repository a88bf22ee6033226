"""Gate kernels on the flat amplitudes of a state.

``statevector`` plans each gate, picks its kernel and checks the result;
these kernels write the C-contiguous amplitudes they are given. A
layout (``statevector._Layout``) views them as ``(L, 2, R)`` for one
axis or ``(L, 2, M, 2, R)`` for two, ``R`` being the run of contiguous
amplitudes below the last gate axis, and indexes each slab in that view.
Every kernel works on the blocks ``_column_blocks`` cuts. A structured
kernel either scales a slab by a diagonal entry through the split products
of ``_product``, which round like BLAS's ``zgemm``, or moves the slabs of a
cycle by byte copies, never both; the dense kernel, which serves every
other gate, calls ``zgemm`` itself.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

# Block, in amplitudes, of every kernel (``_column_blocks``): slabs of runs
# this long are scaled in place in pieces of it, shorter runs are gathered
# into a buffer of this size, the pattern pass works on blocks of it and a
# dense gate on blocks of SPLIT_BLOCK / 2^k columns. A gate allocates at
# most three blocks besides the state it writes. At m = 16 (one BLAS
# thread), blocks of 2^11 took 11-16 % longer, from the numpy calls per
# block, and 2^13 gained nothing.
# It is also the pattern pass's crossover: a diagonal one-qubit gate
# neither of whose entries is 1 scales both slabs, which on runs shorter
# than a block one pass with a pattern of its entries does in 150-250 us at
# m = 16, against 200-480 us for gathering both slabs. With an entry 1 only
# one slab moves: gathering it takes 100-130 us from runs of 8 on, against
# 160-170 us; at runs of 2 and 4, on single states, the pattern ranged from
# 24 % faster to 10 % slower at m = 16 but was 2-62 % slower at m = 12 and
# within noise at m = 8, so such gates keep to their slab.
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
    scales its slab by its factor (``_scale``), a longer one moves its
    slabs (``_move``), block by block, runs shorter than SPLIT_BLOCK as
    ``np.void`` items. Returns ``amps``."""
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
            _scale(slabs[0], blocks, *factor, run)
    return amps


def _scale(slab: np.ndarray, blocks: tuple, re, im, run: int) -> None:
    """``slab`` times the split factor ``re`` + ``im`` (``_product``, whose
    split products round like BLAS's ``zgemm`` where numpy's complex
    ``src * d`` differs in the last bit), block by block at the indices
    ``blocks``: blocks of runs of at least SPLIT_BLOCK amplitudes
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
        _product(product, re, im, product)
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
    ``amps`` are multiplied in place, block by block (``_column_blocks``),
    by the pattern ``_pattern_index`` picks from the pure-real and
    pure-imaginary multipliers ``diagonal``, so each amplitude gets the bits
    a slab product gives it. Returns ``amps``."""
    # one block's pattern: SPLIT_BLOCK entries, or a smaller state's all;
    # with _product's temporary, three blocks at most
    re, im = np.take(diagonal, _pattern_index(run)[:len(amps)], axis=-1)
    for block in _column_blocks(amps.shape, SPLIT_BLOCK):
        part = amps[block]
        _product(part, re, im, part)
    return amps


def _apply_dense(amps: np.ndarray, layout, gate: np.ndarray) -> np.ndarray:
    """Any gate, on the C-contiguous ``amps``: each block of ``layout.cols``
    columns of the matrix ``np.tensordot`` multiplies (``_column_blocks``)
    goes through ``np.dot`` (from a copy where BLAS cannot take its
    strides) into a buffer, which is copied back. A block holds at least 4
    whole columns, or the whole matrix, and BLAS then rounds each column as
    tensordot does. Returns ``amps``."""
    d = len(gate)
    lead = (slice(None),) * (d.bit_length() - 1)
    grid = amps.reshape(layout.shape).transpose(layout.order)
    blocks = _column_blocks(grid.shape[len(lead):], layout.cols)
    work = np.empty(min(amps.size, d * layout.cols), dtype=np.complex128)
    for index in blocks:
        block = grid[lead + index]
        product = work[:block.size]
        np.dot(gate, block.reshape(d, -1), out=product.reshape(d, -1))
        block[...] = product.reshape(block.shape)
    return amps


@functools.cache
def _column_blocks(shape: tuple, cols: int) -> tuple:
    """Indices that cut an array of axes ``shape`` into C-order blocks of
    at most ``cols`` elements: a range of the outermost axis that does not
    fit whole, or of the first axis where every other axis does, and an
    int on each axis before it, so that every block is an array, never a
    scalar. Memoised, on keys as few as ``statevector._layout``'s: building
    them took a fifth of a gate on 2^10 amplitudes."""
    inner = 1
    for axis in range(len(shape) - 1, -1, -1):
        if inner * shape[axis] > cols or axis == 0:
            step = max(min(cols // inner, shape[axis]), 1)
            cuts = [slice(i, i + step) for i in range(0, shape[axis], step)]
            return tuple(itertools.product(*map(range, shape[:axis]), cuts))
        inner *= shape[axis]


def _product(src: np.ndarray, re, im, dst: np.ndarray) -> None:
    """``dst = src * re + src * im`` with ``re`` pure real and ``im`` pure
    imaginary; ``dst`` may be ``src`` itself, since ``src * im`` is taken
    before ``dst`` is written."""
    t = src * im
    np.multiply(src, re, out=dst)
    dst += t
