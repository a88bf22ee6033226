"""numpy's SeedSequence and the first PCG64 draw, for many seeds at once.

``SeedSequence`` (pool mixing, then the output hash) and ``PCG64`` (a 128-bit
LCG with the XSL-RR output) are fixed algorithms whose streams numpy keeps
stable (NEP 19). This module reproduces, bit for bit and as array
arithmetic over a whole batch of seeds, the two values shot sampling needs:

- ``SeedSequence(entropy).generate_state(n_words)`` for a column of entropy
  words per seed (``generate_state``);
- the first ``np.random.default_rng(seed).random()`` per seed of one
  entropy word, as every shot seed is (``first_uniforms``).

Every value lives in a uint32 or uint64 array, where numpy wraps products
silently; the constants stay Python ints, so no numpy scalar overflows.
"""
from __future__ import annotations

import functools

import numpy as np

MASK32 = 0xFFFFFFFF
POOL_SIZE = 4
XSHIFT = 16
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@functools.cache
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The running hash constant before each of ``count`` hashes, and after
    the last, as a (count + 1, 1) uint32 column."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & MASK32)
    consts = np.array(out, dtype=np.uint32)[:, None]
    consts.flags.writeable = False  # shared by every caller through the cache
    return consts


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix/output hash, one hash per row, the constants
    running down ``consts`` (one row longer than the result)."""
    v = (values ^ consts[:-1]) * consts[1:]
    return v ^ (v >> XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * MIX_MULT_L - y * MIX_MULT_R
    return r ^ (r >> XSHIFT)


def generate_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(column).generate_state(n_words)`` for every column of
    the (words, seeds) uint32 array ``entropy``; returns (n_words, seeds).

    Fewer than POOL_SIZE rows are padded with zero words, which changes
    nothing: the pool hashes a 0 for every missing word. Every column has
    the same length, so rows beyond the pool mix into every column alike.
    """
    n_entropy = max(len(entropy), POOL_SIZE)
    if len(entropy) < POOL_SIZE:
        pad = np.zeros((POOL_SIZE - len(entropy), entropy.shape[1]), dtype=np.uint32)
        entropy = np.concatenate([entropy, pad])
    consts = _hash_consts(INIT_A, MULT_A, POOL_SIZE * n_entropy)
    pool = _hash(entropy[:POOL_SIZE], consts[:POOL_SIZE + 1])
    k = POOL_SIZE
    # mix every pool word into every other; within one source the three
    # destinations are independent, so they take one array step
    for src in range(POOL_SIZE):
        dst = [d for d in range(POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], consts[k:k + POOL_SIZE]))
        k += POOL_SIZE - 1
    # entropy beyond the pool size: each word into every pool word
    for src in range(POOL_SIZE, n_entropy):
        pool = _mix(pool, _hash(entropy[src], consts[k:k + POOL_SIZE + 1]))
        k += POOL_SIZE
    out = pool[np.arange(n_words) % POOL_SIZE]
    return _hash(out, _hash_consts(INIT_B, MULT_B, n_words))


def int_words(value: int) -> list[int]:
    """Little-endian 32-bit words of the non-negative int ``value``, at least
    one, as ``SeedSequence`` splits an int entropy."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    return [value >> shift & MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit product of uint64 ``a`` and ``b``."""
    a0, a1 = a & MASK32, a >> 32
    b0, b1 = b & MASK32, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & MASK32) + (p10 & MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _add128(hi, lo, add_hi, add_lo):
    lo_sum = lo + add_lo
    return hi + add_hi + (lo_sum < lo), lo_sum


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """state * PCG_MULT + inc (mod 2^128) on (high, low) uint64 halves."""
    m_hi, m_lo = PCG_MULT >> 64, PCG_MULT & (2**64 - 1)
    prod_hi = _mulhi64(lo, m_lo) + hi * m_lo + lo * m_hi
    return _add128(prod_hi, lo * m_lo, inc_hi, inc_lo)


def _pcg64_first_uniform(words: np.ndarray) -> np.ndarray:
    """First ``random()`` of PCG64 seeded from generate_state(4, uint64)
    words given as (8, seeds) uint32."""
    w = words.astype(np.uint64)
    s_hi, s_lo, i_hi, i_lo = (w[2 * k] | w[2 * k + 1] << 32 for k in range(4))
    # pcg_setseq_128_srandom_r: inc = initseq << 1 | 1; state = 0, step,
    # add the initial state, step; then random() steps once more
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    hi, lo = _add128(inc_hi, inc_lo, s_hi, s_lo)
    for _ in range(2):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    # XSL-RR output, then the 53 high bits as a double in [0, 1)
    x, rot = hi ^ lo, hi >> 58
    x = x >> rot | x << ((64 - rot) & 63)
    return (x >> 11).astype(np.float64) * 2.0**-53


def first_uniforms(seeds: np.ndarray) -> np.ndarray:
    """``np.random.default_rng(s).random()`` for every seed of the unsigned
    integer array ``seeds``, each below 2^32."""
    if seeds.dtype.kind != "u" or np.any(seeds > MASK32):
        raise TypeError("seeds must be unsigned integers below 2**32")
    return _pcg64_first_uniform(generate_state(seeds.astype(np.uint32)[None], 8))
