"""Hot numeric kernels: integer convolution, NSQF masks, zero run-length
coding, canonical Huffman bit packing and the NIST runs count.

Each operation has one numpy/Python implementation.
"""

import numpy as np

# ---------------------------------------------------------------------------
# integer convolution (cross-correlation with zero padding), int8 -> int32


def conv2d_acc(ifmap, weights, stride, pad):
    """Windowed sum of products on int32 accumulators, vectorized."""
    C, H, W = ifmap.shape
    K, _, R, S = weights.shape
    P = (H + 2 * pad - R) // stride + 1
    Q = (W + 2 * pad - S) // stride + 1
    padded = np.zeros((C, H + 2 * pad, W + 2 * pad), dtype=np.int32)
    padded[:, pad : pad + H, pad : pad + W] = ifmap
    win = np.lib.stride_tricks.sliding_window_view(padded, (R, S), axis=(1, 2))
    win = win[:, ::stride, ::stride][:, :P, :Q]
    out = np.tensordot(weights.astype(np.int32), win, axes=([1, 2, 3], [0, 3, 4]))
    return np.ascontiguousarray(out, dtype=np.int32)


def maxpool2d(arr, pool):
    """Max pooling with window pool x pool, stride pool (pool must divide dims)."""
    if pool == 1:
        return arr
    K, P, Q = arr.shape
    return arr.reshape(K, P // pool, pool, Q // pool, pool).max(axis=(2, 4))


# ---------------------------------------------------------------------------
# non-square-free (NSQF) integers: some prime square divides n, equivalently
# some d >= 2 has d*d | n


def nsqf_mask(lo, hi):
    """Mark n in [lo, hi] with d*d | n for some d >= 2."""
    n = hi - lo + 1
    out = np.zeros(n, dtype=np.uint8)
    vals = np.arange(lo, hi + 1, dtype=np.int64)
    d = 2
    while d * d <= hi:
        out[vals % (d * d) == 0] = 1
        d += 1
    return out


# ---------------------------------------------------------------------------
# zero run-length coding: 0x00 runs become (0, runlen) pairs, runlen in 1..255


def rle_encode(data):
    data = np.ascontiguousarray(data, dtype=np.uint8)
    n = data.size
    out = np.empty(2 * n + 2, dtype=np.uint8)
    i = 0
    j = 0
    while i < n:
        b = data[i]
        if b == 0:
            run = 1
            while i + run < n and data[i + run] == 0 and run < 255:
                run += 1
            out[j] = 0
            out[j + 1] = run
            j += 2
            i += run
        else:
            nz_end = i
            while nz_end < n and data[nz_end] != 0:
                nz_end += 1
            m = nz_end - i
            out[j : j + m] = data[i:nz_end]
            j += m
            i = nz_end
    return out[:j].copy()


def _rle_decoded_size(tokens):
    n = tokens.size
    i = 0
    total = 0
    while i < n:
        if tokens[i] == 0:
            total += int(tokens[i + 1])
            i += 2
        else:
            total += 1
            i += 1
    return total


def rle_decode(tokens):
    tokens = np.ascontiguousarray(tokens, dtype=np.uint8)
    out = np.empty(_rle_decoded_size(tokens), dtype=np.uint8)
    n = tokens.size
    i = 0
    j = 0
    while i < n:
        b = tokens[i]
        if b == 0:
            run = int(tokens[i + 1])
            out[j : j + run] = 0
            j += run
            i += 2
        else:
            nz_end = i
            while nz_end < n and tokens[nz_end] != 0:
                nz_end += 1
            m = nz_end - i
            out[j : j + m] = tokens[i:nz_end]
            j += m
            i = nz_end
    return out


# ---------------------------------------------------------------------------
# canonical Huffman bitstream, MSB first


def huff_encode(tokens, codes, lens):
    tokens = np.ascontiguousarray(tokens, dtype=np.uint8)
    total_bits = int(lens[tokens].astype(np.int64).sum())
    out = np.zeros((total_bits + 7) // 8, dtype=np.uint8)
    acc = 0
    nb = 0
    j = 0
    for t in tokens:
        l = int(lens[t])
        acc = (acc << l) | int(codes[t])
        nb += l
        while nb >= 8:
            nb -= 8
            out[j] = (acc >> nb) & 0xFF
            j += 1
        acc &= (1 << nb) - 1
    if nb > 0:
        out[j] = (acc << (8 - nb)) & 0xFF
    return out


def huff_decode(bits, n_tokens, first, count, offset, symtab, maxlen):
    """Decode n_tokens symbols, or return None if the bits run out or a code
    grows past maxlen."""
    out = np.empty(n_tokens, dtype=np.uint8)
    code = 0
    l = 0
    bi = 0
    oi = 0
    nbits = bits.size * 8
    while oi < n_tokens:
        if bi >= nbits:
            return None
        bit = (int(bits[bi >> 3]) >> (7 - (bi & 7))) & 1
        bi += 1
        code = (code << 1) | bit
        l += 1
        if l > maxlen:
            return None
        if count[l] > 0:
            idx = code - int(first[l])
            if 0 <= idx < count[l]:
                out[oi] = symtab[int(offset[l]) + idx]
                oi += 1
                code = 0
                l = 0
    return out


# ---------------------------------------------------------------------------
# NIST runs count


def runs_count(bits):
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    if bits.size == 0:
        return 0
    return int(1 + np.count_nonzero(np.diff(bits)))
