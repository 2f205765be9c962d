"""Hot numeric kernels: integer convolution, NSQF masks, zero run-length
coding, canonical Huffman bit packing and the NIST runs count.

Each operation has one numpy/Python implementation.  The convolution takes
int8 operands and runs float32 GEMMs of at most 2**10 reduction terms, whose
integer sums stay within 2**24 and so round nothing; it sums them in int32,
which holds any C*R*S < 2**17 products.
"""

import math

import numpy as np

# ---------------------------------------------------------------------------
# integer convolution (cross-correlation with zero padding), int8 -> int32


_IM2COL_ELEMS = 1 << 16  # float32 im2col elements per band: 256 KiB
_SLICE_TERMS = 1 << 10  # reduction terms per float32 GEMM: sums stay within 2**24


def conv2d_acc(ifmap, weights, stride, pad):
    """Windowed sum of products of int8 ifmap and weights, returned as int32.

    The im2col product is split along its C*R*S reduction axis into float32
    GEMMs of at most _SLICE_TERMS terms, and the slices are summed in int32.
    Exact: every int8 product has magnitude at most 2**14, so every partial
    sum inside one GEMM is an integer of magnitude at most 2**24, which
    float32 holds exactly whatever order, blocking or FMA the BLAS uses.  The
    int32 total stays below 2**31 while C*R*S < 2**17 (LayerShape.validate).
    The columns are built for a band of output rows at a time to bound the
    memory: a band's columns take no more than the larger of _IM2COL_ELEMS
    elements and the float32 weight matrix the call holds anyway, so a layer
    with a large weight matrix streams it through few bands.
    """
    C, H, W = ifmap.shape
    K, _, R, S = weights.shape
    P = (H + 2 * pad - R) // stride + 1
    Q = (W + 2 * pad - S) // stride + 1
    padded = np.zeros((C, H + 2 * pad, W + 2 * pad), dtype=ifmap.dtype)
    padded[:, pad : pad + H, pad : pad + W] = ifmap
    win = np.lib.stride_tricks.sliding_window_view(padded, (R, S), axis=(1, 2))
    win = win[:, ::stride, ::stride][:, :P, :Q].transpose(0, 3, 4, 1, 2)
    w = weights.reshape(K, C * R * S).astype(np.float32)
    out = np.zeros((K, P, Q), dtype=np.int32)
    band = max(1, max(_IM2COL_ELEMS, K * C * R * S) // (C * R * S * Q))
    for p0 in range(0, P, band):
        cols = np.array(win[..., p0 : p0 + band, :], dtype=np.float32).reshape(C * R * S, -1)
        acc = out[:, p0 : p0 + band]
        for j in range(0, C * R * S, _SLICE_TERMS):
            part = w[:, j : j + _SLICE_TERMS] @ cols[j : j + _SLICE_TERMS]
            acc += part.astype(np.int32).reshape(acc.shape)
    return out


def maxpool2d(arr, pool):
    """Max pooling with window pool x pool, stride pool (pool must divide dims)."""
    if pool == 1:
        return arr
    views = [arr[:, di::pool, dj::pool] for di in range(pool) for dj in range(pool)]
    out = np.maximum(views[0], views[1])
    for view in views[2:]:
        np.maximum(out, view, out=out)
    return out


# ---------------------------------------------------------------------------
# non-square-free (NSQF) integers: some prime square divides n


def nsqf_mask(lo, hi):
    """Mark n in [lo, hi] with p*p | n for some prime p: a strided slice per
    prime p <= isqrt(hi), the primes from a small sieve."""
    out = np.zeros(hi - lo + 1, dtype=np.uint8)
    root = math.isqrt(hi)
    prime = np.ones(root + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    for p in np.flatnonzero(prime).tolist():
        out[-lo % (p * p) :: p * p] = 1
    return out


# ---------------------------------------------------------------------------
# zero run-length coding: 0x00 runs become (0, runlen) pairs, runlen in 1..255


def rle_encode(data, starts):
    """The tokens of the tiles data[starts[j]:starts[j + 1]], concatenated,
    and each tile's token count.

    starts are the tiles' first bytes, increasing from 0, so every tile is
    nonempty.  A zero run breaks at each tile start, so the tokens of a
    tile are those of the tile alone.
    """
    data = np.ascontiguousarray(data, dtype=np.uint8)
    zero = np.zeros(data.size + 2, dtype=bool)  # byte i is zero at i + 1
    zero[1:-1] = data == 0
    cut = np.zeros(data.size + 1, dtype=bool)  # a run breaks before byte i
    cut[starts] = cut[-1] = True
    run_at = np.flatnonzero(zero[1:-1] & (cut[:-1] | ~zero[:-2]))
    run = np.flatnonzero(zero[1:-1] & (cut[1:] | ~zero[2:])) + 1 - run_at  # [run_at, run_at + run)
    # slot 0 of each input byte holds the byte, slot 1 a pair's length;
    # the nonzero bytes and the pairs, read in order, are the output.  A
    # run emits one (0, len) pair per started 255 zeros, at the pair's
    # first zero: one pass per 255 zeros of the longest run
    slots = np.zeros((data.size, 2), dtype=np.uint8)
    slots[:, 0] = data
    for skip in range(0, int(run.max(initial=0)), 255):
        live = run > skip
        slots[run_at[live] + skip, 1] = np.minimum(run[live] - skip, 255)
    keep = slots != 0
    keep[:, 0] |= keep[:, 1]
    at = np.flatnonzero(keep.ravel())  # slot 2i is byte i's first
    return slots.ravel()[at], np.diff(np.searchsorted(at, 2 * np.asarray(starts)), append=at.size)


def rle_decode(tokens):
    """Inverse of rle_encode, or None if a zero token lacks a run length in 1..255.

    A run length is never 0, so every zero token starts a run and the token
    after it is the length: zeros repeat that many times, length bytes
    vanish and every other token copies once.
    """
    tokens = np.ascontiguousarray(tokens, dtype=np.uint8)
    runs = np.flatnonzero(tokens == 0)
    if runs.size and (runs[-1] + 1 == tokens.size or np.any(tokens[runs + 1] == 0)):
        return None
    counts = np.ones(tokens.size, dtype=np.intp)
    counts[runs] = tokens[runs + 1]
    counts[runs + 1] = 0
    return np.repeat(tokens, counts)


# ---------------------------------------------------------------------------
# canonical Huffman bitstream, MSB first


def huff_encode(tokens, codes, lens):
    """Concatenate the codes of tokens MSB first, zero-padding the last byte."""
    tokens = np.asarray(tokens, dtype=np.intp)
    lens = np.asarray(lens, dtype=np.intp)
    # per symbol: a row of 64 bits that starts with its code
    top = np.asarray(codes, dtype=np.uint64) << (64 - lens).astype(np.uint64)
    rows = np.unpackbits(top.astype(">u8").view(np.uint8))
    # output bit i is bit i - start of its token's row
    tok_lens = lens[tokens]
    at = np.repeat(64 * tokens - (np.cumsum(tok_lens) - tok_lens), tok_lens)
    at += np.arange(at.size)
    return np.packbits(rows[at])


def huff_decode(bits, n_tokens, count, symtab):
    """Decode n_tokens canonical codes, MSB first, from count[l], the number
    of codes of length l, and symtab, the symbols in (length, symbol) order
    (RFC 1951 section 3.2.2).  The loop of zlib's contrib/puff: first is the
    first code of the current length and index its symbol's place in
    symtab.  None if the bits run out or a code matches no length."""
    stream = np.unpackbits(np.asarray(bits, dtype=np.uint8)).tolist()
    nbits = len(stream)
    counts = np.asarray(count).tolist()[1:]  # from length 1 up
    symtab = np.asarray(symtab).tolist()
    out = []
    pos = 0
    for _ in range(n_tokens):
        code = first = index = 0
        for n in counts:
            if pos == nbits:
                return None
            code |= stream[pos]
            pos += 1
            if code < first + n:
                out.append(symtab[index + code - first])
                break
            index += n
            first = (first + n) << 1
            code <<= 1
        else:
            return None
    return np.array(out, dtype=np.uint8)


# ---------------------------------------------------------------------------
# NIST runs count


def runs_count(bits):
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    if bits.size == 0:
        return 0
    return int(1 + np.count_nonzero(np.diff(bits)))
