"""Independent slow oracles used across the test suite.

Everything here is deliberately naive (loops, sieves, quadrature) and kept
separate from the code paths under test.
"""

import heapq

import numpy as np

from neuroplug.errors import DomainError
from neuroplug.mellin import GridPdf, MellinFn
from neuroplug.tracegen import OP_WRITE


def conv_brute(ifmap, weights, stride=1, pad=0):
    """Pure-Python windowed sum of products, exact integer arithmetic."""
    C, H, W = ifmap.shape
    K, _, R, S = weights.shape
    P = (H + 2 * pad - R) // stride + 1
    Q = (W + 2 * pad - S) // stride + 1
    out = np.zeros((K, P, Q), dtype=np.int64)
    for k in range(K):
        for p in range(P):
            for q in range(Q):
                acc = 0
                for c in range(C):
                    for r in range(R):
                        for s in range(S):
                            h = p * stride + r - pad
                            w = q * stride + s - pad
                            if 0 <= h < H and 0 <= w < W:
                                acc += int(ifmap[c, h, w]) * int(weights[k, c, r, s])
                out[k, p, q] = acc
    return out


def maxpool_brute(arr, pool):
    K, P, Q = arr.shape
    out = np.zeros((K, P // pool, Q // pool), dtype=arr.dtype)
    for k in range(K):
        for i in range(P // pool):
            for j in range(Q // pool):
                out[k, i, j] = arr[k, i * pool : (i + 1) * pool, j * pool : (j + 1) * pool].max()
    return out


def nsqf_sieve(limit):
    """Boolean array of length limit+1; True where some prime square divides n."""
    prime = np.ones(limit + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    mask = np.zeros(limit + 1, dtype=bool)
    for p in range(2, int(limit**0.5) + 1):
        if prime[p]:
            mask[p * p :: p * p] = True
    return mask


def nsqf_mask_modulo(lo, hi):
    """uint8 mask over [lo, hi]: one full-range modulo pass per d = 2..isqrt(hi)."""
    out = np.zeros(hi - lo + 1, dtype=np.uint8)
    vals = np.arange(lo, hi + 1, dtype=np.int64)
    d = 2
    while d * d <= hi:
        out[vals % (d * d) == 0] = 1
        d += 1
    return out


def fold_nearest_searchsorted(h, lo, hi):
    """(values, pmf) of mellin.smart_search_space: h interpolated onto the
    integers of [lo, hi], each integer's mass added to its nearest NSQF
    integer (ties go low) found by binary search, then normalized."""
    from scipy.interpolate import PchipInterpolator

    nsqf_vals = np.flatnonzero(nsqf_sieve(hi)[lo:]).astype(np.int64) + lo
    ints = np.arange(lo, hi + 1, dtype=np.int64)
    interp = PchipInterpolator(h.x, h.f, extrapolate=False)
    masses = np.maximum(np.nan_to_num(interp(ints.astype(float)), nan=0.0), 0.0)
    idx = np.searchsorted(nsqf_vals, ints)
    left_idx = np.clip(idx - 1, 0, nsqf_vals.size - 1)
    right_idx = np.clip(idx, 0, nsqf_vals.size - 1)
    dist_left = np.where(idx > 0, ints - nsqf_vals[left_idx], np.iinfo(np.int64).max)
    dist_right = np.where(idx < nsqf_vals.size, nsqf_vals[right_idx] - ints, np.iinfo(np.int64).max)
    target = np.where(dist_left <= dist_right, left_idx, right_idx)
    pmf = np.zeros(nsqf_vals.size)
    np.add.at(pmf, target, masses)
    return nsqf_vals, pmf / pmf.sum()


# ---------------------------------------------------------------------------
# Mellin engine: the quadratic-cost transform and a Monte-Carlo product that
# check neuroplug.mellin's FFT path, and the densities and distance they use


def mellin_riemann(pdf, s_points):
    """Direct Riemann-sum transform; quadratic cost."""
    s = np.atleast_1d(np.asarray(s_points, dtype=complex))
    if np.any(s.real <= 0):
        raise DomainError("transform strip is Re(s) > 0 for these densities")
    w = pdf.f * pdf.weights()
    lx = np.log(pdf.x)
    vals = np.exp(np.outer(s - 1, lx)) @ w
    return MellinFn(s=s, values=vals, c=float(s.real[0]), t0=float(lx[0]), dt=0.0)


def point_mass(value, rel_width=1e-3, n=33):
    """Narrow triangular spike standing in for a point mass."""
    half = max(value * rel_width, 1e-12)
    x = np.linspace(value - half, value + half, n)
    f = np.maximum(0.0, 1.0 - np.abs(x - value) / half) / half
    return GridPdf(x, f).normalized()


def cdf_values(pdf):
    """Trapezoid-rule cumulative mass at each grid point."""
    return np.concatenate(([0.0], np.cumsum(0.5 * (pdf.f[1:] + pdf.f[:-1]) * np.diff(pdf.x))))


def sample(pdf, rng, n):
    """n draws by inverting the piecewise-linear cdf."""
    cdf = cdf_values(pdf)
    total = cdf[-1]
    if total <= 0:
        raise DomainError("cannot sample zero mass")
    u = rng.uniform(0, total, size=n)
    return np.interp(u, cdf, pdf.x)


def product_pdf_mc(u, v, rng, draws):
    """Density of X = U*V from draws of U then V, histogrammed on 512
    geometric bins."""
    xs = sample(u, rng, draws) * sample(v, rng, draws)
    lo, hi = xs.min(), xs.max()
    edges = np.geomspace(lo, hi * (1 + 1e-12), 513)
    counts, edges = np.histogram(xs, bins=edges)
    centers = np.sqrt(edges[:-1] * edges[1:])
    dens = counts / (draws * np.diff(edges))
    return GridPdf(centers, dens).normalized()


def tv_distance(p, q, n_bins=256):
    """Total-variation distance via per-bin masses on a shared log grid."""
    lo = min(p.x[0], q.x[0])
    hi = max(p.x[-1], q.x[-1])
    edges = np.geomspace(lo, hi, n_bins + 1)

    def bin_mass(pdf):
        cdf = cdf_values(pdf)
        total = cdf[-1]
        vals = np.interp(edges, pdf.x, cdf / total, left=0.0, right=1.0)
        return np.diff(vals)

    return 0.5 * float(np.abs(bin_mass(p) - bin_mass(q)).sum())


def runs_test_reference(bits):
    """NIST SP 800-22 runs test evaluated straight from the formula."""
    import math

    n = len(bits)
    pi = sum(bits) / n
    v = 1 + sum(1 for i in range(1, n) if bits[i] != bits[i - 1])
    num = abs(v - 2 * n * pi * (1 - pi))
    den = 2 * math.sqrt(2 * n) * pi * (1 - pi)
    return math.erfc(num / den)


def trapz_mass(x, f):
    return float(np.trapezoid(f, x))


# ---------------------------------------------------------------------------
# tile compression: the byte-at-a-time and heapq versions of the kernels in
# neuroplug._kernels and neuroplug.binpack, which must match them bit for bit


def rle_encode_loop(data):
    """Zero runs become (0, runlen) pairs, runlen in 1..255; other bytes copy."""
    data = np.ascontiguousarray(data, dtype=np.uint8)
    n = data.size
    out = np.empty(2 * n + 2, dtype=np.uint8)
    i = 0
    j = 0
    while i < n:
        if data[i] == 0:
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


def huff_encode_loop(tokens, codes, lens):
    """MSB-first bit accumulator; the tail byte is zero-padded."""
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


def huffman_lengths_heapq(freq, max_len=56):
    """Code lengths from a heap of (freq, id, node) tuples; leaf ids are the
    symbols, internal ids count up from 256.  Frequencies are halved and the
    tree rebuilt while a code is longer than max_len."""
    freq = np.asarray(freq).astype(np.int64).copy()
    while True:
        present = np.flatnonzero(freq)
        lens = np.zeros(256, dtype=np.uint8)
        if present.size == 0:
            return lens
        if present.size == 1:
            lens[present[0]] = 1
            return lens
        heap = [(int(freq[s]), int(s), int(s)) for s in present]
        heapq.heapify(heap)
        parent = {}
        counter = 256
        while len(heap) > 1:
            fa, _, a = heapq.heappop(heap)
            fb, _, b = heapq.heappop(heap)
            parent[a] = counter
            parent[b] = counter
            heapq.heappush(heap, (fa + fb, counter, counter))
            counter += 1
        for s in present:
            d = 0
            node = int(s)
            while node in parent:
                node = parent[node]
                d += 1
            lens[s] = d
        if lens.max() <= max_len:
            return lens
        freq[present] = (freq[present] + 1) >> 1


def canonical_tables_sequential(lens):
    """Canonical codes assigned one symbol at a time in (length, symbol)
    order, plus the per-length decode tables (first/count/offset/symtab)."""
    lens = np.asarray(lens)
    maxlen = int(lens.max())
    order = sorted(int(s) for s in np.flatnonzero(lens))
    order.sort(key=lambda s: (lens[s], s))
    codes = np.zeros(256, dtype=np.uint64)
    first = np.zeros(maxlen + 1, dtype=np.int64)
    count = np.zeros(maxlen + 1, dtype=np.int64)
    offset = np.zeros(maxlen + 1, dtype=np.int64)
    symtab = np.zeros(len(order), dtype=np.uint8)
    code = 0
    prev_len = int(lens[order[0]]) if order else 0
    for i, s in enumerate(order):
        l = int(lens[s])
        if i == 0:
            code = 0
            first[l] = 0
        else:
            code += 1
            if l > prev_len:
                code <<= l - prev_len
        if count[l] == 0:
            first[l] = code
            offset[l] = i
        codes[s] = code
        count[l] += 1
        symtab[i] = s
        prev_len = l
    return codes, first, count, offset, symtab, maxlen


# ---------------------------------------------------------------------------
# trace reading: the interval-merge loop and the per-event digest walk that
# neuroplug.attacks replaced with sorts, searchsorted and adjacent compares


def merged_intervals_loop(ranges):
    """Sorted [start, end) ranges merged one at a time; touching ranges merge."""
    starts = ranges["addr"].astype(np.int64)
    ends = starts + ranges["size"].astype(np.int64)
    order = np.argsort(starts, kind="stable")
    m_starts, m_ends = [], []
    for s, e in zip(starts[order].tolist(), ends[order].tolist()):
        if m_ends and s <= m_ends[-1]:
            m_ends[-1] = max(m_ends[-1], e)
        else:
            m_starts.append(s)
            m_ends.append(e)
    return np.array(m_starts, dtype=np.int64), np.array(m_ends, dtype=np.int64)


def overlapping_merged(rows, against):
    """Mask over rows: the merged range starting last before a row's end
    reaches past the row's start."""
    m_starts, m_ends = merged_intervals_loop(against)
    out = np.zeros(len(rows), dtype=bool)
    for i, (a, n) in enumerate(zip(rows["addr"].tolist(), rows["size"].tolist())):
        j = int(np.searchsorted(m_starts, a + n, side="left")) - 1
        out[i] = j >= 0 and m_ends[j] > a
    return out


def fake_rewrites_loop(arr):
    """Per-event walk: a write is fake when its nonzero digest equals the
    digest of the previous write to the same address."""
    fake = np.zeros(len(arr), dtype=bool)
    last_digest = {}
    for idx in range(len(arr)):
        if arr["op"][idx] != OP_WRITE:
            continue
        a, d = int(arr["addr"][idx]), int(arr["digest"][idx])
        if last_digest.get(a) == d and d != 0:
            fake[idx] = True
        last_digest[a] = d
    return fake
