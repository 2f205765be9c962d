"""Independent slow oracles used across the test suite.

Everything here is deliberately naive (loops, sieves, quadrature) and kept
separate from the code paths under test.
"""

import hashlib
import heapq
import math
from typing import NamedTuple

import numpy as np

from neuroplug import sfc, tracegen
from neuroplug.binpack import (
    TABLE_ENTRY_BYTES,
    BinConfig,
    BinPackReport,
    CompressedTile,
    NoiseSpec,
    half_normal,
    table_bytes,
)
from neuroplug.errors import ConfigError, DomainError, PlanningError
from neuroplug.mellin import GridPdf, MellinFn
from neuroplug.tracegen import (
    CHUNK_TARGET,
    CONST_MEAN,
    DUMMY_RATIO,
    EVENT_DTYPE,
    FMAP_REGION,
    JITTER,
    OP_READ,
    OP_WRITE,
    REGION_SHIFT,
    T_TILE,
    Trace,
    compute_net_data,
    dummy_base,
    fmap_base,
    weight_base,
)


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


# ---------------------------------------------------------------------------
# tile compression: the byte-at-a-time and heapq versions of the kernels in
# neuroplug._kernels and neuroplug.binpack, which must match them bit for bit


def varint_encode_loop(n):
    """n >= 0 in 7-bit groups, the low group first, each but the last with
    its top bit set."""
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


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


def rle_decode_loop(tokens):
    """A size pass, then a token walk that copies nonzero runs and expands
    (0, runlen) pairs; None if a zero token lacks a run length in 1..255."""
    tokens = np.ascontiguousarray(tokens, dtype=np.uint8)
    n = tokens.size
    i = 0
    size = 0
    while i < n:
        if tokens[i] == 0:
            if i + 1 >= n or tokens[i + 1] == 0:
                return None
            size += int(tokens[i + 1])
            i += 2
        else:
            size += 1
            i += 1
    out = np.empty(size, dtype=np.uint8)
    i = 0
    j = 0
    while i < n:
        if tokens[i] == 0:
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


def huff_decode_tables(bits, n_tokens, first, count, offset, symtab, maxlen):
    """Decode n_tokens symbols one bit at a time with canonical_tables_sequential's
    tables: the codes of length l are count[l] consecutive values from
    first[l], decoding to symtab[offset[l]:].  None if the bits run out or a
    code grows past maxlen."""
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


# ---------------------------------------------------------------------------
# trace building: the per-event emitter and the per-model splices that
# neuroplug.tracegen replaced with one row builder and one splice


class _Emitter:
    def __init__(self):
        self.rows = []
        self.clock = 0

    def emit(self, op, addr, size, digest=0):
        self.rows.append((op, addr, size, self.clock, digest))
        self.clock += max(1, -(-size // 64)) * 4

    def advance(self, cycles):
        self.clock += cycles

    def build(self):
        return Trace(np.array(self.rows, dtype=EVENT_DTYPE))


def _digest64(data):
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def _tile_size_digest(tensor, sl, cap_actual, sparse, observe_values):
    if tensor is None:
        return cap_actual, 0
    c0, c1, r0, r1, w0, w1 = sl
    view = tensor[c0:c1, r0:r1, w0:w1]
    size = int(np.count_nonzero(view)) if sparse else cap_actual
    dig = _digest64(np.ascontiguousarray(view).tobytes()) if observe_values else 0
    return size, dig


def baseline_trace_loop(net, input_tensor, seed=0, sparse=False, observe_values=False, data=None):
    """One event at a time, in loop-nest order: per layer and output-map
    block each channel group's weight block and input tiles (each tile
    advancing the clock by T_TILE), then the block's output tiles; size-0
    events are not emitted."""
    need_values = sparse or observe_values
    if need_values and data is None:
        data = compute_net_data(net, input_tensor, seed)
    em = _Emitter()
    for i, layer in enumerate(net.layers):
        shp, til = layer.shape, layer.tiling
        n_k = math.ceil(shp.k / til.tk)
        n_c = math.ceil(shp.c / til.tc)
        in_tiles, _ = sfc.ifmap_walk(shp, til)
        out_tiles, _ = sfc.ofmap_walk(shp, til)
        wblock_cap = til.tk * til.tc * shp.r * shp.s
        in_tensor = data.fmaps[i] if need_values else None
        out_tensor = data.fmaps[i + 1] if need_values else None
        for ko in range(n_k):
            k0 = ko * til.tk
            k1 = min(shp.k, k0 + til.tk)
            for co in range(n_c):
                c0 = co * til.tc
                c1 = min(shp.c, c0 + til.tc)
                wsize = (k1 - k0) * (c1 - c0) * shp.r * shp.s
                wdig = 0
                if need_values:
                    blk = data.weights[i][k0:k1, c0:c1]
                    if sparse:
                        wsize = int(np.count_nonzero(blk))
                    if observe_values:
                        wdig = _digest64(np.ascontiguousarray(blk).tobytes())
                if wsize > 0:
                    em.emit(OP_READ, weight_base(i) + (ko * n_c + co) * wblock_cap, wsize, wdig)
                for off, sl, actual in in_tiles:
                    if sl[0] != c0:
                        continue
                    size, dig = _tile_size_digest(in_tensor, sl, actual, sparse, observe_values)
                    if size > 0:
                        em.emit(OP_READ, fmap_base(i) + off, size, dig)
                    em.advance(T_TILE)
            for off, sl, actual in out_tiles:
                if sl[0] != k0:
                    continue
                size, dig = _tile_size_digest(out_tensor, sl, actual, sparse, observe_values)
                if size > 0:
                    em.emit(OP_WRITE, fmap_base(i + 1) + off, size, dig)
    return em.build()


def additive_cm_loop(base, net, cm_model, seed=0, run_index=0):
    """Each additive model as its own per-layer cut-and-insert over a dense
    baseline from baseline_trace_loop: after a layer's last write of its
    output map (dummy writes) or last read of its input map (const-mean)."""
    rng = np.random.default_rng([seed, run_index, 0xC3])
    chunks = []
    pos = 0
    arr = base.arr
    for i, layer in enumerate(net.layers):
        region = arr["addr"] >> REGION_SHIFT
        if cm_model == "dummy-writes":
            out_tiles, out_cap = sfc.ofmap_walk(layer.shape, layer.tiling)
            idx = np.flatnonzero((arr["op"] == OP_WRITE) & (region == FMAP_REGION + i + 1))
            cut = idx[-1] + 1
            chunks.append(arr[pos:cut])
            n_dummy = max(1, round(DUMMY_RATIO * len(out_tiles)))
            extra = np.zeros(n_dummy, dtype=EVENT_DTYPE)
            extra["op"] = OP_WRITE
            extra["addr"] = dummy_base(i) + np.arange(n_dummy) * out_cap
            extra["size"] = out_cap
            extra["t"] = arr["t"][cut - 1]
            extra["digest"] = rng.integers(1, 1 << 63, size=n_dummy)
            chunks.append(extra)
            pos = cut
        elif cm_model == "const-mean":
            in_tiles, in_cap = sfc.ifmap_walk(layer.shape, layer.tiling)
            idx = np.flatnonzero((arr["op"] == OP_READ) & (region == FMAP_REGION + i))
            cut = idx[-1] + 1
            chunks.append(arr[pos:cut])
            total = CONST_MEAN + int(rng.integers(JITTER[0], JITTER[1] + 1))
            sizes = []
            while total > 0:
                take = min(total, in_cap)
                sizes.append(take)
                total -= take
            extra = np.zeros(len(sizes), dtype=EVENT_DTYPE)
            extra["op"] = OP_READ
            ext_base = fmap_base(i) + sum(a for _, _, a in in_tiles)
            extra["addr"] = ext_base + np.cumsum([0] + sizes[:-1])
            extra["size"] = sizes
            extra["t"] = arr["t"][cut - 1]
            chunks.append(extra)
            pos = cut
        else:
            idx = np.flatnonzero((arr["op"] == OP_WRITE) & (region == FMAP_REGION + i + 1))
            if idx.size < 2:
                continue
            chunks.append(arr[pos : idx[0]])
            writes = arr[idx]
            h = idx.size // 2
            read_back = writes[:h].copy()
            read_back["op"] = OP_READ
            chunks += [writes[:h], read_back, writes[:h], writes[h:]]
            pos = idx[-1] + 1
    chunks.append(arr[pos:])
    return Trace(np.concatenate(chunks))


def segment_trace_loop(arr) -> list[np.ndarray]:
    """Split on the first read of data written in the current segment, one
    event at a time, then move trailing weight reads one at a time."""
    boundaries = [0]
    w_starts: list[int] = []
    w_ends: list[int] = []
    for idx in range(len(arr)):
        a = int(arr["addr"][idx])
        size = int(arr["size"][idx])
        if arr["op"][idx] == OP_WRITE:
            w_starts.append(a)
            w_ends.append(a + size)
        else:
            if w_starts:
                ws = np.array(w_starts)
                we = np.array(w_ends)
                if np.any((ws < a + size) & (we > a)):
                    boundaries.append(idx)
                    w_starts, w_ends = [], []
    boundaries.append(len(arr))
    segments = [np.arange(boundaries[i], boundaries[i + 1]) for i in range(len(boundaries) - 1)]
    segments = [s for s in segments if s.size]
    # a block's first weight fetch can precede the boundary read; move
    # trailing reads of a region that dominates the next segment
    for i in range(len(segments) - 1):
        cur, nxt = segments[i], segments[i + 1]
        nxt_regions = set((arr["addr"][nxt] >> REGION_SHIFT).tolist())
        j = cur.size - 1
        moved = []
        while j >= 0:
            idx = cur[j]
            rid = int(arr["addr"][idx]) >> REGION_SHIFT
            if arr["op"][idx] == OP_READ and rid >= tracegen.WEIGHT_REGION and rid in nxt_regions:
                moved.append(idx)
                j -= 1
            else:
                break
        if moved:
            segments[i] = cur[: j + 1]
            segments[i + 1] = np.concatenate([np.array(sorted(moved)), nxt])
    return segments


# ---------------------------------------------------------------------------
# bin packing: the closure-state loop that neuroplug.binpack.pack_bins
# replaced with one layout pass, with its own entry and bin records


class LoopEntry(NamedTuple):
    tile_id: int
    offset: int  # relative to the payload area
    length: int
    continuation: bool


class LoopBin(NamedTuple):
    index: int
    entries: list
    payload: np.ndarray | None
    empty_pad: int
    noise_reserved: int


def pack_bins_loop(
    tiles: list[CompressedTile],
    cfg: BinConfig,
    noise: NoiseSpec,
    rng: np.random.Generator,
    layer: str = "",
    assemble: bool = True,
) -> tuple[list[LoopBin], BinPackReport]:
    """First-fit sequential packing in curve order.

    Each bin reserves a fresh noise draw of empty space before data is
    admitted; tiles split across bin boundaries get continuation entries;
    at most kappa entries start per bin.  The Gaussian noise variance is
    drawn once per call, so consecutive layers carry different variances.
    The noise floor alpha must leave room for one entry and one payload
    byte; only the half-normal tail above it is clamped to fit.
    """
    cfg.validate()
    noise.validate()
    entry = TABLE_ENTRY_BYTES
    room = cfg.bin_size - table_bytes(1) - 1
    if noise.alpha > room:
        raise ConfigError(f"noise floor alpha={noise.alpha} leaves no payload room in a "
                          f"{cfg.bin_size} B bin (at most {room})")
    if not tiles:
        return [], BinPackReport(layer, 0, 0, 1.0, 0, 0, 0)
    sigma2 = rng.uniform(0.0, noise.sigma2_max)
    sigma = math.sqrt(sigma2)

    def draw_noise() -> int:
        return min(noise.alpha + int(half_normal(rng, sigma, noise.support_r)), room)

    bins: list[LoopBin] = []
    cur_entries: list[LoopEntry] = []
    cur_segments: list[np.ndarray] = []
    cur_used = 0  # entry + segment bytes consumed
    cur_noise = draw_noise()
    cur_payload_off = 0
    noise_total = 0

    def close_bin():
        nonlocal cur_entries, cur_segments, cur_used, cur_noise, cur_payload_off, noise_total
        payload = None
        if assemble:
            payload = (
                np.concatenate(cur_segments)
                if cur_segments
                else np.zeros(0, dtype=np.uint8)
            )
        seg_bytes = sum(e.length for e in cur_entries)
        bins.append(
            LoopBin(
                index=len(bins),
                entries=cur_entries,
                payload=payload,
                empty_pad=cfg.bin_size - table_bytes(len(cur_entries)) - seg_bytes,
                noise_reserved=cur_noise,
            )
        )
        noise_total += cur_noise
        cur_entries = []
        cur_segments = []
        cur_used = 0
        cur_payload_off = 0
        cur_noise = draw_noise()

    for tile_id, tile in enumerate(tiles):
        remaining = tile.payload.size
        taken = 0
        first_entry = True
        while remaining > 0:
            free = cfg.bin_size - 2 - cur_noise - cur_used - entry
            if free <= 0 or len(cur_entries) >= cfg.kappa:
                close_bin()
                continue
            take = min(remaining, free)
            cur_entries.append(
                LoopEntry(
                    tile_id=tile_id,
                    offset=cur_payload_off,
                    length=take,
                    continuation=not first_entry,
                )
            )
            if assemble:
                seg = tile.payload[taken : taken + take]
                cur_segments.append(np.ascontiguousarray(seg, dtype=np.uint8))
            cur_used += entry + take
            cur_payload_off += take
            taken += take
            remaining -= take
            first_entry = False
    if cur_entries:
        close_bin()

    raw_total = sum(t.raw_size for t in tiles)
    comp_total = sum(t.payload.size for t in tiles)
    report = BinPackReport(
        layer=layer,
        tiles_in=len(tiles),
        bins_out=len(bins),
        beta=comp_total / raw_total if raw_total else 1.0,
        noise_total=noise_total,
        raw_total=raw_total,
        comp_total=comp_total,
    )
    return bins, report


def strip_dummies(data: np.ndarray, spans) -> np.ndarray:
    """The bytes of data outside the (offset, length) dummy spans."""
    if not spans:
        return np.asarray(data, dtype=np.uint8).copy()
    keep = np.ones(len(data), dtype=bool)
    for off, ln in spans:
        keep[off : off + ln] = False
    return np.asarray(data, dtype=np.uint8)[keep]


def bins_of(run, layer: int, stream: str) -> int:
    """The bin count a NeuroPlug run lists for one layer's stream."""
    (n_bins,) = [s.n_bins for s in run.streams if (s.layer, s.stream) == (layer, stream)]
    return n_bins


# ---------------------------------------------------------------------------
# weight pruning: the full two-key sort that neuroplug.model.generate_weights
# replaced with one threshold and a tie prefix


def generate_weights_lexsort(net, seed):
    """Per-layer (k, c, r, s) int8 filters, pruned by ranking every weight
    on (magnitude, element index) and zeroing the round(sparsity * size)
    first; the same draws as `model.generate_weights`."""
    out = []
    for idx, layer in enumerate(net.layers):
        sh = layer.shape
        rng = np.random.default_rng([seed, idx, 0xEE17])
        w = rng.integers(-64, 64, size=(sh.k, sh.c, sh.r, sh.s), dtype=np.int8)
        if layer.sparsity > 0:
            flat = w.reshape(-1)
            n_zero = round(layer.sparsity * flat.size)
            order = np.lexsort((np.arange(flat.size), np.abs(flat)))
            flat[order[:n_zero]] = 0
        out.append(w)
    return out


# ---------------------------------------------------------------------------
# storage chunks: the per-tile concatenation that neuroplug.tracegen's
# curve image cut at chunk_ends replaced


def coalesced_raw_chunks(tensor: np.ndarray, entries) -> list[np.ndarray]:
    """Concatenate consecutive curve tiles into storage chunks of about
    CHUNK_TARGET bytes.

    Tiny deep tiles (pooling shrinks them fast) are re-created as larger
    units before compression so the bin table stays useful.
    """
    chunks = []
    cur: list[np.ndarray] = []
    cur_bytes = 0
    for _slot, (c0, c1, r0, r1, w0, w1), _actual in entries:
        piece = np.ascontiguousarray(tensor[c0:c1, r0:r1, w0:w1]).view(np.uint8).reshape(-1)
        cur.append(piece)
        cur_bytes += piece.size
        if cur_bytes >= CHUNK_TARGET:
            chunks.append(np.concatenate(cur))
            cur, cur_bytes = [], 0
    if cur:
        chunks.append(np.concatenate(cur))
    return chunks


# ---------------------------------------------------------------------------
# network configs: the inverse of neuroplug.model.network_from_json, which
# only tests need


def network_to_json(net) -> dict:
    layers = []
    for layer in net.layers:
        sh, ti = layer.shape, layer.tiling
        layers.append(
            {
                "k": sh.k, "c": sh.c, "h": sh.h, "w": sh.w, "r": sh.r, "s": sh.s,
                "stride": sh.stride, "pad": sh.pad, "pool": sh.pool,
                "sparsity": layer.sparsity,
                "tiling": {"tk": ti.tk, "tc": ti.tc, "th": ti.th, "tw": ti.tw},
            }
        )
    return {"name": net.name, "layers": layers}


# ---------------------------------------------------------------------------
# execution planning: one branch per capacity case, each drawing its own
# partition, which neuroplug.sfc's one weight and one ifmap budget replaced


def plan_execution_cases(layer, tiling, npu_capacity_bytes, rng, bin_size, ifmap_bins):
    """The capacity case and randomized partitions for one layer, chosen
    branch by branch on raw byte footprints; the same draws as
    `sfc.plan_execution`."""
    w_bytes = sfc.weight_bytes(layer)
    i_bytes = sfc.ifmap_bytes(layer)
    tile_bytes = tiling.tc * tiling.th * tiling.tw
    if npu_capacity_bytes < max(tile_bytes, bin_size):
        raise PlanningError(
            f"capacity {npu_capacity_bytes} below one deep tile ({tile_bytes}) or bin ({bin_size})"
        )
    seed = int(rng.integers(0, 2**31 - 1))

    kernel_bytes = layer.c * layer.r * layer.s
    weights_fit = w_bytes + tile_bytes <= npu_capacity_bytes
    both_fit = w_bytes + i_bytes <= npu_capacity_bytes
    ifmap_fits = i_bytes + tile_bytes <= npu_capacity_bytes

    if both_fit:
        plan = sfc.ExecutionPlan(sfc.CASE_ALL_FIT, [layer.k], [ifmap_bins], 1, 1, seed)
    elif not weights_fit and ifmap_fits:
        # case I: stream the weights in n randomly sized chunks of output maps
        headroom = npu_capacity_bytes - i_bytes
        k_cap = max(1, headroom // kernel_bytes)
        n_min = max(2, math.ceil(layer.k / k_cap))
        n = min(layer.k, n_min + sfc._noise_int(rng, 1.5))
        partition = sfc._random_composition(rng, layer.k, n, k_cap)
        plan = sfc.ExecutionPlan(sfc.CASE_I, partition, [ifmap_bins], 1, 1, seed)
    elif weights_fit:
        # case II: chop the ifmap walk into groups of bins that fit beside the weights
        g_max = max(1, (npu_capacity_bytes - w_bytes) // bin_size)
        groups = sfc._chop(ifmap_bins, g_max)
        plan = sfc.ExecutionPlan(sfc.CASE_II, [layer.k], groups, 1, 1, seed)
    else:
        # case III: both overflow; weights streamed per ifmap group, unrolled
        half = npu_capacity_bytes // 2
        k_cap = max(1, half // kernel_bytes)
        n_min = max(2, math.ceil(layer.k / k_cap))
        n = min(layer.k, n_min + sfc._noise_int(rng, 1.5))
        partition = sfc._random_composition(rng, layer.k, n, k_cap)
        g_max = max(1, half // bin_size)
        groups = sfc._chop(ifmap_bins, g_max)
        tau = len(groups)
        eta = 1 + sfc._noise_int(rng, 1.0)
        eta = max(1, min(eta, tau))
        plan = sfc.ExecutionPlan(sfc.CASE_III, partition, groups, tau, eta, seed)
    plan.validate(layer.k)
    return plan
