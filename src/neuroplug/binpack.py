"""Tile compression and fixed-size bin packing with keyed empty-space noise.

Tiles are compressed with a zero run-length pass followed by a canonical
Huffman pass, or stored raw behind a mode byte where that container would
not be shorter.  The stored decision comes before any Huffman work when a
floor on the Huffman container from the token counts alone (header and
code table, plus Shannon's n * H bits and at least a bit per token)
already reaches the stored size; the container is the same either way.
The Huffman container lists (symbol, code length) pairs; canonical codes
follow from them (RFC 1951 section 3.2.2), so the decoder takes only the
number of codes of each length and the symbols in (length, symbol) order.
`compress_stream` codes a whole stream (a map's chunks, a layer's weight
rows) in one pass where it can: the RLE pass, the token histograms, the
floors, the canonical codes, the headers, the code tables and the stored
tiles are computed once per stream; the code lengths and the Huffman
bitstream are made per tile.  A tile's container is the same in any stream.
Tiles are then packed first-fit in curve order into bins of exactly
``bin_size`` bytes.  Every bin reserves a noise-drawn slice of empty space,
so the observable bin count is an affine function of the true data volume:
a compression factor times the tile bytes plus keyed additive slack.
`pack_bins` decides the bin count in one layout pass over plain integers,
drawing the noise in a fixed order (see its docstring), and only then
builds the bins and their payloads.

Wire image of a bin (little-endian):
    [u16 n_entries][entries ...][payload segments ...][zero pad]
    entry: [u32 id | bit31 = continuation][u16 offset][u16 length]
each entry is TABLE_ENTRY_BYTES = 8 bytes; offsets are relative to the
payload area, which starts right after the table, and the segments lie
back to back from offset 0 in table order.  An entry's id is its tile's
place in the stream (0, 1, ...).  A `Bin` holds its table in this wire
dtype, so the table has one form in memory and on the wire.
Dummy-byte spans are keyed metadata that stay on the `CompressedTile`;
a bin carries only the stored bytes, and unpacking returns them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, DomainError, IntegrityError

MODE_STORED = 0
MODE_RLE_HUF = 1
_CONT_BIT = 1 << 31
_MAX_CODE_LEN = 56
_TABLE_ENTRY = np.dtype([("id", "<u4"), ("offset", "<u2"), ("length", "<u2")])
TABLE_ENTRY_BYTES = _TABLE_ENTRY.itemsize


def table_bytes(n: int) -> int:
    """Bytes of a bin table with n entries: the u16 count, then the entries."""
    return 2 + n * TABLE_ENTRY_BYTES


def half_normal(rng: np.random.Generator, sigma: float, cap: float) -> float:
    """|N(0, sigma)| clipped to cap; 0 without drawing when sigma is 0."""
    return min(abs(rng.normal(0.0, sigma)) if sigma > 0 else 0.0, cap)


@dataclass(frozen=True)
class BinConfig:
    bin_size: int = 61440
    kappa: int = 8

    def validate(self) -> None:
        if self.kappa < 1:
            raise ConfigError("kappa must be >= 1")
        if self.bin_size <= table_bytes(self.kappa):
            raise ConfigError("bin_size must exceed the full table capacity")
        if self.bin_size > 0xFFFF:
            raise ConfigError("bin_size must fit 16-bit offsets")


@dataclass(frozen=True)
class NoiseSpec:
    """Keyed parameters of the additive empty-space noise.

    alpha is the constant floor, on top of which sits a half-normal draw
    whose variance is itself uniform-drawn (heteroskedastic) and whose
    support is clipped to [0, support_r].
    """

    alpha: int = 8000
    support_r: int = 4096
    sigma2_max: float = 1 << 20
    dummy_bytes_first_layer: int = 512

    def validate(self) -> None:
        if self.alpha < 0 or self.support_r < 0 or self.sigma2_max < 0:
            raise ConfigError("noise parameters must be nonnegative")
        if self.dummy_bytes_first_layer < 0:
            raise ConfigError("dummy byte count must be nonnegative")


# ---------------------------------------------------------------------------
# compression


@dataclass
class CompressedTile:
    raw_size: int
    payload: np.ndarray
    dummy_spans: tuple = ()  # (offset, length) of dummy bytes in the raw tile

    def __post_init__(self):
        if self.payload.size == 0:
            raise DomainError("a compressed tile needs at least one payload byte")

    @property
    def comp_size(self) -> int:
        return self.payload.size


def _huffman_lengths(freq: np.ndarray) -> np.ndarray:
    """Code lengths (0 for absent symbols), capped at _MAX_CODE_LEN.

    Two-queue Huffman: leaves sorted stably by frequency, internal nodes in
    the order they are made (their weights never decrease), and a leaf wins
    a weight tie.  That is the merge order of a heap on (weight, id) whose
    leaf ids are the symbols and whose internal ids count up from 256.  While
    a code is too long the frequencies are halved, rounding up, and the tree
    is rebuilt.  The merge runs on Python ints.
    """
    present = freq.nonzero()[0]
    weights = freq[present].astype(np.int64)
    lens = np.zeros(256, dtype=np.uint8)
    n = weights.size
    if n <= 1:
        lens[present] = 1
        return lens
    while True:
        order = weights.argsort(kind="stable")
        # the sentinel weight ends each queue: past the last leaf, and at
        # internal nodes not made yet
        leaf_w = weights[order].tolist() + [math.inf]
        node_w = [math.inf] * (n - 1)
        # parent of leaves 0..n-1, then of internal nodes 0..n-3 at n + i;
        # internal node n-2 is the root
        parent = [0] * (2 * n - 2)
        li = ni = 0
        for node in range(n - 1):  # the two lightest queue heads merge
            if leaf_w[li] <= node_w[ni]:
                w = leaf_w[li]
                parent[li] = node
                li += 1
            else:
                w = node_w[ni]
                parent[n + ni] = node
                ni += 1
            if leaf_w[li] <= node_w[ni]:
                w += leaf_w[li]
                parent[li] = node
                li += 1
            else:
                w += node_w[ni]
                parent[n + ni] = node
                ni += 1
            node_w[node] = w
        depth = [0] * (n - 1)
        for i in range(n - 3, -1, -1):
            depth[i] = depth[parent[n + i]] + 1
        leaf_len = [depth[p] + 1 for p in parent[:n]]
        if max(leaf_len) <= _MAX_CODE_LEN:
            lens[present[order]] = leaf_len
            return lens
        weights = (weights + 1) >> 1


def _canonical_codes(lens: np.ndarray) -> np.ndarray:
    """Canonical codes (uint64, 0 for absent symbols) of code lengths given
    as rows of 256, one code per row (a 1-D lens is one code).

    As in RFC 1951 section 3.2.2, symbols sorted by (length, symbol) take
    consecutive codes, lengthened with zeros where the length grows.  So the
    code of a symbol is the code space that the symbols before it take, in
    units of its own length: sum over them of 2**(maxlen - length), shifted
    right by maxlen - its length.  Absent symbols sort first and take no
    space.  The lengths must satisfy Kraft's inequality.
    """
    lens = np.asarray(lens)
    table = lens.reshape(-1, 256)
    rows = np.arange(len(table))[:, None]
    order = np.argsort(table, axis=1, kind="stable")  # (length, symbol) order
    in_order = table[rows, order]
    shift = (in_order[:, -1:] - in_order).astype(np.uint64)  # maxlen - length
    space = np.left_shift((in_order > 0).astype(np.uint64), shift)  # in maxlen-bit units
    codes = np.empty(table.shape, dtype=np.uint64)
    codes[rows, order] = (np.cumsum(space, axis=1) - space) >> shift
    return codes.reshape(lens.shape)


_VARINT_STEPS = 1 << np.arange(7, 63, 7)  # the least n whose varint takes 2, 3, ... bytes


def _varint_len(n) -> np.ndarray:
    """Bytes of the varint of each n >= 0: 7 bits a byte, the low bits first."""
    return 1 + np.searchsorted(_VARINT_STEPS, n, side="right")


def _varint_decode(data: np.ndarray, pos: int) -> tuple[int, int]:
    n = 0
    shift = 0
    while True:
        if pos >= data.size:
            raise IntegrityError("truncated varint")
        b = int(data[pos])
        pos += 1
        n |= (b & 0x7F) << shift
        if not (b & 0x80):
            return n, pos
        shift += 7


def _size_floor(n_tokens: np.ndarray, freq: np.ndarray) -> np.ndarray:
    """A lower bound on the bytes of the RLE+Huffman container of each
    tile, from its token count n_tokens[j] and its token histogram freq[j]
    (a row of 256 counts).

    The header and code table take 2 + len(varint(n)) + 2 * n_sym bytes.
    Every prefix code spends at least n * H bits on the tokens (Shannon, H
    their empirical entropy) and at least one bit per token.  The float sum
    is shrunk by a relative 1e-9, far above its rounding error in any
    summation order, so the floor of it never exceeds n * H.
    """
    rows, syms = np.nonzero(freq)
    counts = freq[rows, syms]
    n_h = np.bincount(rows, counts * np.log2(n_tokens[rows] / counts), minlength=len(freq))
    bits = np.maximum(n_tokens, np.floor(n_h * (1 - 1e-9)).astype(np.int64))
    n_sym = np.bincount(rows, minlength=len(freq))
    return 2 + _varint_len(n_tokens) + 2 * n_sym + (bits + 7) // 8


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices starts[j] + [0, lengths[j]) of every range, in order."""
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


def compress_stream(raws, spans=None) -> list[CompressedTile]:
    """Compress each tile of a stream into a self-describing container.

    A container is RLE+Huffman unless that takes at least raw.size + 1
    bytes; then it is stored mode, one mode byte and the raw bytes.  For n
    RLE tokens over n_sym symbols with empirical entropy H, the RLE+Huffman
    container takes at least 2 + len(varint(n)) + 2 * n_sym +
    ceil(max(n, n * H) / 8) bytes (`_size_floor`); where that floor already
    reaches raw.size + 1, stored mode is chosen without building a code.

    Once per stream: the RLE pass (zero runs break at tile starts), the
    token histograms, the floors, the container sizes, the canonical codes,
    and the headers, code tables and stored tiles, all written into one
    output array whose slices are the payloads.  Per tile: the code
    lengths, where the floor leaves a chance, and the bitstream of each
    RLE+Huffman tile.  spans[j], if given, are tile j's dummy-byte spans.
    Every tile must be nonempty.
    """
    raws = [np.asarray(raw, dtype=np.uint8) for raw in raws]
    if not raws:
        return []
    sizes = np.array([raw.size for raw in raws], dtype=np.int64)
    if not sizes.all():
        raise DomainError("cannot compress an empty tile")
    n = sizes.size
    starts = sizes.cumsum() - sizes
    data = np.concatenate(raws)
    tokens, n_tok = _kernels.rle_encode(data, starts)
    freq = np.bincount(np.arange(0, 256 * n, 256).repeat(n_tok) + tokens,
                       minlength=256 * n).reshape(n, 256)
    lens = np.zeros((n, 256), dtype=np.uint8)
    for t in (_size_floor(n_tok, freq) < sizes + 1).nonzero()[0].tolist():
        lens[t] = _huffman_lengths(freq[t])
    rows, syms = lens.nonzero()
    sym_lens = lens[rows, syms]
    n_sym = np.bincount(rows, minlength=n)
    head = 2 + _varint_len(n_tok)  # mode, varint(n_tokens), n_sym - 1
    bits = np.bincount(rows, freq[rows, syms] * sym_lens, minlength=n).astype(np.int64)
    huff_size = head + 2 * n_sym + (bits + 7) // 8
    huff = (n_sym > 0) & (huff_size < sizes + 1)
    comp = np.where(huff, huff_size, sizes + 1)
    at = comp.cumsum() - comp
    out = np.empty(int(at[-1] + comp[-1]), dtype=np.uint8)

    h = huff.nonzero()[0]
    if h.size < n:  # the stored tiles, where a stream has any
        stored = (~huff).nonzero()[0]
        out[at[stored]] = MODE_STORED
        out[_ranges(at[stored] + 1, sizes[stored])] = data[_ranges(starts[stored], sizes[stored])]
        coded = huff[rows]
        rows, syms, sym_lens = rows[coded], syms[coded], sym_lens[coded]
    # the code tables: (symbol, length) pairs in symbol order after the header
    pos = (at + head)[rows] + 2 * (np.arange(rows.size) - rows.searchsorted(rows))
    out[pos] = syms
    out[pos + 1] = sym_lens
    # the headers: mode, varint(n_tokens) a byte per round, n_sym - 1
    at_h = at[h]
    out[at_h] = MODE_RLE_HUF
    out[at_h + head[h] - 1] = n_sym[h] - 1
    byte_at, left = at_h + 1, n_tok[h]
    while byte_at.size:
        more = left > 0x7F
        out[byte_at] = left & 0x7F | more << 7
        byte_at, left = byte_at[more] + 1, left[more] >> 7
    codes = _canonical_codes(lens)
    tok_at = n_tok.cumsum() - n_tok
    for t, a, b, p, q in zip(h.tolist(), tok_at[h].tolist(), (tok_at + n_tok)[h].tolist(),
                             (at + head + 2 * n_sym)[h].tolist(), (at + comp)[h].tolist()):
        out[p:q] = _kernels.huff_encode(tokens[a:b], codes[t], lens[t])

    spans = [()] * n if spans is None else spans
    return [CompressedTile(raw_size=size, payload=out[p : p + c], dummy_spans=tuple(s))
            for size, p, c, s in zip(sizes.tolist(), at.tolist(), comp.tolist(), spans, strict=True)]


def compress_tile(raw, dummy_spans: tuple = ()) -> CompressedTile:
    """Compress one tile's bytes: a stream of one tile (`compress_stream`)."""
    return compress_stream([raw], [dummy_spans])[0]


def decompress_tile(payload: np.ndarray) -> np.ndarray:
    """Inverse of compress_tile (bit-exact).

    Only what compress_tile writes is accepted: a nonempty tile, and an
    RLE+Huffman bitstream that ends in the container's last byte with zero
    padding bits after it.
    """
    payload = np.ascontiguousarray(payload, dtype=np.uint8)
    if payload.size == 0:
        raise IntegrityError("empty container")
    mode = int(payload[0])
    if mode == MODE_STORED:
        if payload.size == 1:
            raise IntegrityError("stored container without a data byte")
        return payload[1:].copy()
    if mode != MODE_RLE_HUF:
        raise IntegrityError(f"unknown container mode {mode}")
    n_tokens, pos = _varint_decode(payload, 1)
    if n_tokens == 0:
        raise IntegrityError("RLE+Huffman container without a token")
    if pos >= payload.size:
        raise IntegrityError("truncated header")
    n_sym = int(payload[pos]) + 1
    pos += 1
    if pos + 2 * n_sym > payload.size:
        raise IntegrityError("truncated symbol table")
    syms = payload[pos : pos + 2 * n_sym : 2]
    sym_lens = payload[pos + 1 : pos + 2 * n_sym : 2]
    pos += 2 * n_sym
    if sym_lens.min() < 1 or sym_lens.max() > _MAX_CODE_LEN:
        raise IntegrityError(f"code length outside 1..{_MAX_CODE_LEN}")
    if np.unique(syms).size != n_sym:
        raise IntegrityError("symbol listed twice in the code table")
    count = np.bincount(sym_lens).tolist()
    if sum(n << (_MAX_CODE_LEN - l) for l, n in enumerate(count)) > 1 << _MAX_CODE_LEN:
        raise IntegrityError("code lengths oversubscribe the code space")
    if n_tokens > 8 * (payload.size - pos):
        raise IntegrityError(f"token count {n_tokens} exceeds the payload bits")
    symtab = syms[np.lexsort((syms, sym_lens))]
    tokens = _kernels.huff_decode(payload[pos:], n_tokens, count, symtab)
    if tokens is None:
        raise IntegrityError("corrupt bitstream")
    code_len = np.zeros(256, dtype=np.intp)
    code_len[syms] = sym_lens
    pad = 8 * (payload.size - pos) - int(code_len[tokens].sum())
    if pad > 7:
        raise IntegrityError("bytes after the bitstream")
    if payload[-1] & ((1 << pad) - 1):
        raise IntegrityError("nonzero padding bits after the bitstream")
    raw = _kernels.rle_decode(tokens)
    if raw is None:
        raise IntegrityError("zero token without a run length in 1..255")
    return raw


# ---------------------------------------------------------------------------
# dummy data


def inject_dummy(raw, n_bytes: int, rng: np.random.Generator):
    """Splice n random bytes into a tile at keyed offsets.

    Returns (inflated bytes, spans) where spans are (offset, length) pairs in
    the inflated coordinates; stripping them reproduces the input exactly.
    """
    if n_bytes < 0:
        raise DomainError("dummy byte count must be >= 0")
    raw = np.ascontiguousarray(raw, dtype=np.uint8)
    if n_bytes == 0:
        return raw.copy(), ()
    n_chunks = int(rng.integers(1, min(4, n_bytes) + 1))
    cut = np.sort(rng.choice(np.arange(1, n_bytes), size=n_chunks - 1, replace=False)) if n_chunks > 1 else np.array([], dtype=np.int64)
    chunk_lens = np.diff(np.concatenate(([0], cut, [n_bytes]))).astype(int)
    positions = np.sort(rng.integers(0, raw.size + 1, size=n_chunks))
    spans = []
    pieces = []
    prev = 0
    grown = 0
    for pos, ln in zip(positions, chunk_lens):
        pieces.append(raw[prev:pos])
        pieces.append(rng.integers(0, 256, size=ln, dtype=np.uint8))
        spans.append((int(pos) + grown, int(ln)))
        grown += int(ln)
        prev = pos
    pieces.append(raw[prev:])
    return np.concatenate(pieces), tuple(spans)


# ---------------------------------------------------------------------------
# bins


@dataclass
class Bin:
    index: int
    table: np.ndarray  # _TABLE_ENTRY entries, as the wire image holds them
    payload: np.ndarray | None
    empty_pad: int
    noise_reserved: int

    def to_bytes(self, cfg: BinConfig) -> bytes:
        if self.payload is None:
            raise IntegrityError("size-only bin has no payload to serialize")
        out = np.zeros(cfg.bin_size, dtype=np.uint8)
        n = len(self.table)
        base = table_bytes(n)
        out[:2] = n & 0xFF, n >> 8
        out[2:base] = self.table.view(np.uint8)
        out[base : base + self.payload.size] = self.payload
        return out.tobytes()


def bin_from_bytes(data: bytes, cfg: BinConfig, index: int = 0) -> Bin:
    if len(data) != cfg.bin_size:
        raise IntegrityError(f"bin image must be exactly {cfg.bin_size} bytes")
    arr = np.frombuffer(data, dtype=np.uint8)
    n = int(arr[0]) | (int(arr[1]) << 8)
    payload_base = table_bytes(n)
    # pack_bins opens a bin only for a segment, so a bin holds 1..kappa entries
    if not 1 <= n <= cfg.kappa or payload_base > cfg.bin_size:
        raise IntegrityError(f"entry count {n} outside 1..{cfg.kappa}")
    table = arr[2:payload_base].view(_TABLE_ENTRY).copy()
    lengths = table["length"].astype(np.int64)
    # pack_bins lays segments back to back from offset 0, so any other
    # layout (a gap, an overlap, an empty segment) is corruption
    if np.any(lengths < 1) or np.any(table["offset"] != np.cumsum(lengths) - lengths):
        raise IntegrityError("table entries are not nonempty segments back to back from offset 0")
    # a bin closes when a tile does not fit, so each entry after its first starts the next tile
    ids = table["id"]
    if np.any(ids[1:] != (ids[:-1] & (_CONT_BIT - 1)) + 1) or np.any(ids[1:] & _CONT_BIT):
        raise IntegrityError("an entry after the first is a continuation or not the next tile")
    used = int(lengths.sum())
    if used > cfg.bin_size - payload_base:
        raise IntegrityError("segment runs past the bin payload area")
    return Bin(index=index, table=table, payload=arr[payload_base:].copy(),
               empty_pad=cfg.bin_size - payload_base - used, noise_reserved=0)


@dataclass
class BinPackReport:
    layer: str
    tiles_in: int
    bins_out: int
    beta: float
    noise_total: int
    raw_total: int
    comp_total: int

    def to_json(self) -> dict:
        return asdict(self)


def pack_bins(
    tiles: list[CompressedTile],
    cfg: BinConfig,
    noise: NoiseSpec,
    rng: np.random.Generator,
    layer: str = "",
    assemble: bool = True,
) -> tuple[list[Bin], BinPackReport]:
    """First-fit sequential packing in curve order.

    One pass lays the stream out in plain integers: per bin, its reserved
    noise and its first segment, and per segment its table entry.  Each bin
    reserves a fresh noise draw of empty space before data is admitted; a
    tile that does not fit continues in the next bin; at most kappa entries
    start per bin.  An entry's id is its tile's index in tiles.  The
    stream's entries then become one table array, and each bin's table is a
    slice of it.  The segments lie back to back across the bins as well, so
    with assemble each bin's payload is a slice of the tile payloads'
    concatenation.  The noise floor alpha must leave room for one entry and
    one payload byte; only the half-normal tail above it is clamped to fit.

    Draw order, a contract for callers that share one generator: the
    variance, once per call (so consecutive layers carry different
    variances), then the first bin's noise before any tile, then one draw
    each time a bin closes, the last bin included.  No tiles, no draws.
    """
    cfg.validate()
    noise.validate()
    room = cfg.bin_size - table_bytes(1) - 1
    if noise.alpha > room:
        raise ConfigError(f"noise floor alpha={noise.alpha} leaves no payload room in a "
                          f"{cfg.bin_size} B bin (at most {room})")
    if not tiles:
        return [], BinPackReport(layer, 0, 0, 1.0, 0, 0, 0)
    sigma = math.sqrt(rng.uniform(0.0, noise.sigma2_max))

    def draw_noise() -> int:
        return min(noise.alpha + int(half_normal(rng, sigma, noise.support_r)), room)

    entries = []  # per segment: id (with the continuation bit), offset, length
    opened = [(draw_noise(), 0)]  # per bin: reserved noise, its first entry
    used = 0  # segment bytes in the last bin
    for j, tile in enumerate(tiles):
        size, start = tile.comp_size, 0
        while start < size:
            reserved, first = opened[-1]
            n = len(entries) - first
            free = cfg.bin_size - table_bytes(n + 1) - reserved - used
            if free <= 0 or n >= cfg.kappa:
                opened.append((draw_noise(), len(entries)))
                used = 0
                continue
            take = min(size - start, free)
            entries.append((j | (_CONT_BIT if start else 0), used, take))
            used += take
            start += take
    draw_noise()  # the last bin closes too

    table = np.array(entries, dtype=_TABLE_ENTRY)
    image = np.concatenate([t.payload for t in tiles]) if assemble else None
    bins = []
    pos = 0  # where the bin's segments start in image
    ends = [first for _, first in opened[1:]] + [len(entries)]
    for index, ((reserved, first), end) in enumerate(zip(opened, ends)):
        _, off, n = entries[end - 1]
        data = off + n
        bins.append(Bin(index, table[first:end], image[pos : pos + data] if assemble else None,
                        cfg.bin_size - table_bytes(end - first) - data, reserved))
        pos += data
    raw_total = sum(t.raw_size for t in tiles)
    comp_total = sum(t.comp_size for t in tiles)
    return bins, BinPackReport(layer, len(tiles), len(bins),
                               comp_total / raw_total if raw_total else 1.0,
                               sum(reserved for reserved, _ in opened), raw_total, comp_total)


def unpack_bins(bins: list[Bin]) -> list[np.ndarray]:
    """Reassemble and decompress one stream's tiles, numbered as `pack_bins` does.

    A start must be the next tile (the first is tile 0), and a continuation
    must continue the last tile started.  Each tile comes back as the bytes
    it was compressed from, dummy bytes included: their spans are keyed
    metadata on the `CompressedTile`, not part of a bin, so a bin and its
    parsed wire image unpack the same.
    """
    tiles: list[list[np.ndarray]] = []  # per tile in stream order, its segments
    for b in bins:
        if b.payload is None:
            raise IntegrityError("cannot unpack size-only bins")
        for ident, off, n in b.table.tolist():
            seg = b.payload[off : off + n]
            if seg.size != n:
                raise IntegrityError("table entry runs past payload")
            if ident == len(tiles):
                tiles.append([seg])
            elif tiles and ident == (len(tiles) - 1) | _CONT_BIT:
                tiles[-1].append(seg)
            else:
                raise IntegrityError(f"table id {ident:#x} out of stream order at tile {len(tiles)}")
    return [decompress_tile(np.concatenate(segs)) for segs in tiles]
