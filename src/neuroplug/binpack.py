"""Tile compression and fixed-size bin packing with keyed empty-space noise.

Tiles are compressed with a zero run-length pass followed by a canonical
Huffman pass, then packed first-fit in curve order into bins of exactly
``bin_size`` bytes.  Every bin reserves a noise-drawn slice of empty space,
so the observable bin count is an affine function of the true data volume:
a compression factor times the tile bytes plus keyed additive slack.

Wire image of a bin (little-endian):
    [u16 n_entries][entries ...][payload segments ...][zero pad]
    entry: [u32 id | bit31 = continuation][u16 offset][u16 length]
each entry is TABLE_ENTRY_BYTES = 8 bytes; offsets are relative to the
payload area, which starts right after the table.  Dummy-byte spans are
keyed metadata and are not serialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, DomainError, IntegrityError

MODE_STORED = 0
MODE_RLE_HUF = 1
_CONT_BIT = 1 << 31
_MAX_CODE_LEN = 56
_TABLE_ENTRY = np.dtype([("id", "<u4"), ("offset", "<u2"), ("length", "<u2")])
TABLE_ENTRY_BYTES = _TABLE_ENTRY.itemsize


@dataclass(frozen=True)
class BinConfig:
    bin_size: int = 61440
    kappa: int = 8

    def validate(self) -> None:
        if self.kappa < 1:
            raise ConfigError("kappa must be >= 1")
        if self.bin_size <= 2 + self.kappa * TABLE_ENTRY_BYTES:
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
    tile_id: int
    raw_size: int
    comp_size: int
    payload: np.ndarray | None
    dummy_spans: tuple = ()


def _huffman_lengths(freq: np.ndarray) -> np.ndarray:
    """Code lengths (0 for absent symbols), capped at _MAX_CODE_LEN.

    Two-queue Huffman: leaves sorted stably by frequency, internal nodes in
    the order they are made (their weights never decrease), and a leaf wins
    a weight tie.  That is the merge order of a heap on (weight, id) whose
    leaf ids are the symbols and whose internal ids count up from 256.  While
    a code is too long the frequencies are halved, rounding up, and the tree
    is rebuilt.
    """
    freq = freq.astype(np.int64)
    lens = np.zeros(256, dtype=np.uint8)
    present = np.flatnonzero(freq)
    n = present.size
    if n <= 1:
        lens[present] = 1
        return lens
    while True:
        order = present[np.argsort(freq[present], kind="stable")]
        # the sentinel weight ends each queue: past the last leaf, and at
        # internal nodes not made yet
        leaf_w = freq[order].tolist() + [math.inf]
        node_w = [math.inf] * (n - 1)
        # parent of leaves 0..n-1, then of internal nodes 0..n-3 at n + i;
        # internal node n-2 is the root
        parent = [0] * (2 * n - 2)
        li = ni = 0
        for node in range(n - 1):
            w = 0
            for _ in range(2):
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
        leaf_len = np.array(depth)[parent[:n]] + 1
        if leaf_len.max() <= _MAX_CODE_LEN:
            lens[order] = leaf_len
            return lens
        freq[present] = (freq[present] + 1) >> 1


def _canonical_tables(lens: np.ndarray):
    """Canonical codes plus decode tables (first/count/offset/symtab) per length.

    As in RFC 1951 section 3.2.2: symbols sorted by (length, symbol) take
    consecutive codes, and the first code of length l is
    sum over m < l of count[m] * 2**(l - m).  The lengths must satisfy
    Kraft's inequality.  first and offset are meaningful where count > 0.
    """
    maxlen = int(lens.max())
    present = np.flatnonzero(lens)
    symtab = present[np.lexsort((present, lens[present]))]
    sym_lens = lens[symtab].astype(np.int64)
    count = np.bincount(sym_lens, minlength=maxlen + 1)
    offset = np.cumsum(count) - count
    drop = maxlen - np.arange(maxlen + 1)
    first = (np.cumsum(count << drop) - (count << drop)) >> drop
    codes = np.zeros(256, dtype=np.uint64)
    codes[symtab] = first[sym_lens] + np.arange(symtab.size) - offset[sym_lens]
    return codes, first, count, offset, symtab.astype(np.uint8), maxlen


def _varint_encode(n: int) -> bytes:
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


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


def compress_tile(raw, tile_id: int = 0, dummy_spans: tuple = ()) -> CompressedTile:
    """Compress one tile's bytes into a self-describing container."""
    raw = np.ascontiguousarray(np.frombuffer(bytes(raw), dtype=np.uint8) if isinstance(raw, (bytes, bytearray)) else raw, dtype=np.uint8)
    if raw.size == 0:
        raise DomainError("cannot compress an empty tile")
    tokens = _kernels.rle_encode(raw)
    freq = np.bincount(tokens, minlength=256)
    lens = _huffman_lengths(freq)
    codes, *_ = _canonical_tables(lens)
    bitstream = _kernels.huff_encode(tokens, codes, lens)
    present = np.flatnonzero(lens)
    header = bytes([MODE_RLE_HUF]) + _varint_encode(tokens.size) + bytes([present.size - 1])
    table = np.stack((present, lens[present]), axis=1).astype(np.uint8)
    packed = np.concatenate([np.frombuffer(header, dtype=np.uint8), table.reshape(-1), bitstream])
    if packed.size >= raw.size + 1:
        packed = np.concatenate([np.array([MODE_STORED], dtype=np.uint8), raw])
    return CompressedTile(
        tile_id=tile_id,
        raw_size=raw.size,
        comp_size=packed.size,
        payload=packed,
        dummy_spans=tuple(dummy_spans),
    )


def decompress_tile(payload: np.ndarray) -> np.ndarray:
    """Inverse of compress_tile (bit-exact)."""
    payload = np.ascontiguousarray(payload, dtype=np.uint8)
    if payload.size == 0:
        raise IntegrityError("empty container")
    mode = int(payload[0])
    if mode == MODE_STORED:
        return payload[1:].copy()
    if mode != MODE_RLE_HUF:
        raise IntegrityError(f"unknown container mode {mode}")
    n_tokens, pos = _varint_decode(payload, 1)
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
    if sum(1 << (_MAX_CODE_LEN - l) for l in sym_lens.tolist()) > 1 << _MAX_CODE_LEN:
        raise IntegrityError("code lengths oversubscribe the code space")
    if n_tokens > 8 * (payload.size - pos):
        raise IntegrityError(f"token count {n_tokens} exceeds the payload bits")
    lens = np.zeros(256, dtype=np.uint8)
    lens[syms] = sym_lens
    _, first, count, offset, symtab, maxlen = _canonical_tables(lens)
    tokens = _kernels.huff_decode(payload[pos:], n_tokens, first, count, offset, symtab, maxlen)
    if tokens is None:
        raise IntegrityError("corrupt bitstream")
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
        pieces.append(rng.integers(0, 256, size=ln, dtype=np.uint8).astype(np.uint8))
        spans.append((int(pos) + grown, int(ln)))
        grown += int(ln)
        prev = pos
    pieces.append(raw[prev:])
    return np.concatenate(pieces), tuple(spans)


def strip_dummies(data: np.ndarray, spans) -> np.ndarray:
    if not spans:
        return np.asarray(data, dtype=np.uint8).copy()
    keep = np.ones(len(data), dtype=bool)
    for off, ln in spans:
        keep[off : off + ln] = False
    return np.asarray(data, dtype=np.uint8)[keep]


# ---------------------------------------------------------------------------
# bins


@dataclass(frozen=True)
class BinEntry:
    tile_id: int
    offset: int  # relative to the payload area
    length: int
    continuation: bool
    dummy_spans: tuple = ()


@dataclass
class Bin:
    index: int
    entries: list[BinEntry]
    payload: np.ndarray | None
    empty_pad: int
    noise_reserved: int

    def table_bytes(self) -> int:
        return 2 + len(self.entries) * TABLE_ENTRY_BYTES

    def to_bytes(self, cfg: BinConfig) -> bytes:
        if self.payload is None:
            raise IntegrityError("size-only bin has no payload to serialize")
        out = np.zeros(cfg.bin_size, dtype=np.uint8)
        n = len(self.entries)
        out[0] = n & 0xFF
        out[1] = (n >> 8) & 0xFF
        table = np.array(
            [(e.tile_id | (_CONT_BIT if e.continuation else 0), e.offset, e.length)
             for e in self.entries],
            dtype=_TABLE_ENTRY,
        )
        base = 2 + table.nbytes
        out[2:base] = table.view(np.uint8)
        out[base : base + self.payload.size] = self.payload
        return out.tobytes()


def bin_from_bytes(data: bytes, cfg: BinConfig, index: int = 0) -> Bin:
    if len(data) != cfg.bin_size:
        raise IntegrityError(f"bin image must be exactly {cfg.bin_size} bytes")
    arr = np.frombuffer(data, dtype=np.uint8)
    n = int(arr[0]) | (int(arr[1]) << 8)
    if n > cfg.kappa or 2 + n * TABLE_ENTRY_BYTES > cfg.bin_size:
        raise IntegrityError("entry count exceeds table capacity")
    payload_base = 2 + n * TABLE_ENTRY_BYTES
    table = arr[2:payload_base].view(_TABLE_ENTRY)
    if np.any(table["offset"].astype(np.int64) + table["length"] > cfg.bin_size - payload_base):
        raise IntegrityError("segment runs past the bin payload area")
    entries = [
        BinEntry(tile_id=ident & ~_CONT_BIT, offset=off, length=ln,
                 continuation=bool(ident & _CONT_BIT))
        for ident, off, ln in table.tolist()
    ]
    used = int(table["length"].sum())
    payload = arr[payload_base:].copy()
    return Bin(index=index, entries=entries, payload=payload,
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
        return {
            "layer": self.layer, "tiles_in": self.tiles_in, "bins_out": self.bins_out,
            "beta": self.beta, "noise_total": self.noise_total,
            "raw_total": self.raw_total, "comp_total": self.comp_total,
        }


def pack_bins(
    tiles: list[CompressedTile],
    cfg: BinConfig,
    noise: NoiseSpec,
    rng: np.random.Generator,
    layer: str = "",
    assemble: bool = True,
) -> tuple[list[Bin], BinPackReport]:
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
    room = cfg.bin_size - 2 - entry - 1
    if noise.alpha > room:
        raise ConfigError(f"noise floor alpha={noise.alpha} leaves no payload room in a "
                          f"{cfg.bin_size} B bin (at most {room})")
    if assemble:
        for t in tiles:
            if t.payload is None or t.payload.size != t.comp_size:
                raise IntegrityError(f"tile {t.tile_id} has no payload of its {t.comp_size} bytes")
    if not tiles:
        return [], BinPackReport(layer, 0, 0, 1.0, 0, 0, 0)
    sigma2 = rng.uniform(0.0, noise.sigma2_max)
    sigma = math.sqrt(sigma2)

    def draw_noise() -> int:
        n_prime = abs(rng.normal(0.0, sigma)) if sigma > 0 else 0.0
        return min(noise.alpha + int(min(n_prime, noise.support_r)), room)

    bins: list[Bin] = []
    cur_entries: list[BinEntry] = []
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
        table = 2 + len(cur_entries) * entry
        seg_bytes = sum(e.length for e in cur_entries)
        bins.append(
            Bin(
                index=len(bins),
                entries=cur_entries,
                payload=payload,
                empty_pad=cfg.bin_size - table - seg_bytes,
                noise_reserved=cur_noise,
            )
        )
        noise_total += cur_noise
        cur_entries = []
        cur_segments = []
        cur_used = 0
        cur_payload_off = 0
        cur_noise = draw_noise()

    for tile in tiles:
        remaining = tile.comp_size
        taken = 0
        first_entry = True
        while remaining > 0:
            free = cfg.bin_size - 2 - cur_noise - cur_used - entry
            if free <= 0 or len(cur_entries) >= cfg.kappa:
                close_bin()
                continue
            take = min(remaining, free)
            cur_entries.append(
                BinEntry(
                    tile_id=tile.tile_id,
                    offset=cur_payload_off,
                    length=take,
                    continuation=not first_entry,
                    dummy_spans=tile.dummy_spans if first_entry else (),
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
    comp_total = sum(t.comp_size for t in tiles)
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


def unpack_bins(bins: list[Bin], dummy_spans=None) -> list[np.ndarray]:
    """Reassemble, decompress and strip dummies; exact inverse of the pipeline.

    dummy_spans optionally maps tile_id -> spans for bins deserialized from
    the wire (the table image does not carry the keyed dummy map).
    """
    chunks: dict[int, list[np.ndarray]] = {}
    spans: dict[int, tuple] = dict(dummy_spans or {})
    order: list[int] = []
    for b in bins:
        if b.payload is None:
            raise IntegrityError("cannot unpack size-only bins")
        for e in b.entries:
            seg = b.payload[e.offset : e.offset + e.length]
            if seg.size != e.length:
                raise IntegrityError("table entry runs past payload")
            if e.continuation:
                if e.tile_id not in chunks:
                    raise IntegrityError(f"continuation without a start for tile {e.tile_id}")
            else:
                if e.tile_id in chunks:
                    raise IntegrityError(f"duplicate start entry for tile {e.tile_id}")
                order.append(e.tile_id)
                if e.dummy_spans:
                    spans.setdefault(e.tile_id, e.dummy_spans)
            chunks.setdefault(e.tile_id, []).append(seg)
    out = []
    for tid in order:
        container = np.concatenate(chunks[tid])
        raw = decompress_tile(container)
        out.append(strip_dummies(raw, spans.get(tid, ())))
    return out
