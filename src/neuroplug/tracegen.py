"""Attacker-visible memory transaction streams.

Three generators share one address map:

* baseline_trace  - unprotected tile-granularity traffic in the canonical
  loop-nest order; sparse mode sizes events by the nonzero bytes of each
  tile (a sparse accelerator's compressed transfers).
* additive_cm_trace - abstract additive-noise countermeasures: unread dummy
  writes, constant-mean read inflation, and the sub-layer divider that
  fakes read-after-write dependences.
* neuroplug_trace - bin-granularity traffic: tiles are compressed, packed
  into fixed-size bins with keyed empty-space noise, and every event is
  exactly one bin with a constant processing gap.

Addresses are per-(tensor, stream) regions: feature map j lives at
(1 + j) << 28, weights of layer i at WEIGHT_REGION + (i << 28), dummy
streams likewise.  Attacks may use the map (the NPU design is public;
only key material is secret).
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import binpack, sfc
from .binpack import BinConfig, CompressedTile, NoiseSpec
from .errors import ConfigError, IntegrityError
from .model import NetworkSpec, Tensor3D, conv_forward, generate_weights
from .sfc import ExecutionPlan

OP_READ = 0
OP_WRITE = 1

EVENT_DTYPE = np.dtype(
    [("op", "u1"), ("addr", "u8"), ("size", "u8"), ("t", "u8"), ("digest", "u8")]
)

_CSV_HEADER = "op,addr,size,t,digest"
_CSV_OPS = {"r": OP_READ, "w": OP_WRITE}
_BINARY_RECORD = np.dtype([("addr", "<u8"), ("t", "<u8"), ("size", "<u4"),
                           ("digest", "<u2"), ("op", "u1"), ("pad", "u1")])

REGION_SHIFT = 28
FMAP_REGION = 1
WEIGHT_REGION = 1 << 12
DUMMY_REGION = 1 << 13

DRAM_BURST_BYTES = 64
DRAM_BURST_CYCLES = 4
T_TILE = 512


def fmap_base(tensor_idx: int) -> int:
    return (FMAP_REGION + tensor_idx) << REGION_SHIFT


def weight_base(layer_idx: int) -> int:
    return (WEIGHT_REGION + layer_idx) << REGION_SHIFT


def dummy_base(layer_idx: int) -> int:
    return (DUMMY_REGION + layer_idx) << REGION_SHIFT


def region_of(addr: int) -> tuple[str, int]:
    rid = addr >> REGION_SHIFT
    if rid >= DUMMY_REGION:
        return "dummy", rid - DUMMY_REGION
    if rid >= WEIGHT_REGION:
        return "weight", rid - WEIGHT_REGION
    return "fmap", rid - FMAP_REGION


class Trace:
    """Time-ordered event stream backed by a structured array."""

    def __init__(self, arr: np.ndarray):
        self.arr = arr

    def __len__(self):
        return len(self.arr)

    @property
    def op(self):
        return self.arr["op"]

    @property
    def addr(self):
        return self.arr["addr"]

    @property
    def size(self):
        return self.arr["size"]

    @property
    def t(self):
        return self.arr["t"]

    @property
    def digest(self):
        return self.arr["digest"]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(_CSV_HEADER + "\n")
        for row in self.arr:
            op = "r" if row["op"] == OP_READ else "w"
            buf.write(f"{op},{row['addr']},{row['size']},{row['t']},{row['digest']:016x}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Trace":
        """Parse to_csv's form; a malformed row raises IntegrityError."""
        lines = text.strip().splitlines()
        if not lines or lines[0] != _CSV_HEADER:
            raise ConfigError("not a trace CSV")
        out = np.zeros(len(lines) - 1, dtype=EVENT_DTYPE)
        for i, line in enumerate(lines[1:]):
            fields = line.split(",")
            if len(fields) != 5:
                raise IntegrityError(f"trace row {i}: {len(fields)} fields, expected 5")
            op, addr, size, t, digest = fields
            if op not in _CSV_OPS:
                raise IntegrityError(f"trace row {i}: op {op!r} is neither 'r' nor 'w'")
            try:
                vals = (int(addr), int(size), int(t), int(digest, 16))
            except ValueError:
                raise IntegrityError(f"trace row {i}: non-integer field in {line!r}") from None
            if not all(0 <= v < 1 << 64 for v in vals):
                raise IntegrityError(f"trace row {i}: value outside u64 in {line!r}")
            out[i] = (_CSV_OPS[op], *vals)
        return cls(out)

    def to_binary(self) -> bytes:
        """Fixed 24-byte records: addr u64, t u64, size u32, digest u16, op u8, pad.

        The digest is truncated to 16 bits here; the CSV form keeps all 64.
        """
        rec = np.zeros(len(self.arr), dtype=_BINARY_RECORD)
        rec["addr"] = self.arr["addr"]
        rec["t"] = self.arr["t"]
        rec["size"] = self.arr["size"]
        rec["digest"] = self.arr["digest"] & 0xFFFF
        rec["op"] = self.arr["op"]
        return rec.tobytes()

    @classmethod
    def from_binary(cls, data: bytes) -> "Trace":
        """Parse to_binary's records; a malformed blob raises IntegrityError."""
        if len(data) % _BINARY_RECORD.itemsize:
            raise IntegrityError(
                f"{len(data)} B is not a whole number of {_BINARY_RECORD.itemsize} B records"
            )
        rec = np.frombuffer(data, dtype=_BINARY_RECORD)
        bad = np.flatnonzero((rec["op"] > OP_WRITE) | (rec["pad"] != 0))
        if bad.size:
            i = int(bad[0])
            raise IntegrityError(f"trace record {i}: op {rec['op'][i]}, pad {rec['pad'][i]}")
        out = np.zeros(len(rec), dtype=EVENT_DTYPE)
        out["op"] = rec["op"]
        out["addr"] = rec["addr"]
        out["size"] = rec["size"]
        out["t"] = rec["t"]
        out["digest"] = rec["digest"]
        return cls(out)


class _Emitter:
    def __init__(self):
        self.op: list[int] = []
        self.addr: list[int] = []
        self.size: list[int] = []
        self.t: list[int] = []
        self.digest: list[int] = []
        self.clock = 0

    def emit(self, op: int, addr: int, size: int, digest: int = 0, dt: int | None = None):
        self.op.append(op)
        self.addr.append(addr)
        self.size.append(size)
        self.t.append(self.clock)
        self.digest.append(digest)
        if dt is None:
            dt = max(1, -(-size // DRAM_BURST_BYTES)) * DRAM_BURST_CYCLES
        self.clock += dt

    def advance(self, cycles: int):
        self.clock += cycles

    def build(self) -> Trace:
        arr = np.zeros(len(self.op), dtype=EVENT_DTYPE)
        arr["op"] = self.op
        arr["addr"] = self.addr
        arr["size"] = self.size
        arr["t"] = self.t
        arr["digest"] = self.digest
        return Trace(arr)


def _digest64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


# ---------------------------------------------------------------------------
# tile geometry helpers


def _tile_view(tensor: np.ndarray, sl) -> np.ndarray:
    c0, c1, r0, r1, w0, w1 = sl
    return tensor[c0:c1, r0:r1, w0:w1]


def _tile_bytes(tensor: np.ndarray, sl) -> np.ndarray:
    return np.ascontiguousarray(_tile_view(tensor, sl)).view(np.uint8).reshape(-1)


# ---------------------------------------------------------------------------
# forward-pass cache


@dataclass
class NetData:
    """Values needed by content-dependent traces, computed once per input."""

    fmaps: list[np.ndarray]  # tensor per fmap index, fmaps[0] = input
    weights: list[np.ndarray]


def compute_net_data(net: NetworkSpec, input_tensor: Tensor3D, model_seed: int) -> NetData:
    weights = generate_weights(net, model_seed)
    fmaps = [input_tensor.values]
    cur = input_tensor.values
    for layer, w in zip(net.layers, weights):
        cur = conv_forward(layer.shape, cur, w)
        fmaps.append(cur)
    return NetData(fmaps=fmaps, weights=weights)


# ---------------------------------------------------------------------------
# baseline


def baseline_trace(
    net: NetworkSpec,
    input_tensor: Tensor3D,
    seed: int = 0,
    sparse: bool = False,
    observe_values: bool = False,
    data: NetData | None = None,
) -> Trace:
    """Unprotected tile-granularity trace in the canonical loop order.

    Per layer and output-map block: read the weight block, sweep the deep
    tiles of the input, and flush each output tile exactly once after its
    last channel pass.
    """
    need_values = sparse or observe_values
    if need_values and data is None:
        data = compute_net_data(net, input_tensor, seed)
    em = _Emitter()
    for i, layer in enumerate(net.layers):
        shp, til = layer.shape, layer.tiling
        n_k = math.ceil(shp.k / til.tk)
        n_c = math.ceil(shp.c / til.tc)
        in_tiles, in_cap = sfc.ifmap_walk(shp, til)
        out_tiles, out_cap = sfc.ofmap_walk(shp, til)
        wblock_cap = til.tk * til.tc * shp.r * shp.s
        in_tensor = data.fmaps[i] if need_values else None
        out_tensor = data.fmaps[i + 1] if need_values else None

        for src, _dst in (sk for sk in net.skips if sk[1] == i):
            src_layer = net.layers[src]
            skip_tiles, skip_cap = sfc.ofmap_walk(src_layer.shape, src_layer.tiling)
            skip_tensor = data.fmaps[src + 1] if need_values else None
            for off, sl, actual in skip_tiles:
                size, dig = _tile_size_digest(skip_tensor, sl, actual, sparse, observe_values)
                if size > 0:
                    em.emit(OP_READ, fmap_base(src + 1) + off, size, dig)

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
                    if sl[0] != c0:  # only this channel group's tiles
                        continue
                    size, dig = _tile_size_digest(in_tensor, sl, actual, sparse, observe_values)
                    if size > 0:
                        em.emit(OP_READ, fmap_base(i) + off, size, dig)
                    em.advance(T_TILE)
            for off, sl, actual in out_tiles:
                if sl[0] != k0:  # this block's output tiles
                    continue
                size, dig = _tile_size_digest(out_tensor, sl, actual, sparse, observe_values)
                if size > 0:
                    em.emit(OP_WRITE, fmap_base(i + 1) + off, size, dig)
    return em.build()


def _tile_size_digest(tensor, sl, cap_actual, sparse, observe_values):
    """Event size and content hash for one tile; sparse tiles transfer only
    their nonzero bytes and all-zero tiles are skipped (size 0)."""
    if tensor is None:
        return cap_actual, 0
    view = _tile_view(tensor, sl)
    size = cap_actual
    if sparse:
        size = int(np.count_nonzero(view))
    dig = _digest64(np.ascontiguousarray(view).tobytes()) if observe_values else 0
    return size, dig


# ---------------------------------------------------------------------------
# abstract additive countermeasures


ADDITIVE_MODELS = ("dummy-writes", "const-mean", "layer-divider")


def additive_cm_trace(
    net: NetworkSpec,
    input_tensor: Tensor3D,
    cm_model: str,
    seed: int = 0,
    run_index: int = 0,
    sparse: bool = False,
    observe_values: bool = False,
    dummy_ratio: float = 0.5,
    const_mean: int = 22400,
    jitter: tuple[int, int] = (-8, 8),
    data: NetData | None = None,
) -> Trace:
    """Baseline plus one of the additive-noise countermeasure models."""
    if cm_model not in ADDITIVE_MODELS:
        raise ConfigError(f"unknown additive model {cm_model!r}")
    need_values = sparse or observe_values or cm_model == "layer-divider"
    if need_values and data is None:
        data = compute_net_data(net, input_tensor, seed)
    rng = np.random.default_rng([seed, run_index, 0xC3])
    base = baseline_trace(net, input_tensor, seed, sparse, observe_values or cm_model == "layer-divider", data)

    if cm_model == "dummy-writes":
        return _with_dummy_writes(base, net, rng, dummy_ratio)
    if cm_model == "const-mean":
        return _with_const_mean(base, net, rng, const_mean, jitter)
    return _with_layer_divider(base, net)


def _with_dummy_writes(base: Trace, net: NetworkSpec, rng, ratio: float) -> Trace:
    """Unread dummy writes appended to each layer's output flush."""
    chunks = []
    pos = 0
    arr = base.arr
    for i, layer in enumerate(net.layers):
        out_tiles, out_cap = sfc.ofmap_walk(layer.shape, layer.tiling)
        is_out = (arr["op"] == OP_WRITE) & (arr["addr"] >> REGION_SHIFT == FMAP_REGION + i + 1)
        last = np.flatnonzero(is_out)
        if last.size == 0:
            continue
        cut = last[-1] + 1
        chunks.append(arr[pos:cut])
        n_dummy = round(ratio * len(out_tiles))
        extra = np.zeros(n_dummy, dtype=EVENT_DTYPE)
        extra["op"] = OP_WRITE
        extra["addr"] = dummy_base(i) + np.arange(n_dummy) * out_cap
        extra["size"] = out_cap
        extra["t"] = arr["t"][cut - 1]
        extra["digest"] = rng.integers(1, 1 << 63, size=n_dummy)
        chunks.append(extra)
        pos = cut
    chunks.append(arr[pos:])
    return Trace(np.concatenate(chunks))


def _with_const_mean(base: Trace, net: NetworkSpec, rng, const: int, jitter) -> Trace:
    """Reads inflated by a hardwired constant plus small zero-mean jitter.

    The padding reads extend each layer's input region so they are
    indistinguishable from real input traffic by address alone.
    """
    chunks = []
    pos = 0
    arr = base.arr
    for i, layer in enumerate(net.layers):
        in_tiles, in_cap = sfc.ifmap_walk(layer.shape, layer.tiling)
        is_in = (arr["op"] == OP_READ) & (arr["addr"] >> REGION_SHIFT == FMAP_REGION + i)
        idx = np.flatnonzero(is_in)
        if idx.size == 0:
            continue
        cut = idx[-1] + 1
        chunks.append(arr[pos:cut])
        total = const + int(rng.integers(jitter[0], jitter[1] + 1))
        ext_base = fmap_base(i) + sum(a for _, _, a in in_tiles)
        sizes = []
        while total > 0:
            take = min(total, in_cap)
            sizes.append(take)
            total -= take
        extra = np.zeros(len(sizes), dtype=EVENT_DTYPE)
        extra["op"] = OP_READ
        extra["addr"] = ext_base + np.cumsum([0] + sizes[:-1])
        extra["size"] = sizes
        extra["t"] = arr["t"][cut - 1]
        chunks.append(extra)
        pos = cut
    chunks.append(arr[pos:])
    return Trace(np.concatenate(chunks))


def _with_layer_divider(base: Trace, net: NetworkSpec) -> Trace:
    """Split each output flush into two sub-layers with a fake dependence.

    The first half is written, read back by the second sub-layer, then
    written again byte-identical alongside the genuinely new half.  All
    writes are read downstream, so a re-read filter alone keeps them.
    """
    chunks = []
    pos = 0
    arr = base.arr
    for i, layer in enumerate(net.layers):
        is_out = (arr["op"] == OP_WRITE) & (arr["addr"] >> REGION_SHIFT == FMAP_REGION + i + 1)
        idx = np.flatnonzero(is_out)
        if idx.size < 2:
            continue
        half = idx[: idx.size // 2]
        first_write = idx[0]
        chunks.append(arr[pos:first_write])
        writes = arr[idx]
        h = half.size
        read_back = writes[:h].copy()
        read_back["op"] = OP_READ
        rewrite = writes[:h].copy()  # same addresses, same digests
        chunks.append(writes[:h])
        chunks.append(read_back)
        chunks.append(rewrite)
        chunks.append(writes[h:])
        pos = idx[-1] + 1
    chunks.append(arr[pos:])
    return Trace(np.concatenate(chunks))


# ---------------------------------------------------------------------------
# the bin-packing countermeasure


@dataclass(frozen=True)
class NeuroPlugKey:
    """Model-resident secrets: noise parameters, dummy budget, seeds."""

    seed: int = 1
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    bin_cfg: BinConfig = field(default_factory=BinConfig)
    npu_capacity: int = 512 * 1024
    t_tile: int = T_TILE


@dataclass
class StreamBins:
    layer: int
    stream: str
    n_bins: int


@dataclass
class NeuroPlugRun:
    trace: Trace
    streams: list[StreamBins]
    plans: list[ExecutionPlan]
    reports: list[binpack.BinPackReport]

    def bins_of(self, layer: int, stream: str) -> int:
        for s in self.streams:
            if s.layer == layer and s.stream == stream:
                return s.n_bins
        raise KeyError((layer, stream))


@dataclass
class NeuroPlugCache:
    """Per-(net, input, model seed) compressed content reused across runs."""

    data: NetData
    fmap_tiles: list[list[CompressedTile]]  # compressed tiles per fmap index >= 1
    weight_tiles: list[list[CompressedTile]]  # per layer, one tile per output map


def _coalesced_raw_chunks(tensor: np.ndarray, entries, target: int) -> list[np.ndarray]:
    """Concatenate consecutive curve tiles into storage chunks near target bytes.

    Tiny deep tiles (pooling shrinks them fast) are re-created as larger
    units before compression so the bin table stays useful.
    """
    chunks = []
    cur: list[np.ndarray] = []
    cur_bytes = 0
    for _slot, sl, _actual in entries:
        piece = _tile_bytes(tensor, sl)
        cur.append(piece)
        cur_bytes += piece.size
        if cur_bytes >= target:
            chunks.append(np.concatenate(cur))
            cur, cur_bytes = [], 0
    if cur:
        chunks.append(np.concatenate(cur))
    return chunks


def prepare_neuroplug(
    net: NetworkSpec, input_tensor: Tensor3D, model_seed: int, chunk_target: int = 2048
) -> NeuroPlugCache:
    data = compute_net_data(net, input_tensor, model_seed)
    fmap_tiles = []
    for i, layer in enumerate(net.layers):
        entries, _ = sfc.ofmap_walk(layer.shape, layer.tiling)
        chunks = _coalesced_raw_chunks(data.fmaps[i + 1], entries, chunk_target)
        fmap_tiles.append(
            [binpack.compress_tile(raw, tile_id=j) for j, raw in enumerate(chunks)]
        )
    weight_tiles = []
    for i, layer in enumerate(net.layers):
        per_k = []
        for k in range(layer.shape.k):
            per_k.append(
                binpack.compress_tile(
                    np.ascontiguousarray(data.weights[i][k]).view(np.uint8).reshape(-1),
                    tile_id=k,
                )
            )
        weight_tiles.append(per_k)
    return NeuroPlugCache(data=data, fmap_tiles=fmap_tiles, weight_tiles=weight_tiles)


def _first_layer_tiles(
    net: NetworkSpec, input_tensor: Tensor3D, key: NeuroPlugKey, run_index: int,
    chunk_target: int = 2048,
) -> list[CompressedTile]:
    """Input tiles with fresh keyed dummy bytes, recompressed per run."""
    layer = net.layers[0]
    entries, _ = sfc.ifmap_walk(layer.shape, layer.tiling)
    chunks = _coalesced_raw_chunks(input_tensor.values, entries, chunk_target)
    rng = np.random.default_rng([key.seed, run_index, 0xD0])
    total_dummy = key.noise.dummy_bytes_first_layer
    n_chunks = len(chunks)
    share = [total_dummy // n_chunks] * n_chunks
    for i in range(total_dummy % n_chunks):
        share[i] += 1
    tiles = []
    for j, (raw, extra) in enumerate(zip(chunks, share)):
        inflated, spans = binpack.inject_dummy(raw, extra, rng)
        tiles.append(binpack.compress_tile(inflated, tile_id=j, dummy_spans=spans))
    return tiles


def neuroplug_trace(
    net: NetworkSpec,
    input_tensor: Tensor3D,
    key: NeuroPlugKey,
    run_index: int = 0,
    model_seed: int = 0,
    cache: NeuroPlugCache | None = None,
) -> NeuroPlugRun:
    """Bin-granularity trace: every event is one bin, every gap is constant."""
    if cache is None:
        cache = prepare_neuroplug(net, input_tensor, model_seed)
    cfg = key.bin_cfg
    gap = key.bin_cfg.kappa * key.t_tile
    em = _Emitter()
    plans: list[ExecutionPlan] = []
    reports: list[binpack.BinPackReport] = []
    streams: list[StreamBins] = []

    def bin_digest(region_tag: int, idx: int) -> int:
        payload = f"{key.seed}:{run_index}:{region_tag}:{idx}".encode()
        return _digest64(payload)

    def emit_bins(op: int, base: int, count: int, region_tag: int, start: int = 0):
        for b in range(count):
            em.emit(op, base + (start + b) * cfg.bin_size, cfg.bin_size,
                    bin_digest(region_tag, base + (start + b) * cfg.bin_size), dt=gap)

    prev_out_bins = 0
    for i, layer in enumerate(net.layers):
        # input bins: layer 0 packs the (dummied) input; others inherit
        if i == 0:
            tiles = _first_layer_tiles(net, input_tensor, key, run_index)
            bins, rep = binpack.pack_bins(
                tiles, cfg, key.noise,
                np.random.default_rng([key.seed, run_index, i, 0xB0]),
                layer=f"fmap0", assemble=False,
            )
            reports.append(rep)
            n_in = len(bins)
        else:
            n_in = prev_out_bins
        streams.append(StreamBins(i, "ifmap", n_in))

        plan_rng = np.random.default_rng([key.seed, run_index, i, 0xA1])
        plan = sfc.plan_execution(layer.shape, layer.tiling, key.npu_capacity, plan_rng,
                                  cfg.bin_size, n_in)
        plans.append(plan)

        # weight bins: one compressed tile per output map, packed part by part
        parts = plan.ofmap_partition
        stored_bins = 0
        weight_bin_layout: list[tuple[int, int]] = []  # (start, count) per (copy, part)
        for copy in range(plan.eta):
            for p_idx, k_count in enumerate(parts):
                k_lo = sum(parts[:p_idx])
                tiles = cache.weight_tiles[i][k_lo : k_lo + k_count]
                bins, rep = binpack.pack_bins(
                    tiles, cfg, key.noise,
                    np.random.default_rng([key.seed, run_index, i, 0xB1, copy, p_idx]),
                    layer=f"w{i}", assemble=False,
                )
                weight_bin_layout.append((stored_bins, len(bins)))
                stored_bins += len(bins)
                if copy == 0:
                    reports.append(rep)
        streams.append(StreamBins(i, "filter", stored_bins))

        # output bins
        out_bins, out_rep = binpack.pack_bins(
            cache.fmap_tiles[i], cfg, key.noise,
            np.random.default_rng([key.seed, run_index, i, 0xB2]),
            layer=f"fmap{i + 1}", assemble=False,
        )
        reports.append(out_rep)
        n_out = len(out_bins)
        streams.append(StreamBins(i, "ofmap", n_out))

        # skip connections re-read the stored curve of the source layer
        for src, dst in net.skips:
            if dst == i:
                src_bins = next(
                    s.n_bins for s in streams if s.layer == src and s.stream == "ofmap"
                )
                emit_bins(OP_READ, fmap_base(src + 1), src_bins, region_tag=src + 1)

        in_base = fmap_base(i)
        w_base = weight_base(i)
        n_parts = len(parts)

        def read_filter_pass(pass_idx: int):
            copy = pass_idx % plan.eta
            for p_idx in range(n_parts):
                start, count = weight_bin_layout[copy * n_parts + p_idx]
                emit_bins(OP_READ, w_base, count, region_tag=-(i + 1), start=start)

        # case II holds the weights on chip and streams the ifmap groups past
        # them; every other case reads a weight pass after each ifmap group
        if plan.case == sfc.CASE_II:
            read_filter_pass(0)
        done = 0
        for pass_idx, g in enumerate(plan.ifmap_bin_groups):
            emit_bins(OP_READ, in_base, g, region_tag=i, start=done)
            done += g
            if plan.case != sfc.CASE_II:
                read_filter_pass(pass_idx)
        emit_bins(OP_WRITE, fmap_base(i + 1), n_out, region_tag=i + 1)
        prev_out_bins = n_out

    return NeuroPlugRun(trace=em.build(), streams=streams, plans=plans, reports=reports)


# ---------------------------------------------------------------------------
# scenarios


@dataclass
class Scenario:
    """One experiment configuration: a network, a countermeasure, the
    accelerator mode, the model seed and (for NeuroPlug) the key."""

    net: NetworkSpec
    cm: str = "none"  # none | neuroplug
    sparse: bool = False
    seed: int = 0
    key: NeuroPlugKey | None = None


def ground_truth(net: NetworkSpec) -> dict:
    """Out-of-band labels for attack verdicts."""
    layers = []
    for i, layer in enumerate(net.layers):
        out_tiles, _ = sfc.ofmap_walk(layer.shape, layer.tiling)
        shp = layer.shape
        layers.append(
            {
                "layer": i,
                "ifmap_volume": sfc.ifmap_bytes(shp),
                "ofmap_volume": shp.k * shp.p_out * shp.q_out,
                "ofmap_write_tiles": len(out_tiles),
                "k": shp.k, "c": shp.c, "h": shp.h, "w": shp.w,
                "r": shp.r, "s": shp.s,
            }
        )
    return {"layers": layers}
