"""Attacker-visible memory transaction streams.

Every trace is built one way: a generator lists event rows (op, addr,
size, digest) in issue order, each with dt, the cycles it advances the
clock, and `_build` turns them into a `Trace`.  An event's t is the sum of
the dt of the rows before it: `_build` alone sums dt, and `_inserted` and
the layer divider copy the times of events already built.
A row of size 0 (a sparse block with no nonzero byte) still advances the
clock but is not an event.

* baseline_trace - unprotected tile-granularity traffic in the canonical
  loop-nest order.  A transfer's dt is its DRAM bursts (4 cycles per 64 B),
  and each input tile adds T_TILE of compute, moved or skipped.  Sparse
  mode sizes events by the nonzero bytes of each block (a sparse
  accelerator's compressed transfers).
* additive_cm_trace - a dense baseline with one abstract additive-noise
  countermeasure spliced in per layer: unread dummy writes, constant-mean
  read inflation, or the sub-layer divider that fakes read-after-write
  dependences.  Inserted events are issued at the time of the event they
  follow.
* neuroplug_trace - bin-granularity traffic: tiles are compressed, packed
  into fixed-size bins with keyed empty-space noise, and every event is
  exactly one bin with a constant gap of kappa * T_TILE.

Both read a feature map in one stored form, `sfc.curve_image`: a baseline
tile and a NeuroPlug storage chunk are each a slice of it.  The chunks are
cut at `chunk_ends`, which depends on the curve alone, so a map's chunk
count is public geometry that an attacker computes without the data.
Likewise a layer's geometry (its curves, the loop-nest order of its dense
table, and where the additive models splice into it) depends on the layer
alone: `_layer_geometry` computes it once for every input, run and model.

Content is computed per model or per input.  A model, the layer shapes
and sparsities of a net with one model seed, has weights and compressed
weight tiles (the tiling does not enter them); an input has
feature maps and compressed feature-map tiles.  A one-slot store holds the
last model's weights, weight tiles and weight-block digests, so the many
inputs an attack runs against one model generate, compress and hash them
once.  Everything the store and `compute_net_data` compute is read-only, so
no caller can change what later inputs read.

A trace has one file form, `Trace.to_binary`: each event as a 33 B
little-endian copy of EVENT_DTYPE, so every field round-trips bit for bit.

Addresses are per-(tensor, stream) regions: feature map j lives at
(1 + j) << 28, weights of layer i at WEIGHT_REGION + (i << 28), dummy
streams likewise; `fmap_index` decodes feature-map addresses.  Attacks may
use the map (the NPU design is public; only key material is secret).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import binpack, sfc
from .binpack import BinConfig, CompressedTile, NoiseSpec
from .errors import ConfigError, IntegrityError
from .model import Layer, NetworkSpec, Tensor3D, conv_forward, generate_weights
from .sfc import ExecutionPlan

OP_READ = 0
OP_WRITE = 1

EVENT_DTYPE = np.dtype(
    [("op", "u1"), ("addr", "u8"), ("size", "u8"), ("t", "u8"), ("digest", "u8")]
)

_RECORD = EVENT_DTYPE.newbyteorder("<")  # the trace file's record, every field whole
_EVENT_BYTES = np.dtype((np.void, EVENT_DTYPE.itemsize))  # an event as one opaque value

REGION_SHIFT = 28
FMAP_REGION = 1
WEIGHT_REGION = 1 << 12
DUMMY_REGION = 1 << 13

DRAM_BURST_BYTES = 64
DRAM_BURST_CYCLES = 4
T_TILE = 512
CHUNK_TARGET = 2048  # bytes per coalesced storage chunk


def fmap_base(tensor_idx: int) -> int:
    return (FMAP_REGION + tensor_idx) << REGION_SHIFT


def weight_base(layer_idx: int) -> int:
    return (WEIGHT_REGION + layer_idx) << REGION_SHIFT


def dummy_base(layer_idx: int) -> int:
    return (DUMMY_REGION + layer_idx) << REGION_SHIFT


def fmap_index(addrs) -> np.ndarray:
    """Feature-map index of each address, -1 outside the feature maps."""
    rid = (np.asarray(addrs, dtype=np.uint64) >> np.uint64(REGION_SHIFT)).astype(np.int64)
    return np.where((rid >= FMAP_REGION) & (rid < WEIGHT_REGION), rid - FMAP_REGION, -1)


class Trace:
    """Event stream in issue order, backed by a structured array.

    Every generator but one issues events at non-decreasing t.  The layer
    divider's read-back and rewrite repeat the times of the writes they
    copy, so its traces step back in time where they are inserted.
    """

    def __init__(self, arr: np.ndarray):
        self.arr = arr

    def __len__(self):
        return len(self.arr)

    @property
    def size(self):
        return self.arr["size"]

    @property
    def t(self):
        return self.arr["t"]

    def to_binary(self) -> bytes:
        """Each event as one little-endian copy of EVENT_DTYPE (33 B)."""
        return self.arr.astype(_RECORD).tobytes()

    @classmethod
    def from_binary(cls, data: bytes) -> "Trace":
        """Parse to_binary's records; a malformed blob raises IntegrityError."""
        if len(data) % _RECORD.itemsize:
            raise IntegrityError(
                f"{len(data)} B is not a whole number of {_RECORD.itemsize} B records"
            )
        rec = np.frombuffer(data, dtype=_RECORD)
        bad = np.flatnonzero(rec["op"] > OP_WRITE)
        if bad.size:
            i = int(bad[0])
            raise IntegrityError(f"trace record {i}: op {rec['op'][i]} is neither read nor write")
        # no generator emits an event that moves no bytes
        empty = np.flatnonzero(rec["size"] == 0)
        if empty.size:
            raise IntegrityError(f"trace record {int(empty[0])} has size 0")
        return cls(rec.astype(EVENT_DTYPE))


def _transfer_cycles(size):
    """Cycles to move size bytes: whole DRAM bursts, none for size 0."""
    return (size + DRAM_BURST_BYTES - 1) // DRAM_BURST_BYTES * DRAM_BURST_CYCLES


def _build(rows) -> Trace:
    """The one clock: rows are (op, addr, size, digest, dt) in issue order.

    Each row starts when the rows before it have advanced the clock by
    their dt.  A row of size 0 (a skipped sparse block) still advances the
    clock but is not an event.
    """
    op, addr, size, digest, dt = np.asarray(rows, dtype=np.uint64).reshape(-1, 5).T
    keep = size > 0
    arr = np.zeros(np.count_nonzero(keep), dtype=EVENT_DTYPE)
    for name, col in zip(EVENT_DTYPE.names, (op, addr, size, np.cumsum(dt) - dt, digest)):
        arr[name] = col[keep]
    return Trace(arr)


def _concat_events(parts) -> np.ndarray:
    """np.concatenate of event arrays, through views that hide the fields:
    numpy promotes structured dtypes field by field for every part it
    joins, which costs far more than the copy."""
    return np.concatenate([part.view(_EVENT_BYTES) for part in parts]).view(EVENT_DTYPE)


def _digest64(data) -> int:
    """64-bit blake2b of bytes or any C-contiguous buffer."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def _size_digest(tensor, index, size: int, sparse: bool, observe_values: bool) -> tuple[int, int]:
    """Event size and content hash of the weight block tensor[index], which
    holds size bytes.  Sparse transfers move only the nonzero bytes,
    so an all-zero block has size 0.  Without values (tensor None) a block
    moves whole and has no hash."""
    if tensor is None:
        return size, 0
    block = tensor[index]
    if sparse:
        size = int(np.count_nonzero(block))
    return size, _digest64(np.ascontiguousarray(block)) if observe_values else 0


# ---------------------------------------------------------------------------
# the model store and the forward-pass cache


@dataclass
class _Model:
    """One model's read-only weights and, once asked for, their compressed
    tiles and its weight-block digests.

    weight_rows memoises, per (layer index, tk, tc, sparse, observe_values),
    a layer's weight-block rows (op, addr, size, digest) as a read-only
    array: the model key fixes each layer's shape, and a retiled net shares
    the model, so the tiling and the two flags name everything else.  Two
    threads that miss one key at once build equal rows, and either may stay.
    """

    key: tuple  # ((shape, sparsity) per layer, model seed)
    weights: list[np.ndarray]
    weight_tiles: list[list[CompressedTile]] | None = None
    weight_rows: dict = field(default_factory=dict, repr=False)


_held: _Model | None = None  # the store: the last model asked for


def _model(net: NetworkSpec, model_seed: int) -> _Model:
    """The model of (net, model_seed), generated unless it is the one held.

    The weights and their tiles depend on each layer's shape and sparsity
    only, so nets that differ in tiling alone share one model."""
    global _held
    key = (tuple((layer.shape, layer.sparsity) for layer in net.layers), model_seed)
    model = _held  # read once: another thread may replace the held model
    if model is None or model.key != key:
        _held = None  # never hold two models' weights at once
        weights = generate_weights(net, model_seed)
        for w in weights:
            w.flags.writeable = False
        model = _held = _Model(key, weights)
    return model


@dataclass
class NetData:
    """Values needed by content-dependent traces: one input's feature maps
    and its model's weights.

    The weights are the model store's, shared by every input of the same
    model; the computed maps fmaps[1:] belong to this input.
    Both are read-only, and `baseline_trace` relies on that: it memoises
    each layer's ordered event table (sizes and digests of every block)
    here, so later traces of the same input look the table up instead of
    hashing every block again.  The weight blocks' rows go one level up,
    into `_weight_rows`: `compute_net_data` hands every input the model's
    dict, so the inputs of one model hash its weights once between them; a
    hand-built NetData gets a dict of its own.  fmaps[0] is the caller's
    input array.
    """

    fmaps: list[np.ndarray]  # tensor per fmap index, fmaps[0] = input
    weights: list[np.ndarray]
    _weight_rows: dict = field(default_factory=dict, repr=False, compare=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def compute_net_data(net: NetworkSpec, input_tensor: Tensor3D, model_seed: int) -> NetData:
    model = _model(net, model_seed)
    fmaps = [input_tensor.values]
    for layer, w in zip(net.layers, model.weights):
        fmap = conv_forward(layer.shape, fmaps[-1], w)
        fmap.flags.writeable = False
        fmaps.append(fmap)
    return NetData(fmaps=fmaps, weights=list(model.weights), _weight_rows=model.weight_rows)


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

    Per layer, per output-map block and channel group: read the weight
    block and that group's input tiles (each holding the array for T_TILE
    cycles, moved or skipped), and flush the block's output tiles once
    after its last channel group.  Each layer's event table is built once
    per `data` and looked up by later calls; its weight blocks are sized
    and hashed once per model and tiling (see `NetData`).  A dense table
    without values depends on the layer alone and is built once per layer
    for every caller, `data` or not.
    """
    return _build(np.concatenate(_baseline_tables(net, input_tensor, seed, sparse,
                                                  observe_values, data)))


def _baseline_tables(net: NetworkSpec, input_tensor: Tensor3D, seed: int, sparse: bool,
                     observe_values: bool, data: NetData | None) -> list[np.ndarray]:
    """The baseline's per-layer event tables, in layer order."""
    if not (sparse or observe_values):
        return [_value_free_table(i, layer) for i, layer in enumerate(net.layers)]
    if data is None:
        data = compute_net_data(net, input_tensor, seed)
    # besides data, a layer's table reads only what its key names: the
    # layer and the two flags
    layers = []
    for i, layer in enumerate(net.layers):
        key = (i, layer, sparse, observe_values)
        if key not in data._tables:
            data._tables[key] = _layer_table(i, layer, data.fmaps, data.weights, sparse,
                                             observe_values, data._weight_rows)
        layers.append(data._tables[key])
    return layers


@functools.lru_cache(maxsize=64)
def _value_free_table(i: int, layer: Layer) -> np.ndarray:
    """Layer i's dense table without values, which reads nothing but the
    layer: built once for every caller, and kept for the last 64 layers."""
    return _layer_table(i, layer, [None] * (i + 2), [None] * (i + 1), False, False, {})


@dataclass(frozen=True)
class _Geometry:
    """A layer's value-free trace geometry: what its dense table looks like
    for every input, run and model.

    in_tiles and out_tiles are its input and output curves: each tile's
    byte offset and size in curve order.  order is the loop-nest order
    of the table's rows (weight blocks, then input tiles, then output
    tiles, as `_layer_table` lists them); writes are the ordered table's
    write positions, one per output tile; last_read is its last read of the
    layer's input map; out_cap is a full output tile's bytes.
    """

    in_tiles: sfc.Curve
    out_tiles: sfc.Curve
    order: np.ndarray
    writes: np.ndarray
    last_read: int
    out_cap: int


@functools.lru_cache(maxsize=64)
def _layer_geometry(layer: Layer) -> _Geometry:
    """The layer's `_Geometry`, made once and kept for the last 64 layers."""
    shp, til = layer.shape, layer.tiling
    n_k, n_c = math.ceil(shp.k / til.tk), math.ceil(shp.c / til.tc)
    in_tiles, out_tiles = sfc.ifmap_curve(shp, til), sfc.ofmap_curve(shp, til)
    in_row = n_k * n_c
    out_row = in_row + len(in_tiles.sizes)
    # the loop nest as one index order over the table: curve tile j is in channel group j mod n
    order = []
    for ko in range(n_k):
        for co in range(n_c):
            order += [[ko * n_c + co], np.arange(in_row + co, out_row, n_c)]
        order.append(np.arange(out_row + ko, out_row + len(out_tiles.sizes), n_k))
    order = np.concatenate(order)
    writes = np.flatnonzero(order >= out_row)
    last_read = int(np.flatnonzero((order >= in_row) & (order < out_row))[-1])
    for arr in (order, writes, *in_tiles[1:], *out_tiles[1:]):
        arr.flags.writeable = False
    return _Geometry(in_tiles, out_tiles, order, writes, last_read, math.prod(out_tiles.tile))


def _tile_rows(op: int, j: int, tensor, curve, sparse: bool, observe_values: bool) -> np.ndarray:
    """(op, addr, size, digest) rows of map j's tiles along its curve.
    Each tile is a slice of the map's curve image: sparse sizes count its
    nonzero bytes in one reduction, and digests hash it through a
    memoryview.  Without values (tensor None) every tile moves whole and
    has no hash."""
    _, offs, sizes = curve
    rows = np.zeros((len(offs), 4), dtype=np.uint64)
    rows[:, 0] = op
    rows[:, 1] = fmap_base(j) + offs
    rows[:, 2] = sizes
    if tensor is not None:
        image = sfc.curve_image(tensor, curve)
        if sparse:
            rows[:, 2] = np.add.reduceat(image != 0, offs, dtype=np.int64)
        if observe_values:
            view = memoryview(image)
            rows[:, 3] = np.fromiter((_digest64(view[a:a + n])
                                      for a, n in zip(offs.tolist(), sizes.tolist())),
                                     dtype=np.uint64, count=len(offs))
    return rows


def _layer_table(i: int, layer: Layer, fmaps, weights, sparse: bool,
                 observe_values: bool, weight_rows: dict) -> np.ndarray:
    """Layer i's (op, addr, size, digest, dt) rows in loop-nest order, read-only.

    Its weight-block rows are looked up in weight_rows, its model's memo
    (see `_Model`), and built there on first use; its curves and row order
    come from `_layer_geometry`.
    """
    shp, til = layer.shape, layer.tiling
    geo = _layer_geometry(layer)
    wblock_cap = til.tk * til.tc * shp.r * shp.s
    # every block the layer moves, sized and hashed once: weight blocks
    # (k-major, once per model and tiling), input tiles, output tiles
    wkey = (i, til.tk, til.tc, sparse, observe_values)
    wrows = weight_rows.get(wkey)
    if wrows is None:
        wrows = []
        for b, (k0, c0) in enumerate(itertools.product(range(0, shp.k, til.tk),
                                                       range(0, shp.c, til.tc))):
            k1, c1 = min(shp.k, k0 + til.tk), min(shp.c, c0 + til.tc)
            size = (k1 - k0) * (c1 - c0) * shp.r * shp.s
            wrows.append((OP_READ, weight_base(i) + b * wblock_cap,
                          *_size_digest(weights[i], np.s_[k0:k1, c0:c1], size, sparse,
                                        observe_values)))
        wrows = np.array(wrows, dtype=np.uint64)
        wrows.flags.writeable = False
        weight_rows[wkey] = wrows
    table = np.concatenate((wrows,
                            _tile_rows(OP_READ, i, fmaps[i], geo.in_tiles, sparse, observe_values),
                            _tile_rows(OP_WRITE, i + 1, fmaps[i + 1], geo.out_tiles, sparse,
                                       observe_values)))
    dt = _transfer_cycles(table[:, 2])
    dt[len(wrows):len(wrows) + len(geo.in_tiles.sizes)] += T_TILE
    table = np.column_stack((table, dt))[geo.order]
    table.flags.writeable = False
    return table


# ---------------------------------------------------------------------------
# abstract additive countermeasures


ADDITIVE_MODELS = ("dummy-writes", "const-mean", "layer-divider")
DUMMY_RATIO = 0.5  # dummy writes per real output tile
CONST_MEAN = 22400  # hardwired read inflation per layer, in bytes
JITTER = (-8, 8)  # inclusive bounds of the zero-mean jitter on CONST_MEAN


def additive_cm_trace(
    net: NetworkSpec,
    input_tensor: Tensor3D,
    cm_model: str,
    seed: int = 0,
    run_index: int = 0,
    observe_values: bool = False,
    data: NetData | None = None,
) -> Trace:
    """The dense baseline plus one of the additive-noise countermeasure models."""
    if cm_model not in ADDITIVE_MODELS:
        raise ConfigError(f"unknown additive model {cm_model!r}")
    rng = np.random.default_rng([seed, run_index, 0xC3])
    # the layer divider's rewrites repeat the digests of the writes they copy
    tables = _baseline_tables(net, input_tensor, seed, sparse=False, data=data,
                              observe_values=observe_values or cm_model == "layer-divider")
    base = _build(np.concatenate(tables)).arr
    ends = np.cumsum([len(table) for table in tables])  # where each layer's events end
    chunks, pos = [], 0
    for start, stop, rows in _additive_edits(base, ends, net, cm_model, rng):
        chunks += [base[pos:start], rows]
        pos = stop
    chunks.append(base[pos:])
    return Trace(_concat_events(chunks))


def _additive_edits(arr: np.ndarray, ends, net: NetworkSpec, cm_model: str, rng):
    """Per layer, one (start, stop, rows) edit: rows replace arr[start:stop].

    Layer i's events are arr[ends[i - 1]:ends[i]], and in a dense trace
    they read fmap i and write fmap i + 1 at least once each.  Dummy writes
    follow the layer's last write and const-mean padding its last read of
    fmap i.  Those places are value-free, the same for every input, run and
    model, so they come from the layer's `_layer_geometry` and no edit
    scans arr.
    """
    for i, layer in enumerate(net.layers):
        lo = ends[i - 1] if i else 0
        geo = _layer_geometry(layer)
        writes = lo + geo.writes  # of fmap i + 1
        if cm_model == "dummy-writes":
            # unread dummy writes appended to the layer's output flush
            n = max(1, round(DUMMY_RATIO * writes.size))
            at = writes[-1] + 1
            yield at, at, _inserted(arr, at, OP_WRITE, dummy_base(i) + np.arange(n) * geo.out_cap,
                                    geo.out_cap, rng.integers(1, 1 << 63, size=n))
        elif cm_model == "const-mean":
            # a hardwired constant plus small zero-mean jitter of extra reads
            # that extend the layer's input region, so that their addresses
            # look like real input traffic
            cap = sfc.deep_tile_bytes(layer.tiling)
            total = CONST_MEAN + int(rng.integers(JITTER[0], JITTER[1] + 1))
            offs = np.arange(0, total, cap)
            at = lo + geo.last_read + 1
            yield at, at, _inserted(arr, at, OP_READ, fmap_base(i) + sfc.ifmap_bytes(layer.shape) + offs,
                                    np.minimum(cap, total - offs), 0)
        elif cm_model == "layer-divider" and writes.size >= 2:
            # two sub-layers with a fake dependence: the first half of the
            # flush is written, read back by the second sub-layer and written
            # again byte-identical beside the genuinely new half, so a
            # re-read filter alone keeps every write.  Replacing everything
            # from the first write to the last also drops the later
            # k-blocks' reads between them (ROADMAP item 1); keeping them
            # moves the attack-vgg16-32 golden records.
            w = arr[writes]
            h = writes.size // 2
            read_back = w[:h].copy()
            read_back["op"] = OP_READ
            yield writes[0], writes[-1] + 1, _concat_events([w[:h], read_back, w[:h], w[h:]])


def _inserted(arr: np.ndarray, at: int, op: int, addr, size, digest) -> np.ndarray:
    """Events to insert before arr[at], at the time of the event before it (0 if none)."""
    rows = np.zeros(len(addr), dtype=EVENT_DTYPE)
    rows["op"], rows["addr"], rows["size"], rows["digest"] = op, addr, size, digest
    rows["t"] = arr["t"][at - 1] if at else 0
    return rows


# ---------------------------------------------------------------------------
# the bin-packing countermeasure


@dataclass(frozen=True)
class NeuroPlugKey:
    """Model-resident secrets: noise parameters, dummy budget, seeds."""

    seed: int = 1
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    bin_cfg: BinConfig = field(default_factory=BinConfig)
    npu_capacity: int = 512 * 1024


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


@dataclass
class NeuroPlugCache:
    """Compressed content reused across runs: fmap_tiles per input, and
    weight_tiles per model, shared read-only through the model store by
    every input of that model."""

    data: NetData
    fmap_tiles: list[list[CompressedTile]]  # compressed tiles per fmap index >= 1
    weight_tiles: list[list[CompressedTile]]  # per layer, one tile per output map


def chunk_ends(curve: sfc.Curve) -> list[int]:
    """Byte ends of a map's storage chunks, the last at the map's end.

    Consecutive curve tiles coalesce until a chunk holds at least
    CHUNK_TARGET bytes, so tiny deep tiles (pooling shrinks them fast) are
    stored as larger units and the bin table stays useful.  The cuts depend
    on the curve alone: the chunk count is public geometry, known without
    the data.
    """
    ends = [0]
    tile_ends = (curve.offsets + curve.sizes).tolist()
    for end in tile_ends:
        if end - ends[-1] >= CHUNK_TARGET:
            ends.append(end)
    if ends[-1] < tile_ends[-1]:
        ends.append(tile_ends[-1])
    return ends[1:]


def _chunks(tensor: np.ndarray, curve: sfc.Curve) -> list[np.ndarray]:
    """The raw storage chunks: the map's curve image cut at `chunk_ends`."""
    return np.split(sfc.curve_image(tensor, curve), chunk_ends(curve)[:-1])


def _weight_tiles(net: NetworkSpec, model_seed: int) -> list[list[CompressedTile]]:
    """The model's weight tiles, compressed the first time they are asked for.

    The tiles are shared; the lists are new, so a caller that edits them
    leaves the store as it was."""
    model = _model(net, model_seed)
    if model.weight_tiles is None:
        # a weight tile per output map: the rows of the (k, c*r*s) weight bytes
        model.weight_tiles = [binpack.compress_stream(list(w.view(np.uint8).reshape(len(w), -1)))
                              for w in model.weights]
        for tile in itertools.chain.from_iterable(model.weight_tiles):
            tile.payload.flags.writeable = False
    return [list(tiles) for tiles in model.weight_tiles]


def prepare_neuroplug(net: NetworkSpec, input_tensor: Tensor3D, model_seed: int) -> NeuroPlugCache:
    data = compute_net_data(net, input_tensor, model_seed)
    fmap_tiles = [binpack.compress_stream(_chunks(fmap, _layer_geometry(layer).out_tiles))
                  for fmap, layer in zip(data.fmaps[1:], net.layers)]
    return NeuroPlugCache(data=data, fmap_tiles=fmap_tiles,
                          weight_tiles=_weight_tiles(net, model_seed))


def _first_layer_tiles(
    net: NetworkSpec, fmap0: np.ndarray, key: NeuroPlugKey, run_index: int
) -> list[CompressedTile]:
    """Input tiles with fresh keyed dummy bytes, recompressed per run.

    The dummy bytes are spread over the input's chunks in order, the first
    dummy_bytes_first_layer % len(chunks) of them taking one byte more.
    """
    chunks = _chunks(fmap0, _layer_geometry(net.layers[0]).in_tiles)
    rng = np.random.default_rng([key.seed, run_index, 0xD0])
    share, extra = divmod(key.noise.dummy_bytes_first_layer, len(chunks))
    inflated, spans = zip(*(binpack.inject_dummy(raw, share + (j < extra), rng)
                            for j, raw in enumerate(chunks)))
    return binpack.compress_stream(inflated, spans)


def neuroplug_trace(
    net: NetworkSpec,
    input_tensor: Tensor3D,
    key: NeuroPlugKey,
    run_index: int = 0,
    model_seed: int = 0,
    cache: NeuroPlugCache | None = None,
) -> NeuroPlugRun:
    """Bin-granularity trace: every event is one bin, every gap is constant.

    Every stream (the input, each weight partition part of each stored copy,
    each output) is packed one way, with a generator seeded by the key, the
    run and the stream's tag.  A feature map's bin count is kept when it is
    written and read back by the next layer.  A weight part's tiles number
    from 0, so a stored copy unpacks part by part.  Every map, the input
    too, and the weights come from `cache`; input_tensor and model_seed
    only build the cache when none is passed.
    """
    if cache is None:
        cache = prepare_neuroplug(net, input_tensor, model_seed)
    cfg = key.bin_cfg
    gap = cfg.kappa * T_TILE
    rows, plans, reports, streams = [], [], [], []

    def pack(tiles, name: str, *rng_tag: int) -> tuple[int, binpack.BinPackReport]:
        rng = np.random.default_rng([key.seed, run_index, *rng_tag])
        bins, report = binpack.pack_bins(tiles, cfg, key.noise, rng, layer=name, assemble=False)
        return len(bins), report

    def emit_bins(op: int, base: int, count: int, region_tag: int, start: int = 0):
        for b in range(start, start + count):
            addr = base + b * cfg.bin_size
            digest = _digest64(f"{key.seed}:{run_index}:{region_tag}:{addr}".encode())
            rows.append((op, addr, cfg.bin_size, digest, gap))

    # bins of the map a layer reads: layer 0 packs the (dummied) input, and
    # every later layer reads the map the layer before it stored
    n_in, report = pack(_first_layer_tiles(net, cache.data.fmaps[0], key, run_index),
                        "fmap0", 0, 0xB0)
    reports.append(report)
    for i, layer in enumerate(net.layers):
        streams.append(StreamBins(i, "ifmap", n_in))

        plan = sfc.plan_execution(layer.shape, layer.tiling, key.npu_capacity,
                                  np.random.default_rng([key.seed, run_index, i, 0xA1]),
                                  cfg.bin_size, n_in)
        plans.append(plan)

        # weight bins: one compressed tile per output map, packed part by
        # part; a stored copy's parts lie back to back
        k_bounds = list(itertools.pairwise(itertools.accumulate(plan.ofmap_partition, initial=0)))
        packed = [[pack(cache.weight_tiles[i][lo:hi], f"w{i}", i, 0xB1, copy, p_idx)
                   for p_idx, (lo, hi) in enumerate(k_bounds)] for copy in range(plan.eta)]
        reports += [report for _, report in packed[0]]
        copy_bins = [sum(n for n, _ in parts) for parts in packed]
        streams.append(StreamBins(i, "filter", sum(copy_bins)))

        n_out, report = pack(cache.fmap_tiles[i], f"fmap{i + 1}", i, 0xB2)
        reports.append(report)
        streams.append(StreamBins(i, "ofmap", n_out))

        # the plan's read order: ifmap groups and stored weight copies, each
        # a run of bins that starts where the stream's earlier ones end
        reads = {"ifmap": (fmap_base(i), i, plan.ifmap_bin_groups),
                 "filter": (weight_base(i), -(i + 1), copy_bins)}
        for stream, idx in plan.passes():
            base, region_tag, counts = reads[stream]
            emit_bins(OP_READ, base, counts[idx], region_tag, start=sum(counts[:idx]))
        emit_bins(OP_WRITE, fmap_base(i + 1), n_out, region_tag=i + 1)
        n_in = n_out

    return NeuroPlugRun(trace=_build(rows), streams=streams, plans=plans, reports=reports)


# ---------------------------------------------------------------------------
# ground truth


def ground_truth(net: NetworkSpec) -> dict:
    """Out-of-band labels for attack verdicts."""
    layers = []
    for i, layer in enumerate(net.layers):
        shp = layer.shape
        layers.append(
            {
                "layer": i,
                "ifmap_volume": sfc.ifmap_bytes(shp),
                "ofmap_volume": shp.k * shp.p_out * shp.q_out,
                "ofmap_write_tiles": len(sfc.ofmap_curve(shp, layer.tiling).sizes),
                "k": shp.k, "c": shp.c, "h": shp.h, "w": shp.w,
                "r": shp.r, "s": shp.s,
            }
        )
    return {"layers": layers}
