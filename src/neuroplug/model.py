"""Network geometry, synthetic data, convolution forward passes and NSQF helpers.

All numeric work is done on 8-bit signed elements with 32-bit accumulators so
results are deterministic across platforms.  Weights and inputs are generated
from explicit seeds; nothing here keeps mutable state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import _kernels
from .errors import ConfigError, DomainError, ShapeError

INT8_MAX = 127


@dataclass(frozen=True)
class LayerShape:
    """Geometry of one convolution layer.

    k: output feature maps, c: input channels, h/w: input rows/cols,
    r/s: filter rows/cols, pool: downsample factor per axis (1 = none).
    Elements are int8, one byte each.
    """

    k: int
    c: int
    h: int
    w: int
    r: int
    s: int
    stride: int = 1
    pad: int = 0
    pool: int = 1

    @property
    def p(self) -> int:
        """Output rows before pooling."""
        return (self.h + 2 * self.pad - self.r) // self.stride + 1

    @property
    def q(self) -> int:
        """Output cols before pooling."""
        return (self.w + 2 * self.pad - self.s) // self.stride + 1

    @property
    def p_out(self) -> int:
        return self.p // self.pool

    @property
    def q_out(self) -> int:
        return self.q // self.pool

    def validate(self) -> None:
        for name in ("k", "c", "h", "w", "r", "s", "stride", "pool"):
            if getattr(self, name) < 1:
                raise ShapeError(f"layer field {name} must be >= 1")
        if self.pad < 0:
            raise ShapeError("pad must be >= 0")
        if self.p < 1 or self.q < 1:
            raise ShapeError("filter larger than padded input")
        if self.p % self.pool or self.q % self.pool:
            raise ShapeError(f"pool {self.pool} must divide output dims {self.p}x{self.q}")
        if self.c * self.r * self.s >= 1 << 17:
            # c*r*s products of magnitude up to 2**14 must sum below 2**31
            raise ShapeError(f"c*r*s = {self.c * self.r * self.s} overflows int32 "
                             "accumulators; it must be below 2**17")


@dataclass(frozen=True)
class TilingSpec:
    """Tiling factors for one layer (counts, not bytes)."""

    tk: int
    tc: int
    th: int
    tw: int

    def validate(self, shape: LayerShape) -> None:
        if not (1 <= self.tk <= shape.k):
            raise ShapeError(f"tk={self.tk} outside [1, {shape.k}]")
        if not (1 <= self.tc <= shape.c):
            raise ShapeError(f"tc={self.tc} outside [1, {shape.c}]")
        if not (1 <= self.th <= shape.h):
            raise ShapeError(f"th={self.th} outside [1, {shape.h}]")
        if not (1 <= self.tw <= shape.w):
            raise ShapeError(f"tw={self.tw} outside [1, {shape.w}]")


AUTO_TILE_BYTES = 2048  # deep-tile size auto_tile aims at


def auto_tile(shape: LayerShape) -> TilingSpec:
    """Pick a deep-tile shape with roughly AUTO_TILE_BYTES per tile."""
    th = tw = min(shape.h, 8)
    tc = max(1, min(shape.c, AUTO_TILE_BYTES // (th * tw)))
    return TilingSpec(tk=shape.k, tc=tc, th=th, tw=min(shape.w, tw))


@dataclass(frozen=True)
class Layer:
    shape: LayerShape
    tiling: TilingSpec
    sparsity: float = 0.0


@dataclass
class NetworkSpec:
    """A chain of conv layers: layer i alone reads feature map i and writes
    feature map i + 1."""

    layers: list[Layer]
    name: str = ""

    def validate(self) -> None:
        if not self.layers:
            raise ConfigError("network has no layers")
        for i, layer in enumerate(self.layers):
            layer.shape.validate()
            layer.tiling.validate(layer.shape)
            if not (0.0 <= layer.sparsity < 1.0):
                raise ConfigError(f"layer {i}: sparsity must be in [0, 1)")
        for i in range(len(self.layers) - 1):
            cur, nxt = self.layers[i].shape, self.layers[i + 1].shape
            if nxt.c != cur.k:
                raise ConfigError(f"layer {i + 1}: c={nxt.c} != previous k={cur.k}")
            if nxt.h != cur.p_out or nxt.w != cur.q_out:
                raise ConfigError(
                    f"layer {i + 1}: input {nxt.h}x{nxt.w} != previous output "
                    f"{cur.p_out}x{cur.q_out}"
                )


@dataclass(frozen=True)
class Tensor3D:
    """Signed 8-bit tensor with explicit (channels, rows, cols) dims."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ShapeError("Tensor3D needs 3 dims (channels, rows, cols)")
        if self.values.dtype != np.int8:
            raise ShapeError("Tensor3D holds int8 elements")


def _as_array(t) -> np.ndarray:
    return t.values if isinstance(t, Tensor3D) else np.asarray(t)


def conv_accumulate(layer: LayerShape, ifmap, weights) -> np.ndarray:
    """Raw windowed sum-of-products on 32-bit accumulators (no ReLU/pool).

    The layer must validate, and ifmap and weights must hold int8 elements:
    nothing is cast, so the int32 result is exact.
    """
    layer.validate()
    ifmap = _as_array(ifmap)
    weights = np.asarray(weights)
    if ifmap.shape != (layer.c, layer.h, layer.w):
        raise ShapeError(f"ifmap shape {ifmap.shape} != {(layer.c, layer.h, layer.w)}")
    if weights.shape != (layer.k, layer.c, layer.r, layer.s):
        raise ShapeError(
            f"weights shape {weights.shape} != {(layer.k, layer.c, layer.r, layer.s)}"
        )
    if ifmap.dtype != np.int8 or weights.dtype != np.int8:
        raise ShapeError(f"conv inputs must be int8, not {ifmap.dtype} ifmap "
                         f"and {weights.dtype} weights")
    return _kernels.conv2d_acc(ifmap, weights, layer.stride, layer.pad)


def requantize(acc: np.ndarray) -> np.ndarray:
    """Scale 32-bit accumulators back to int8 by an arithmetic right shift.

    The shift is the smallest that fits the extreme value, so zero stays
    zero and small activations keep full resolution.
    """
    peak = int(np.abs(acc).max(initial=0))
    shift = 0
    while (peak >> shift) > INT8_MAX:
        shift += 1
    return (acc >> shift).astype(np.int8)


def conv_forward(layer: LayerShape, ifmap, weights) -> np.ndarray:
    """Convolution, ReLU, then max pooling; returns int8 (k, p/pool, q/pool)."""
    acc = conv_accumulate(layer, ifmap, weights)
    np.maximum(acc, 0, out=acc)
    pooled = _kernels.maxpool2d(acc, layer.pool)
    return requantize(pooled)


def generate_weights(net: NetworkSpec, seed: int) -> list[np.ndarray]:
    """Per-layer (k, c, r, s) int8 filters, pruned to the layer's sparsity.

    Pruning zeroes the round(sparsity * size) smallest magnitudes; ties
    resolve by element order so the result is deterministic for a seed.
    """
    out = []
    for idx, layer in enumerate(net.layers):
        sh = layer.shape
        rng = np.random.default_rng([seed, idx, 0xEE17])
        w = rng.integers(-64, 64, size=(sh.k, sh.c, sh.r, sh.s), dtype=np.int8)
        n_zero = min(round(layer.sparsity * w.size), w.size)
        if n_zero > 0:
            flat = w.reshape(-1)
            mag = np.abs(flat)
            # the n_zero-th smallest magnitude (a radix sort on 8-bit values):
            # every smaller one goes, and the first ties at it in element order
            v = np.sort(mag, kind="stable")[n_zero - 1]
            ties = np.flatnonzero(mag == v)[: n_zero - np.count_nonzero(mag < v)]
            np.multiply(flat, mag >= v, out=flat)
            flat[ties] = 0
        out.append(w)
    return out


def generate_input(shape: LayerShape, seed: int, policy: str = "natural") -> Tensor3D:
    """Synthetic network input.

    "natural" builds a smooth nonnegative field (compresses like image data),
    "sparse" scatters a few positive spikes on zeros.
    """
    rng = np.random.default_rng([seed, 0x1F])
    c, h, w = shape.c, shape.h, shape.w
    if policy == "natural":
        gh, gw = max(2, h // 8), max(2, w // 8)
        coarse = rng.uniform(0, 60, size=(c, gh, gw))
        reps_h, reps_w = math.ceil(h / gh), math.ceil(w / gw)
        up = np.repeat(np.repeat(coarse, reps_h, axis=1), reps_w, axis=2)[:, :h, :w]
        kern = np.ones(3) / 3.0
        for axis in (1, 2):
            # "full" cropped to the input length: "same" pads a length below 3 to 3
            up = np.apply_along_axis(lambda m: np.convolve(m, kern)[1 : 1 + m.size], axis, up)
        return Tensor3D(np.clip(np.round(up), 0, 63).astype(np.int8))
    if policy == "sparse":
        vals = np.zeros((c, h, w), dtype=np.int8)
        n_spikes = max(1, (c * h * w) // 64)
        pos = rng.choice(c * h * w, size=n_spikes, replace=False)
        vals.reshape(-1)[pos] = rng.integers(1, 64, size=n_spikes, dtype=np.int8)
        return Tensor3D(vals)
    raise ConfigError(f"unknown input policy {policy!r}")


# ---------------------------------------------------------------------------
# NSQF numbers


def nsqf_mask(lo: int, hi: int) -> np.ndarray:
    """uint8 mask over [lo, hi], 1 where the integer is NSQF."""
    if lo < 1:
        raise DomainError("nsqf range needs lo >= 1")
    if lo > hi:
        return np.zeros(0, dtype=np.uint8)
    return _kernels.nsqf_mask(int(lo), int(hi))


# ---------------------------------------------------------------------------
# network config files


# required fields map to None, optional ones to their default
_SHAPE_FIELDS = {"k": None, "c": None, "h": None, "w": None, "r": None, "s": None,
                 "stride": 1, "pad": 0, "pool": 1}
_TILING_FIELDS = dict.fromkeys(("tk", "tc", "th", "tw"))
_LAYER_KEYS = set(_SHAPE_FIELDS) | {"sparsity", "tiling"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_object(doc, known: set, what: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown {what} key {', '.join(map(repr, unknown))}")


def _int_fields(doc: dict, fields: dict, what: str) -> dict:
    """The integer value of every field, defaults filled in; a missing
    required field raises KeyError."""
    out = {}
    for key, default in fields.items():
        value = doc[key] if default is None else doc.get(key, default)
        if not _is_int(value):
            raise ConfigError(f"{what} field {key!r} must be an integer, got {value!r}")
        out[key] = value
    return out


def _layer_from_json(doc) -> Layer:
    _check_object(doc, _LAYER_KEYS, "layer")
    shape = LayerShape(**_int_fields(doc, _SHAPE_FIELDS, "layer"))
    til = doc.get("tiling")
    if til is not None:
        _check_object(til, set(_TILING_FIELDS), "tiling")
        tiling = TilingSpec(**_int_fields(til, _TILING_FIELDS, "tiling"))
    else:
        tiling = auto_tile(shape)
    sparsity = doc.get("sparsity", 0.0)
    if not isinstance(sparsity, (int, float)) or isinstance(sparsity, bool):
        raise ConfigError(f"layer field 'sparsity' must be a number, got {sparsity!r}")
    return Layer(shape=shape, tiling=tiling, sparsity=sparsity)


def network_from_json(doc) -> NetworkSpec:
    _check_object(doc, {"name", "layers"}, "network")
    try:
        layers_doc = doc["layers"]
        if not isinstance(layers_doc, list):
            raise ConfigError(f"layers must be a list, got {type(layers_doc).__name__}")
        layers = [_layer_from_json(d) for d in layers_doc]
    except KeyError as e:
        raise ConfigError(f"layer config missing field {e}") from None
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ConfigError(f"network name must be a string, got {name!r}")
    net = NetworkSpec(layers=layers, name=name)
    net.validate()
    return net


def load_network(name_or_path: str) -> NetworkSpec:
    """Load a network config: a bundled name ("vgg16-32", "toy-sparse",
    "vgg16-head") or a path to a JSON document."""
    bundled = resources.files("neuroplug.configs")
    candidate = bundled / f"{name_or_path}.json"
    if candidate.is_file():
        doc = json.loads(candidate.read_text())
    else:
        try:
            with open(name_or_path) as f:
                doc = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot load network config {name_or_path!r}: {e}") from None
    return network_from_json(doc)
