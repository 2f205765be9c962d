"""1-D space-filling-curve order over a layer's 3-D tile space.

A feature map is walked as deep tiles: row-major over the (row, col) grid
with the channel groups of one position kept adjacent.  `ifmap_walk` and
`ofmap_walk` are the one walk every trace generator uses, and
`curve_image` is the map's one stored form: its tiles back to back in
walk order.  Baseline tiles and NeuroPlug storage chunks are slices of
that image, so it is the only place a walk turns into bytes.  Execution
planning picks the capacity case (AllFit, I, II, III) when weights and/or
inputs overflow the on-chip capacity, and owns the chopping of the layer's
real ifmap bin count into the groups read between weight passes (tau
passes in case III, over eta stored weight copies); `neuroplug_trace`
emits exactly that schedule.  Elements are int8, so every size here is
an element count and a byte count at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import binpack
from .errors import PlanningError
from .model import LayerShape, TilingSpec

CASE_ALL_FIT = "AllFit"
CASE_I = "I"
CASE_II = "II"
CASE_III = "III"


def grid_dims(shape_h: int, shape_w: int, channels: int, th: int, tw: int, tc: int):
    """(n_rows, n_cols, n_chan_groups) with ceil division for remainders."""
    return (math.ceil(shape_h / th), math.ceil(shape_w / tw), math.ceil(channels / tc))


def ofmap_tile_dims(layer: LayerShape, tiling: TilingSpec):
    """Spatial tile dims of the pooled output walk."""
    th_out = max(1, tiling.th // layer.pool)
    tw_out = max(1, tiling.tw // layer.pool)
    return th_out, tw_out


def _walk(h: int, w: int, ch: int, th: int, tw: int, tch: int):
    """Deep tiles in curve order: rows outer, cols inner, channel groups innermost.

    Returns ([(byte_offset, (lo, hi, r0, r1, w0, w1), actual_bytes), ...],
    full_tile_bytes).  The tensor is stored densely in curve order, so
    offsets are running sums of the actual tile bytes; any tiling of the
    same tensor covers the identical byte extent.
    """
    n_rows, n_cols, n_groups = grid_dims(h, w, ch, th, tw, tch)
    out = []
    offset = 0
    for row in range(n_rows):
        r0 = row * th
        r1 = min(h, r0 + th)
        for col in range(n_cols):
            w0 = col * tw
            w1 = min(w, w0 + tw)
            for g in range(n_groups):
                lo = g * tch
                hi = min(ch, lo + tch)
                actual = (hi - lo) * (r1 - r0) * (w1 - w0)
                out.append((offset, (lo, hi, r0, r1, w0, w1), actual))
                offset += actual
    return out, tch * th * tw


def ifmap_walk(layer: LayerShape, tiling: TilingSpec):
    """Read order of the input's deep tiles (see `_walk`)."""
    return _walk(layer.h, layer.w, layer.c, tiling.th, tiling.tw, tiling.tc)


def ofmap_walk(layer: LayerShape, tiling: TilingSpec):
    """Write order of the pooled output; same walk shape as an ifmap read."""
    th_out, tw_out = ofmap_tile_dims(layer, tiling)
    return _walk(layer.p_out, layer.q_out, layer.k, th_out, tw_out, tiling.tk)


def curve_image(tensor: np.ndarray, walk) -> np.ndarray:
    """A (channels, rows, cols) int8 map's stored bytes: the walk's deep
    tiles back to back in walk order, each in C order.  Tile j of the walk
    is image[offset : offset + actual_bytes] (see `_walk`)."""
    return np.concatenate([tensor[c0:c1, r0:r1, w0:w1].reshape(-1)
                           for _, (c0, c1, r0, r1, w0, w1), _ in walk]).view(np.uint8)


# ---------------------------------------------------------------------------
# execution planning


@dataclass
class ExecutionPlan:
    case: str
    ofmap_partition: list[int]
    ifmap_bin_groups: list[int]
    tau: int
    eta: int
    partition_seed: int

    def validate(self, k_total: int) -> None:
        if sum(self.ofmap_partition) != k_total:
            raise PlanningError(f"partition {self.ofmap_partition} does not sum to k={k_total}")
        if self.tau < 1:
            raise PlanningError(f"tau={self.tau} must be >= 1")
        if not 1 <= self.eta <= self.tau:
            raise PlanningError(f"eta={self.eta} must lie in [1, tau={self.tau}]")

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "partition": self.ofmap_partition,
            "groups": self.ifmap_bin_groups,
            "tau": self.tau,
            "eta": self.eta,
            "partition_seed": self.partition_seed,
        }


def _noise_int(rng: np.random.Generator, spread: float) -> int:
    """Integer mode of the additive-noise sampler: |N(0, s)| with uniform-drawn variance."""
    sigma = math.sqrt(rng.uniform(0.0, spread * spread))
    return int(binpack.half_normal(rng, sigma, 3 * spread))


def _random_composition(
    rng: np.random.Generator, total: int, parts: int, part_cap: int | None = None
) -> list[int]:
    """Uniform composition of total into parts >= 1, optionally capped per part."""
    if parts <= 1:
        return [total]
    for _ in range(16):
        cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
        edges = np.concatenate(([0], cuts, [total]))
        comp = np.diff(edges).astype(int).tolist()
        if part_cap is None or max(comp) <= part_cap:
            return comp
    # even split always satisfies the cap whenever parts * cap >= total
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def weight_bytes(layer: LayerShape) -> int:
    return layer.k * layer.c * layer.r * layer.s


def ifmap_bytes(layer: LayerShape) -> int:
    return layer.c * layer.h * layer.w


def deep_tile_bytes(layer: LayerShape, tiling: TilingSpec) -> int:
    return tiling.tc * tiling.th * tiling.tw


def plan_execution(
    layer: LayerShape,
    tiling: TilingSpec,
    npu_capacity_bytes: int,
    rng: np.random.Generator,
    bin_size: int,
    ifmap_bins: int,
) -> ExecutionPlan:
    """Choose the capacity case and randomized partitions for one layer.

    The case is chosen on raw byte footprints; the ifmap groups chop the
    layer's real input bin count, ifmap_bins.  The ofmap partition count
    and the unroll factor are random variables drawn from the same
    sampler family as the bin noise, so the plan is a per-run secret.
    """
    w_bytes = weight_bytes(layer)
    i_bytes = ifmap_bytes(layer)
    tile_bytes = deep_tile_bytes(layer, tiling)
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
        plan = ExecutionPlan(CASE_ALL_FIT, [layer.k], [ifmap_bins], 1, 1, seed)
    elif not weights_fit and ifmap_fits:
        # case I: stream the weights in n randomly sized chunks of output maps
        headroom = npu_capacity_bytes - i_bytes
        k_cap = max(1, headroom // kernel_bytes)
        n_min = max(2, math.ceil(layer.k / k_cap))
        n = min(layer.k, n_min + _noise_int(rng, 1.5))
        partition = _random_composition(rng, layer.k, n, part_cap=k_cap)
        plan = ExecutionPlan(CASE_I, partition, [ifmap_bins], 1, 1, seed)
    elif weights_fit:
        # case II: chop the ifmap walk into groups of bins that fit beside the weights
        g_max = max(1, (npu_capacity_bytes - w_bytes) // bin_size)
        groups = _chop(ifmap_bins, g_max)
        plan = ExecutionPlan(CASE_II, [layer.k], groups, 1, 1, seed)
    else:
        # case III: both overflow; weights streamed per ifmap group, unrolled
        half = npu_capacity_bytes // 2
        k_cap = max(1, half // kernel_bytes)
        n_min = max(2, math.ceil(layer.k / k_cap))
        n = min(layer.k, n_min + _noise_int(rng, 1.5))
        partition = _random_composition(rng, layer.k, n, part_cap=k_cap)
        g_max = max(1, half // bin_size)
        groups = _chop(ifmap_bins, g_max)
        tau = len(groups)
        eta = 1 + _noise_int(rng, 1.0)
        eta = max(1, min(eta, tau))
        plan = ExecutionPlan(CASE_III, partition, groups, tau, eta, seed)
    plan.validate(layer.k)
    return plan


def _chop(total: int, chunk: int) -> list[int]:
    out = [chunk] * (total // chunk)
    if total % chunk:
        out.append(total % chunk)
    return out or [0]
