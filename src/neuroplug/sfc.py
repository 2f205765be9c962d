"""1-D space-filling-curve order over a layer's 3-D tile space.

A feature map is walked as deep tiles: row-major over the (row, col) grid
with the channel groups of one position kept adjacent.  `ifmap_walk` and
`ofmap_walk` are the one walk every trace generator uses, and
`curve_image` is the map's one stored form: its tiles back to back in
walk order.  Baseline tiles and NeuroPlug storage chunks are slices of
that image, so it is the only place a walk turns into bytes.  Execution
planning picks the capacity case (AllFit, I, II, III) when weights and/or
inputs overflow the on-chip capacity.  The case is decided once, in
`plan_execution`, and the plan owns the layer's read order: the weight
partition, the chopping of the layer's real ifmap bin count into groups,
and the eta stored weight copies the passes cycle through.
`ExecutionPlan.passes` lists that order, and `neuroplug_trace` emits it
without knowing the case.  Elements are int8, so every size here is an
element count and a byte count at once.
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


def _walk(h: int, w: int, ch: int, th: int, tw: int, tch: int):
    """Deep tiles in curve order: rows outer, cols inner, channel groups innermost.

    Returns ([(byte_offset, (lo, hi, r0, r1, w0, w1), actual_bytes), ...],
    full_tile_bytes).  The tensor is stored densely in curve order, so
    offsets are running sums of the actual tile bytes; any tiling of the
    same tensor covers the identical byte extent.
    """
    out = []
    offset = 0
    for r0 in range(0, h, th):
        r1 = min(h, r0 + th)
        for w0 in range(0, w, tw):
            w1 = min(w, w0 + tw)
            for lo in range(0, ch, tch):
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
    return _walk(layer.p_out, layer.q_out, layer.k,
                 max(1, tiling.th // layer.pool), max(1, tiling.tw // layer.pool), tiling.tk)


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

    def passes(self) -> list[tuple[str, int]]:
        """The layer's read order: ("ifmap", group) and ("filter", stored copy).

        Case II holds the weights on chip and streams the ifmap groups past
        them, so it reads its weights first; every other case reads a weight
        pass after each ifmap group, pass p reading stored copy p mod eta.
        """
        groups = range(len(self.ifmap_bin_groups))
        if self.case == CASE_II:
            return [("filter", 0)] + [("ifmap", g) for g in groups]
        return [read for g in groups for read in (("ifmap", g), ("filter", g % self.eta))]

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


def _random_composition(rng: np.random.Generator, total: int, parts: int, cap: int) -> list[int]:
    """Uniform composition of total into parts >= 1, each at most cap."""
    if parts <= 1:
        return [total]
    for _ in range(16):
        cuts = np.sort(rng.choice(np.arange(1, total), size=parts - 1, replace=False))
        edges = np.concatenate(([0], cuts, [total]))
        comp = np.diff(edges).astype(int).tolist()
        if max(comp) <= cap:
            return comp
    # even split always satisfies the cap whenever parts * cap >= total
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def weight_bytes(layer: LayerShape) -> int:
    return layer.k * layer.c * layer.r * layer.s


def ifmap_bytes(layer: LayerShape) -> int:
    return layer.c * layer.h * layer.w


def deep_tile_bytes(tiling: TilingSpec) -> int:
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

    The case is chosen on raw byte footprints and sets two on-chip budgets,
    one for weights and one for ifmap bins; a budget is None where that
    stream fits whole.  Weights with a budget stream in randomly many parts
    of output maps; ifmap bins with one are chopped into groups of the
    layer's real input bin count, ifmap_bins.  The part count and the
    unroll factor eta are random variables drawn from the same sampler
    family as the bin noise, so the plan is a per-run secret.  Draws come
    in one order: the partition seed, the partition, then eta.
    """
    w_bytes = weight_bytes(layer)
    i_bytes = ifmap_bytes(layer)
    tile_bytes = deep_tile_bytes(tiling)
    if npu_capacity_bytes < max(tile_bytes, bin_size):
        raise PlanningError(
            f"capacity {npu_capacity_bytes} below one deep tile ({tile_bytes}) or bin ({bin_size})"
        )
    seed = int(rng.integers(0, 2**31 - 1))

    if w_bytes + i_bytes <= npu_capacity_bytes:
        case, w_budget, i_budget = CASE_ALL_FIT, None, None
    elif w_bytes + tile_bytes <= npu_capacity_bytes:
        # case II: the weights stay on chip beside groups of ifmap bins
        case, w_budget, i_budget = CASE_II, None, npu_capacity_bytes - w_bytes
    elif i_bytes + tile_bytes <= npu_capacity_bytes:
        # case I: the ifmap stays on chip and the weights stream in parts
        case, w_budget, i_budget = CASE_I, npu_capacity_bytes - i_bytes, None
    else:
        # case III: both overflow and share the capacity half and half
        half = npu_capacity_bytes // 2
        case, w_budget, i_budget = CASE_III, half, half

    partition = [layer.k]
    if w_budget is not None:
        k_cap = max(1, w_budget // (layer.c * layer.r * layer.s))
        n_min = max(2, math.ceil(layer.k / k_cap))
        n = min(layer.k, n_min + _noise_int(rng, 1.5))
        partition = _random_composition(rng, layer.k, n, k_cap)
    groups = [ifmap_bins] if i_budget is None else _chop(ifmap_bins, max(1, i_budget // bin_size))
    tau = eta = 1
    if case == CASE_III:
        # weights streamed per ifmap group, unrolled over eta stored copies
        tau = len(groups)
        eta = max(1, min(1 + _noise_int(rng, 1.0), tau))
    plan = ExecutionPlan(case, partition, groups, tau, eta, seed)
    plan.validate(layer.k)
    return plan


def _chop(total: int, chunk: int) -> list[int]:
    out = [chunk] * (total // chunk)
    if total % chunk:
        out.append(total % chunk)
    return out or [0]
