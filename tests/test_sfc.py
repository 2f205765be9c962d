import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neuroplug import sfc
from neuroplug.errors import PlanningError
from neuroplug.model import LayerShape, TilingSpec

from oracles import curve_image_loop, plan_execution_cases, walk_loop


def layer(h=8, w=8, c=4, k=4, r=3, s=3, pad=1, pool=1):
    return LayerShape(k=k, c=c, h=h, w=w, r=r, s=s, pad=pad, pool=pool)


def corners(lay, til):
    """(channel, row, col) of each input tile's first element, in curve order."""
    curve = sfc.ifmap_curve(lay, til)
    index = sfc._curve_index(lay.c, lay.h, lay.w, *curve.tile)
    first = np.unravel_index(index[curve.offsets], (lay.c, lay.h, lay.w))
    return list(zip(*(axis.tolist() for axis in first)))


def same_curve(a, b):
    return (a.tile == b.tile and np.array_equal(a.offsets, b.offsets)
            and np.array_equal(a.sizes, b.sizes))


class TestIfmapSfc:
    def test_single_tile(self):
        curve = sfc.ifmap_curve(layer(h=4, w=4, c=2), TilingSpec(tk=4, tc=2, th=4, tw=4))
        assert curve.tile == (2, 4, 4)
        assert curve.offsets.tolist() == [0] and curve.sizes.tolist() == [32]

    def test_2x2_grid_row_major(self):
        got = corners(layer(c=1), TilingSpec(tk=4, tc=1, th=4, tw=4))
        assert [(r0, w0) for _, r0, w0 in got] == [(0, 0), (0, 4), (4, 0), (4, 4)]

    def test_2x2_grid_two_channel_groups(self):
        # oracle: the off-chip loop nest with the channel loop innermost
        got = corners(layer(c=4), TilingSpec(tk=4, tc=2, th=4, tw=4))
        want = [
            (row, col, lo)
            for row in range(2)
            for col in range(2)
            for lo in (0, 2)
        ]
        assert [(r0 // 4, w0 // 4, lo) for lo, r0, w0 in got] == want
        assert len(got) == 8

    def test_starts_northwest(self):
        lay, til = layer(h=16, w=16), TilingSpec(tk=4, tc=4, th=4, tw=4)
        assert sfc.ifmap_curve(lay, til).offsets[0] == 0
        assert corners(lay, til)[0] == (0, 0, 0)

    def test_permutation_no_repeats(self):
        # ragged edges in every dimension; every element is covered exactly once
        lay, til = layer(h=10, w=14, c=5), TilingSpec(tk=4, tc=2, th=4, tw=4)
        curve = sfc.ifmap_curve(lay, til)
        shape = (lay.c, lay.h, lay.w)
        index = sfc._curve_index(*shape, *curve.tile)
        assert len(set(corners(lay, til))) == len(curve.sizes) == 3 * 4 * 3
        np.testing.assert_array_equal(np.sort(index), np.arange(math.prod(shape)))
        offset = 0
        for off, size in zip(curve.offsets.tolist(), curve.sizes.tolist()):
            assert off == offset and 0 < size <= math.prod(curve.tile)
            # the tile's elements fill the box they span
            box = np.unravel_index(index[off:off + size], shape)
            assert math.prod(int(np.ptp(axis)) + 1 for axis in box) == size
            offset += size
        assert offset == index.size

    def test_channel_contiguity(self):
        seen_positions = []
        prev_pos = None
        for _, r0, w0 in corners(layer(c=8), TilingSpec(tk=4, tc=2, th=4, tw=4)):
            pos = (r0, w0)
            if pos != prev_pos:
                assert pos not in seen_positions  # channel groups never split
                seen_positions.append(pos)
                prev_pos = pos


class TestPlanExecution:
    def test_all_fit(self):
        plan = sfc.plan_execution(
            layer(h=8, w=8, c=4, k=4), TilingSpec(tk=4, tc=4, th=4, tw=4),
            npu_capacity_bytes=1 << 20, rng=np.random.default_rng(0), bin_size=4096,
            ifmap_bins=3,
        )
        assert plan.case == sfc.CASE_ALL_FIT
        assert plan.ofmap_partition == [4]
        assert plan.ifmap_bin_groups == [3] and plan.tau == 1
        plan.validate(4)

    def test_case_one_weight_overflow(self):
        lay = layer(h=8, w=8, c=64, k=64)  # weights 36864 B, ifmap 4096 B
        cap = sfc.weight_bytes(lay) // 2
        plan = sfc.plan_execution(
            lay, TilingSpec(tk=64, tc=64, th=4, tw=4), cap,
            np.random.default_rng(1), bin_size=2048, ifmap_bins=2,
        )
        assert plan.case == sfc.CASE_I
        assert plan.ifmap_bin_groups == [2]
        assert len(plan.ofmap_partition) >= 2
        assert sum(plan.ofmap_partition) == 64
        assert all(k >= 1 for k in plan.ofmap_partition)

    def test_case_two_ifmap_overflow(self):
        lay = layer(h=64, w=64, c=16, k=4)  # ifmap 65536 B, weights 576 B
        plan = sfc.plan_execution(
            lay, TilingSpec(tk=4, tc=16, th=8, tw=8), npu_capacity_bytes=20000,
            rng=np.random.default_rng(2), bin_size=2048, ifmap_bins=39,
        )
        assert plan.case == sfc.CASE_II
        # (20000 - 576) // 2048 = 9 bins fit beside the weights
        assert plan.ifmap_bin_groups == [9, 9, 9, 9, 3]

    def test_case_three_unroll(self):
        lay = layer(h=64, w=64, c=32, k=64)  # ifmap 128 kB, weights 18 kB... force both
        plan = sfc.plan_execution(
            lay, TilingSpec(tk=64, tc=32, th=8, tw=8), npu_capacity_bytes=16384,
            rng=np.random.default_rng(3), bin_size=2048, ifmap_bins=79,
        )
        assert plan.case == sfc.CASE_III
        # half the capacity holds 8192 // 2048 = 4 ifmap bins per pass
        assert plan.ifmap_bin_groups == [4] * 19 + [3]
        assert plan.tau == 20
        assert 1 <= plan.eta <= plan.tau

    def test_capacity_too_small(self):
        with pytest.raises(PlanningError):
            sfc.plan_execution(
                layer(), TilingSpec(tk=4, tc=4, th=4, tw=4),
                npu_capacity_bytes=32, rng=np.random.default_rng(0), bin_size=2048,
                ifmap_bins=1,
            )

    def test_validate_rejects_bad_partition(self):
        plan = sfc.ExecutionPlan(sfc.CASE_I, [3, 2], [1], 1, 1, 0)
        with pytest.raises(PlanningError):
            plan.validate(6)
        with pytest.raises(PlanningError):
            sfc.ExecutionPlan(sfc.CASE_III, [6], [1, 1], 2, 3, 0).validate(6)

    def test_deterministic_for_seed(self):
        lay = layer(h=64, w=64, c=32, k=64)
        mk = lambda s: sfc.plan_execution(
            lay, TilingSpec(tk=64, tc=32, th=8, tw=8), 16384,
            np.random.default_rng(s), bin_size=2048, ifmap_bins=79,
        )
        assert mk(7).to_json() == mk(7).to_json()


@st.composite
def plan_inputs(draw):
    """A layer and a valid tiling, a bin size, a capacity from just below
    the planner's floor (one deep tile or bin) to that floor plus twice the
    layer's weight and ifmap bytes, a real ifmap bin count and a seed."""
    k, c, h, w = (draw(st.integers(1, n)) for n in (128, 128, 64, 64))
    r = draw(st.sampled_from([1, 3, 5]))
    lay = layer(h=h, w=w, c=c, k=k, r=r, s=r, pad=r // 2)
    til = TilingSpec(*(draw(st.integers(1, n)) for n in (k, c, h, w)))
    bin_size = draw(st.integers(64, 16384))
    floor = max(sfc.deep_tile_bytes(til), bin_size)
    cap = floor + draw(st.integers(-16, 2 * (sfc.weight_bytes(lay) + sfc.ifmap_bytes(lay))))
    return lay, til, cap, bin_size, draw(st.integers(0, 100)), draw(st.integers(0, 2**32 - 1))


# (layer, tiling, capacity, bin size, ifmap bins, seed) per capacity case
CASE_EXAMPLES = {
    sfc.CASE_ALL_FIT: (layer(c=4, k=4), TilingSpec(4, 4, 4, 4), 1 << 20, 4096, 3, 0),
    sfc.CASE_I: (layer(c=64, k=64), TilingSpec(64, 64, 4, 4), 18432, 2048, 2, 1),
    sfc.CASE_II: (layer(h=64, w=64, c=16, k=4), TilingSpec(4, 16, 8, 8), 20000, 2048, 39, 2),
    sfc.CASE_III: (layer(h=64, w=64, c=32, k=64), TilingSpec(64, 32, 8, 8), 16384, 2048, 79, 3),
}


def planned(planner, args):
    """A planner's plan (or PlanningError message) and its generator's state after."""
    lay, til, cap, bin_size, ifmap_bins, seed = args
    rng = np.random.default_rng(seed)
    try:
        out = planner(lay, til, cap, rng, bin_size, ifmap_bins).to_json()
    except PlanningError as exc:
        out = f"PlanningError: {exc}"
    return out, rng.bit_generator.state


class TestPlanAgainstCaseOracle:
    """One weight budget and one ifmap budget plan exactly as the planner
    with a branch per case: the same plan, the same PlanningError and the
    same draws, read from the generator's state after the call."""

    @pytest.mark.parametrize("case", list(CASE_EXAMPLES))
    def test_each_case(self, case):
        got = planned(sfc.plan_execution, CASE_EXAMPLES[case])
        assert got[0]["case"] == case
        assert got == planned(plan_execution_cases, CASE_EXAMPLES[case])

    @settings(max_examples=300)
    @given(args=plan_inputs())
    @example(args=CASE_EXAMPLES[sfc.CASE_ALL_FIT])
    @example(args=CASE_EXAMPLES[sfc.CASE_I])
    @example(args=CASE_EXAMPLES[sfc.CASE_II])
    @example(args=CASE_EXAMPLES[sfc.CASE_III])
    @example(args=(*CASE_EXAMPLES[sfc.CASE_III][:4], 0, 5))  # no ifmap bins: one empty group
    @example(args=(*CASE_EXAMPLES[sfc.CASE_III][:2], 16383, 2048, 79, 3))  # halves round down
    @example(args=(layer(), TilingSpec(4, 4, 4, 4), 32, 2048, 1, 0))  # below one bin
    def test_same_plan_and_draws(self, args):
        assert planned(sfc.plan_execution, args) == planned(plan_execution_cases, args)


class TestPasses:
    def test_case_two_reads_weights_first(self):
        plan = sfc.ExecutionPlan(sfc.CASE_II, [4], [9, 9, 3], 1, 1, 0)
        assert plan.passes() == [("filter", 0), ("ifmap", 0), ("ifmap", 1), ("ifmap", 2)]

    def test_other_cases_read_copy_p_mod_eta_after_each_group(self):
        plan = sfc.ExecutionPlan(sfc.CASE_III, [30, 34], [4, 4, 3], 3, 2, 0)
        assert plan.passes() == [("ifmap", 0), ("filter", 0), ("ifmap", 1), ("filter", 1),
                                 ("ifmap", 2), ("filter", 0)]
        for case in (sfc.CASE_ALL_FIT, sfc.CASE_I):
            plan = sfc.ExecutionPlan(case, [64], [5], 1, 1, 0)
            assert plan.passes() == [("ifmap", 0), ("filter", 0)]


class TestOfmapMatchesNextIfmap:
    def test_matched_tilings_same_walk(self):
        a = layer(h=8, w=8, c=4, k=16, pool=1)
        ta = TilingSpec(tk=4, tc=4, th=4, tw=4)
        b = layer(h=8, w=8, c=16, k=8)
        tb = TilingSpec(tk=8, tc=4, th=4, tw=4)
        assert same_curve(sfc.ofmap_curve(a, ta), sfc.ifmap_curve(b, tb))

    def test_pooled_walk_matches_next_ifmap(self):
        a = layer(h=16, w=16, c=4, k=8, pool=2)
        b = layer(h=8, w=8, c=8, k=4)
        curve = sfc.ofmap_curve(a, TilingSpec(tk=4, tc=4, th=8, tw=8))
        assert same_curve(curve, sfc.ifmap_curve(b, TilingSpec(tk=4, tc=4, th=4, tw=4)))
        assert curve.sizes.sum() == a.k * a.p_out * a.q_out


class TestCurveMemo:
    """A curve is stated from its map and tile shapes alone; its gather
    index is made once per map and tile shape and shared read-only, and
    both equal the deep-tile loop of `oracles.walk_loop`."""

    def test_curve_shared_and_immutable(self):
        a, b = layer(h=8, w=8, c=4, k=16), layer(h=8, w=8, c=16, k=8)
        curve = sfc.ofmap_curve(a, TilingSpec(tk=4, tc=4, th=4, tw=4))
        index = sfc._curve_index(a.k, a.p_out, a.q_out, *curve.tile)
        # b's input is a's output cut the same way: one index serves both
        other = sfc.ifmap_curve(b, TilingSpec(tk=8, tc=4, th=4, tw=4))
        assert index is sfc._curve_index(b.c, b.h, b.w, *other.tile)
        assert index.dtype == np.uint16
        with pytest.raises(ValueError):
            index[0] = 1
        misses = sfc._curve_index.cache_info().misses
        tensor = np.ones((a.k, a.p_out, a.q_out), dtype=np.int8)
        for c in (curve, other, curve):
            np.testing.assert_array_equal(sfc.curve_image(tensor, c), 1)
        assert sfc._curve_index.cache_info().misses == misses

    @settings(max_examples=200)
    @given(k=st.integers(1, 12), c=st.integers(1, 12), side=st.integers(1, 10),
           pool=st.sampled_from([1, 2]), tk=st.integers(1, 12), tc=st.integers(1, 12),
           th=st.integers(1, 24), tw=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    @example(k=5, c=3, side=7, pool=2, tk=2, tc=2, th=3, tw=5, seed=0)  # no tile side divides
    @example(k=48, c=3, side=40, pool=1, tk=5, tc=2, th=7, tw=9, seed=1)  # over 2**16 positions
    def test_curve_image_matches_loop(self, k, c, side, pool, tk, tc, th, tw, seed):
        lay = layer(h=side * pool, w=side * pool + pool, c=c, k=k, pool=pool)
        til = TilingSpec(tk=min(tk, k), tc=min(tc, c), th=th, tw=tw)
        rng = np.random.default_rng(seed)
        for curve, output, shape in ((sfc.ifmap_curve(lay, til), False, (lay.c, lay.h, lay.w)),
                                     (sfc.ofmap_curve(lay, til), True,
                                      (lay.k, lay.p_out, lay.q_out))):
            walk, cap = walk_loop(lay, til, output)
            assert math.prod(curve.tile) == cap
            assert curve.offsets.tolist() == [off for off, _, _ in walk]
            assert curve.sizes.tolist() == [actual for _, _, actual in walk]
            positions = np.arange(math.prod(shape)).reshape(shape)
            np.testing.assert_array_equal(sfc._curve_index(*shape, *curve.tile),
                                          curve_image_loop(positions, walk))
            tensor = rng.integers(-128, 128, shape, dtype=np.int8)
            # a strided view of a larger map holds the same values
            strided = np.zeros((shape[0], shape[1], 2 * shape[2]), dtype=np.int8)
            strided[..., ::2] = tensor
            want = curve_image_loop(tensor, walk).view(np.uint8)
            for view in (tensor, strided[..., ::2]):
                got = sfc.curve_image(view, curve)
                assert got.dtype == np.uint8
                np.testing.assert_array_equal(got, want)
                got[:] = 0  # the image is the caller's own
            np.testing.assert_array_equal(sfc.curve_image(tensor, curve), want)
