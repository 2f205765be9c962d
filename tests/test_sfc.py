import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neuroplug import sfc
from neuroplug.errors import PlanningError
from neuroplug.model import LayerShape, TilingSpec

from oracles import plan_execution_cases


def layer(h=8, w=8, c=4, k=4, r=3, s=3, pad=1, pool=1):
    return LayerShape(k=k, c=c, h=h, w=w, r=r, s=s, pad=pad, pool=pool)


class TestIfmapSfc:
    def test_single_tile(self):
        entries, cap = sfc.ifmap_walk(layer(h=4, w=4, c=2), TilingSpec(tk=4, tc=2, th=4, tw=4))
        assert entries == [(0, (0, 2, 0, 4, 0, 4), 32)]
        assert cap == 32

    def test_2x2_grid_row_major(self):
        entries, _ = sfc.ifmap_walk(layer(c=1), TilingSpec(tk=4, tc=1, th=4, tw=4))
        assert [(sl[2], sl[4]) for _, sl, _ in entries] == [(0, 0), (0, 4), (4, 0), (4, 4)]

    def test_2x2_grid_two_channel_groups(self):
        # oracle: the off-chip loop nest with the channel loop innermost
        entries, _ = sfc.ifmap_walk(layer(c=4), TilingSpec(tk=4, tc=2, th=4, tw=4))
        want = [
            (row, col, lo)
            for row in range(2)
            for col in range(2)
            for lo in (0, 2)
        ]
        got = [(sl[2] // 4, sl[4] // 4, sl[0]) for _, sl, _ in entries]
        assert got == want
        assert len(entries) == 8

    def test_starts_northwest(self):
        entries, _ = sfc.ifmap_walk(layer(h=16, w=16), TilingSpec(tk=4, tc=4, th=4, tw=4))
        offset, (lo, _, r0, _, w0, _), _ = entries[0]
        assert (offset, lo, r0, w0) == (0, 0, 0, 0)

    def test_permutation_no_repeats(self):
        # ragged edges in every dimension; every element is covered exactly once
        lay = layer(h=10, w=14, c=5)
        entries, cap = sfc.ifmap_walk(lay, TilingSpec(tk=4, tc=2, th=4, tw=4))
        keys = [sl for _, sl, _ in entries]
        assert len(keys) == len(set(keys))
        assert len(keys) == 3 * 4 * 3
        hits = np.zeros((lay.c, lay.h, lay.w), dtype=int)
        offset = 0
        for off, (lo, hi, r0, r1, w0, w1), actual in entries:
            hits[lo:hi, r0:r1, w0:w1] += 1
            assert off == offset and 0 < actual <= cap
            assert actual == hits[lo:hi, r0:r1, w0:w1].size
            offset += actual
        assert (hits == 1).all()

    def test_channel_contiguity(self):
        entries, _ = sfc.ifmap_walk(layer(c=8), TilingSpec(tk=4, tc=2, th=4, tw=4))
        seen_positions = []
        prev_pos = None
        for _, sl, _ in entries:
            pos = (sl[2], sl[4])
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
        assert sfc.ofmap_walk(a, ta) == sfc.ifmap_walk(b, tb)

    def test_pooled_walk_matches_next_ifmap(self):
        a = layer(h=16, w=16, c=4, k=8, pool=2)
        b = layer(h=8, w=8, c=8, k=4)
        walk, cap = sfc.ofmap_walk(a, TilingSpec(tk=4, tc=4, th=8, tw=8))
        assert (walk, cap) == sfc.ifmap_walk(b, TilingSpec(tk=4, tc=4, th=4, tw=4))
        assert sum(actual for _, _, actual in walk) == a.k * a.p_out * a.q_out
