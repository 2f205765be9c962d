import numpy as np
import pytest

from neuroplug import sfc
from neuroplug.errors import PlanningError
from neuroplug.model import LayerShape, TilingSpec


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
