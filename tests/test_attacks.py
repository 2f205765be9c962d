import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from neuroplug import attacks, model, tracegen
from neuroplug.attacks import huffduff_attack
from neuroplug.errors import ConfigError, InapplicableError, SupportError
from neuroplug.model import NetworkSpec
from neuroplug.tracegen import EVENT_DTYPE, OP_READ, OP_WRITE, Scenario, Trace, fmap_base

# What an insider may leak: the public bin geometry of NeuroPlug, and per
# additive model its hardwired constants (const-mean's mean and jitter floor).
BIN_LEAKS = {"bin_size": 61440, "kappa": 8, "table_entry_size": 8}
ADDITIVE_LEAKS = {
    "dummy-writes": {},
    "const-mean": {"const_mean": 22400, "jitter_lo": -8},
    "layer-divider": {},
}
RUNS = 4


@pytest.fixture(scope="module")
def toy_layer0():
    """The first (3x3, pad 1) layer of toy-sparse on its own."""
    return NetworkSpec(layers=model.load_network("toy-sparse").layers[:1])


class TestHuffDuff:
    def test_recovers_filter_on_sparse_baseline(self, toy_layer0):
        report = huffduff_attack(Scenario(net=toy_layer0, cm="none", sparse=True))
        assert report.extra["s_hat"] == 3
        assert report.extra["r_hat"] == 3

    def test_dense_baseline_inapplicable(self, toy_layer0):
        with pytest.raises(InapplicableError):
            huffduff_attack(Scenario(net=toy_layer0, cm="none", sparse=False))

    def test_neuroplug_inconclusive_when_nothing_varies(self, toy_layer0):
        # the impulse sweep moves the sparse baseline's volume on this net ...
        base = huffduff_attack(Scenario(net=toy_layer0, cm="none", sparse=True))
        assert np.var(base.extra["row_series"]) > 0
        # ... but under the default key layer 0's ofmap is one bin at every
        # position and every run, which shows nothing either way
        report = huffduff_attack(Scenario(net=toy_layer0, cm="neuroplug"))
        evidence = report.layers[0].evidence
        assert evidence["series_variance"] == evidence["noise_variance"] == 0.0
        assert evidence["verdict"] == "inconclusive: no variance in either series"
        assert report.notes == [evidence["verdict"]]

    @pytest.mark.parametrize("cm", ["dummy-writes", "const-mean", "layer-divider", "bogus"])
    def test_additive_cm_rejected(self, toy_layer0, cm):
        with pytest.raises(ConfigError):
            huffduff_attack(Scenario(net=toy_layer0, cm=cm, sparse=True))


def events(*rows):
    """A hand-built trace from (op, addr, size, digest) rows."""
    arr = np.zeros(len(rows), dtype=EVENT_DTYPE)
    for i, (op, addr, size, digest) in enumerate(rows):
        arr[i] = (op, addr, size, i, digest)
    return Trace(arr)


def ranges(pairs):
    """Events holding only the byte ranges [addr, addr + size)."""
    arr = np.zeros(len(pairs), dtype=EVENT_DTYPE)
    arr["addr"] = [a for a, _ in pairs]
    arr["size"] = [n for _, n in pairs]
    return arr


# small addresses and sizes, so that ranges nest, touch and repeat, and size 0 is common
RANGES = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 12)), max_size=12)

# layer 0 writes fmap 1 in two halves with a read-back and a byte-identical
# rewrite of the first half (the layer divider's pattern); layer 1 reads
# fmap 1 and writes fmap 2, which is read back
DIVIDED = events(
    (OP_READ, fmap_base(0), 100, 1),
    (OP_WRITE, fmap_base(1), 50, 7),
    (OP_READ, fmap_base(1), 50, 7),
    (OP_WRITE, fmap_base(1), 50, 7),
    (OP_WRITE, fmap_base(1) + 50, 50, 8),
    (OP_READ, fmap_base(1), 50, 7),
    (OP_READ, fmap_base(1) + 50, 50, 8),
    (OP_WRITE, fmap_base(2), 30, 9),
    (OP_READ, fmap_base(2), 30, 9),
)


class TestTraceReading:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(RANGES, RANGES)
    def test_overlap_matches_merge_loop(self, rows, against):
        rows, against = ranges(rows), ranges(against)
        got = attacks._overlapping(rows, against)
        # the definition: some range starts before the row ends and ends after it starts
        lo, hi = rows["addr"][:, None], (rows["addr"] + rows["size"])[:, None]
        starts, ends = against["addr"][None, :], (against["addr"] + against["size"])[None, :]
        np.testing.assert_array_equal(got, ((starts < hi) & (ends > lo)).any(axis=1))
        # the merge loop joins touching ranges, so it also counts a zero-size
        # row where two ranges touch; traces hold no zero-size events
        sized = rows["size"] > 0
        np.testing.assert_array_equal(got[sized], oracles.overlapping_merged(rows, against)[sized])

    def test_read_covered_only_by_earlier_longer_write(self):
        # segment 1's read of fmap 1 lies inside the first, longer write of
        # segment 0 but past the end of the second one
        trace = events(
            (OP_READ, fmap_base(0), 16, 0),
            (OP_WRITE, fmap_base(1), 100, 0),
            (OP_WRITE, fmap_base(1) + 10, 10, 0),
            (OP_READ, fmap_base(1) + 50, 10, 0),
        )
        evidence = attacks.reverse_engg_attack(trace).layers[1].evidence
        assert (evidence["vol_in"], evidence["vol_weights"]) == (10, 0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.sampled_from([OP_READ, OP_WRITE]), st.integers(0, 3),
                              st.integers(0, 2)), max_size=30))
    def test_fake_rewrites_match_loop(self, rows):
        arr = events(*[(op, addr, 1, digest) for op, addr, digest in rows]).arr
        np.testing.assert_array_equal(attacks._fake_rewrites(arr), oracles.fake_rewrites_loop(arr))

    def test_si_reports_layers_past_64(self):
        trace = events((OP_WRITE, fmap_base(70), 64, 3), (OP_READ, fmap_base(70), 64, 3))
        si = attacks.si_attack([trace])
        assert [(est.layer, est.write_count, est.write_volume) for est in si.layers] == [(69, 1, 64)]

    def test_si_copies_base_report(self):
        def figures(report):
            return [{k: v for k, v in est.to_json().items() if k != "evidence"}
                    for est in report.layers]

        kk = attacks.kk_attack(attacks.ss_attack([DIVIDED]), {})
        assert (kk.layer(0).write_count, kk.layer(1).volume_min) == (3, 150.0)
        before = figures(kk)
        si = attacks.si_attack([DIVIDED], base_report=kk)
        assert figures(kk) == before
        assert not any(a is b for a, b in zip(si.layers, kk.layers))
        # the rewrite is stripped, and layer 1 reads what layer 0 really wrote
        assert si.extra["fake_writes_removed"] == 1
        assert (si.layer(0).write_count, si.layer(0).write_volume) == (2, 100)
        assert si.layer(1).volume_min == 100.0


@pytest.fixture(scope="module")
def vgg_reverse():
    """reverse_engg_attack on the dense vgg16-32 baseline, input and model seed 1."""
    net = model.load_network("vgg16-32")
    trace = tracegen.baseline_trace(net, model.generate_input(net.layers[0].shape, 1), seed=1)
    return attacks.reverse_engg_attack(trace), tracegen.ground_truth(net)["layers"]


class TestReverseEngg:
    def test_one_segment_per_layer(self, vgg_reverse):
        report, truth = vgg_reverse
        assert report.extra["segments"] == len(report.layers) == len(truth) == 13

    def test_candidate_counts(self, vgg_reverse):
        report, _ = vgg_reverse
        counts = [est.evidence["candidate_count"] for est in report.layers]
        assert counts == [0, 1, 1, 1, 0, 2, 2, 2, 2, 2, 2, 2, 2]

    def test_true_tuple_among_candidates_from_layer_5(self, vgg_reverse):
        report, truth = vgg_reverse
        for row, est in zip(truth[5:], report.layers[5:]):
            assert (row["c"], row["h"], row["k"], row["r"] * row["s"]) in est.evidence["tuples"]

    def test_pooled_layer_solves_to_wrong_shape(self, vgg_reverse):
        # the equations assume a same-size output, but layer 1 pools its
        # 28x28 output to 14x14: its one solution has K = 16 and R*S = 72
        # where the truth is K = 64 and R*S = 9
        report, truth = vgg_reverse
        assert (truth[1]["k"], truth[1]["r"] * truth[1]["s"]) == (64, 9)
        assert report.layers[1].evidence["tuples"] == [(64, 28, 16, 72)]


@pytest.fixture(scope="module")
def toy_sparse():
    net = model.load_network("toy-sparse")
    return net, model.generate_input(net.layers[0].shape, 0), tracegen.ground_truth(net)


def additive_verdicts(toy_sparse, cm_model, seed):
    """broken flags of ss, ss+kk and ss+kk+si against one additive model."""
    net, inp, truth = toy_sparse
    traces = [tracegen.additive_cm_trace(net, inp, cm_model, seed=seed, run_index=r,
                                         observe_values=True)
              for r in range(RUNS)]
    ss = attacks.ss_attack(traces)
    broken = {"ss": attacks.verdict_volumes(ss, truth)["broken"]}
    sskk = attacks.kk_attack(ss, ADDITIVE_LEAKS[cm_model])
    broken["ss+kk"] = attacks.verdict_volumes(sskk, truth)["broken"]
    si = attacks.si_attack(traces, base_report=sskk)
    broken["ss+kk+si"] = attacks.verdict_volumes(si, truth)["broken"]
    return broken


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestPaperClaims:
    """The attacks break the additive countermeasures and fail against bin
    packing (toy-sparse, input seed 0)."""

    def test_ss_breaks_dummy_writes(self, toy_sparse, seed):
        assert additive_verdicts(toy_sparse, "dummy-writes", seed)["ss"]

    def test_layer_divider_needs_si(self, toy_sparse, seed):
        assert additive_verdicts(toy_sparse, "layer-divider", seed) == {
            "ss": False, "ss+kk": False, "ss+kk+si": True}

    def test_neuroplug_resists_ss_and_kk(self, toy_sparse, seed):
        net, inp, truth = toy_sparse
        cache = tracegen.prepare_neuroplug(net, inp, seed)
        key = tracegen.NeuroPlugKey(seed=seed)
        traces = [tracegen.neuroplug_trace(net, inp, key, r, seed, cache).trace
                  for r in range(RUNS)]
        ss = attacks.ss_attack(traces)
        assert not attacks.verdict_volumes(ss, truth)["broken"]
        assert not attacks.verdict_volumes(attacks.kk_attack(ss, BIN_LEAKS), truth)["broken"]


class TestSmartRank:
    """The rank of one single-bin (61,440 B) vgg16-32 ofmap observation; the
    same figures as the benchmark's golden record."""

    @pytest.mark.parametrize("x_r, rank", [(25088, 5325), (12544, 77059)])
    def test_rank_of_true_volume(self, x_r, rank):
        res = attacks.smart_rank_for_layer(61440, x_r)
        assert (res.rank, res.n_candidates) == (rank, 959050)

    def test_volume_outside_candidates(self):
        with pytest.raises(SupportError):
            attacks.smart_rank_for_layer(61440, 6272)
