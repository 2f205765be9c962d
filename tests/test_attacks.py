import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from neuroplug import attacks, binpack, model, sfc, tracegen
from neuroplug.attacks import huffduff_attack
from neuroplug.errors import DomainError, SupportError
from neuroplug.model import NetworkSpec
from neuroplug.tracegen import (EVENT_DTYPE, OP_READ, OP_WRITE, NeuroPlugKey, Trace, fmap_base,
                                weight_base)

# What an insider may leak: the public bin geometry of NeuroPlug, and per
# additive model its hardwired constants (const-mean's mean and jitter floor).
BIN_LEAKS = {"bin_size": binpack.BinConfig().bin_size, "kappa": binpack.BinConfig().kappa,
             "table_entry_size": binpack.TABLE_ENTRY_BYTES}
ADDITIVE_LEAKS = {
    "dummy-writes": {},
    "const-mean": {"const_mean": tracegen.CONST_MEAN, "jitter_lo": tracegen.JITTER[0]},
    "layer-divider": {},
}
RUNS = 4


NETS = ["toy-sparse", "vgg16-32", "vgg16-head"]
STREAMS = ("ifmap", "filter", "ofmap")
# 4,096 B bins in 64 KiB: across the three nets, layers run cases AllFit, I, II and III
SMALL_KEY = NeuroPlugKey(noise=binpack.NoiseSpec(alpha=512, support_r=1024, sigma2_max=2**16),
                         bin_cfg=binpack.BinConfig(bin_size=4096), npu_capacity=64 * 1024)


@pytest.fixture(scope="module")
def prepared():
    """(net, input, prepare_neuroplug cache) of a bundled net at input and
    model seed 1, made once per net."""
    made = {}

    def get(name):
        if name not in made:
            net = model.load_network(name)
            inp = model.generate_input(net.layers[0].shape, 1)
            made[name] = net, inp, tracegen.prepare_neuroplug(net, inp, 1)
        return made[name]
    return get


@pytest.fixture(scope="module")
def toy_layer0():
    """The first (3x3, pad 1) layer of toy-sparse on its own."""
    return NetworkSpec(layers=model.load_network("toy-sparse").layers[:1])


class TestHuffDuff:
    def test_recovers_filter_on_sparse_baseline(self, toy_layer0, generated):
        report = huffduff_attack(toy_layer0)
        assert report.extra["s_hat"] == 3
        assert report.extra["r_hat"] == 3
        # every sweep input runs against one model
        assert len(generated) == 1

    def test_neuroplug_inconclusive_when_nothing_varies(self, toy_layer0):
        # the impulse sweep moves the sparse baseline's volume on this net ...
        base = huffduff_attack(toy_layer0)
        assert np.var(base.extra["row_series"]) > 0
        # ... but under the default key layer 0's ofmap is one bin at every
        # position and every run, which shows nothing either way
        report = huffduff_attack(toy_layer0, key=NeuroPlugKey())
        evidence = report.layers[0].evidence
        assert evidence["series_variance"] == evidence["noise_variance"] == 0.0
        assert evidence["verdict"] == "inconclusive: no variance in either series"
        assert report.notes == [evidence["verdict"]]

    # two keys: the default, at which nothing varies, and small bins, at
    # which both series vary and the sweep hides in the noise
    KEYS = {
        "default": NeuroPlugKey(),
        "small bins": NeuroPlugKey(seed=99, noise=binpack.NoiseSpec(alpha=128, support_r=3072,
                                                                    sigma2_max=1280**2),
                                   bin_cfg=binpack.BinConfig(bin_size=2048, kappa=8)),
    }
    PINNED_REPORTS = {
        "default": "81c1de4e7ae18317f8aa2bd539a2554a",
        "small bins": "7b1d8e2413ce7cd387dca4e0fa748a09",
    }

    @pytest.mark.parametrize("name", list(KEYS))
    def test_neuroplug_compresses_each_input_once(self, toy_layer0, monkeypatch, generated, name):
        calls, compressed = [], []
        prepare, compress = tracegen.prepare_neuroplug, binpack.compress_tile
        monkeypatch.setattr(tracegen, "prepare_neuroplug",
                            lambda *args: calls.append(args) or prepare(*args))
        monkeypatch.setattr(binpack, "compress_tile",
                            lambda *a, **kw: compressed.append(a) or compress(*a, **kw))
        report = huffduff_attack(toy_layer0, key=self.KEYS[name])
        # one cache per sweep input; the noise-only series reuses the first
        layer = toy_layer0.layers[0]
        shape = layer.shape
        assert len(calls) == shape.w + shape.h
        # the compressed tiles: per sweep input its ofmap chunks, per run
        # its input chunks, and for the one model one weight tile per output map
        out_chunks = len(tracegen.chunk_ends(sfc.ofmap_walk(shape, layer.tiling)[0]))
        in_chunks = len(tracegen.chunk_ends(sfc.ifmap_walk(shape, layer.tiling)[0]))
        runs = 2 * shape.w + shape.h
        assert len(compressed) == len(calls) * out_chunks + runs * in_chunks + shape.k
        assert len(generated) == 1
        record = json.dumps(report.to_json(), sort_keys=True).encode()
        assert hashlib.blake2b(record, digest_size=16).hexdigest() == self.PINNED_REPORTS[name]

    def test_baseline_report_is_a_signal(self, toy_layer0):
        # the sparse baseline is deterministic, so its noise runs do not move
        report = huffduff_attack(toy_layer0)
        evidence = report.layers[0].evidence
        assert evidence["verdict"] == "signal" and report.notes == ["signal"]
        assert evidence["noise_variance"] == 0.0 < evidence["series_variance"]
        assert evidence["s_hat"] == evidence["r_hat"] == 3
        assert report.extra["s_hat"] == report.extra["r_hat"] == 3
        shape = toy_layer0.layers[0].shape
        assert report.runs_used == 2 * shape.w + shape.h


class TestObserve:
    @pytest.mark.parametrize("net_name", NETS)
    def test_neuroplug_entries_are_bins(self, prepared, net_name):
        # every NeuroPlug event is one bin, so the trace gives the
        # simulator's bin counts; HuffDuff reads entry [0, 2]
        net, inp, cache = prepared(net_name)
        for key in (*TestHuffDuff.KEYS.values(), SMALL_KEY):
            for run_index in range(2):
                run = tracegen.neuroplug_trace(net, inp, key, run_index, 1, cache)
                assert attacks.observe(run.trace).tolist() == [
                    [run.bins_of(i, stream) * key.bin_cfg.bin_size for stream in STREAMS]
                    for i in range(len(net.layers))]

    def test_small_key_runs_every_case(self, prepared):
        cases = set()
        for net_name in NETS:
            net, inp, cache = prepared(net_name)
            run = tracegen.neuroplug_trace(net, inp, SMALL_KEY, 0, 1, cache)
            cases.update(plan.case for plan in run.plans)
        assert cases == {sfc.CASE_ALL_FIT, sfc.CASE_I, sfc.CASE_II, sfc.CASE_III}

    @pytest.mark.parametrize("net_name", NETS)
    def test_dense_baseline_volumes(self, net_name):
        net = model.load_network(net_name)
        trace = tracegen.baseline_trace(net, model.generate_input(net.layers[0].shape, 1), seed=1)
        assert attacks.observe(trace).tolist() == [
            [row["ifmap_volume"], sfc.weight_bytes(layer.shape), row["ofmap_volume"]]
            for row, layer in zip(tracegen.ground_truth(net)["layers"], net.layers, strict=True)]

    def test_each_address_once_and_no_dummies(self):
        trace = events(
            (OP_READ, fmap_base(0), 100, 0),
            (OP_READ, weight_base(1), 30, 0),
            (OP_READ, fmap_base(0), 100, 0),  # a re-read
            (OP_READ, weight_base(1), 30, 0),
            (OP_WRITE, fmap_base(2), 40, 0),
            (OP_WRITE, fmap_base(2), 40, 0),  # a rewrite
            (OP_READ, fmap_base(2), 40, 0),
            (OP_WRITE, tracegen.dummy_base(0), 50, 0),
            (OP_READ, tracegen.dummy_base(1), 50, 0),
        )
        assert attacks.observe(trace).tolist() == [[100, 0, 0], [0, 30, 40], [40, 0, 0]]

    def test_empty_trace(self):
        assert attacks.observe(events()).shape == (0, 3)


class TestCraftInputs:
    SHAPE = model.LayerShape(k=2, c=3, h=5, w=7, r=3, s=3, pad=1)

    @pytest.mark.parametrize("policy, count", [("impulse-diag", 1), ("impulse-row", 0),
                                               ("impulse-row", 8), ("impulse-col", 0),
                                               ("impulse-col", 6)])
    def test_rejected(self, policy, count):
        with pytest.raises(DomainError):
            attacks.craft_inputs(policy, self.SHAPE, count)

    @pytest.mark.parametrize("policy, side", [("impulse-row", 7), ("impulse-col", 5)])
    def test_single_one_at_each_position(self, policy, side):
        tensors = attacks.craft_inputs(policy, self.SHAPE, side)
        assert len(tensors) == side
        for k, tensor in enumerate(tensors):
            expected = np.zeros((3, 5, 7), dtype=np.int8)
            expected[(0, 0, k) if policy == "impulse-row" else (0, k, 0)] = 1
            np.testing.assert_array_equal(tensor.values, expected)


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

# ranges at both ends of the address space, so that some run past 2**64
TOP_RANGES = st.lists(st.tuples(st.integers(0, 40) | st.integers(2**64 - 40, 2**64 - 1),
                                st.integers(0, 50) | st.integers(2**64 - 50, 2**64 - 1)),
                      max_size=10)

# reads and writes in two feature maps and two weight regions at small
# offsets, so that ranges nest, touch and are read before they are written
SEGMENT_EVENTS = st.lists(st.tuples(
    st.sampled_from([OP_READ, OP_WRITE]),
    st.sampled_from([fmap_base(0), fmap_base(1), weight_base(0), weight_base(1)]),
    st.integers(0, 16), st.integers(1, 8)), min_size=10, max_size=40)

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
    @settings(max_examples=200)
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

    @settings(max_examples=300)
    @given(TOP_RANGES, TOP_RANGES)
    def test_overlap_exact_at_the_top(self, rows, against):
        # the definition in unbounded integers: a range may run past 2**64
        want = [any(b < a + s and b + u > a for b, u in against) for a, s in rows]
        assert attacks._overlapping(ranges(rows), ranges(against)).tolist() == want

    def test_write_past_the_top_does_not_wrap(self):
        # [2**64 - 10, 2**64 + 54) holds no byte of [5, 69), but does hold the top byte
        arr = events((OP_WRITE, 2**64 - 10, 64, 0), (OP_READ, 5, 64, 0)).arr
        assert attacks._read_back_writes(arr).tolist() == [False, False]
        arr = events((OP_WRITE, 2**64 - 10, 64, 0), (OP_READ, 2**64 - 1, 1, 0)).arr
        assert attacks._read_back_writes(arr).tolist() == [True, False]

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

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.sampled_from([OP_READ, OP_WRITE]), st.integers(0, 3),
                              st.integers(0, 2)), max_size=30))
    def test_fake_rewrites_match_loop(self, rows):
        arr = events(*[(op, addr, 1, digest) for op, addr, digest in rows]).arr
        np.testing.assert_array_equal(attacks._fake_rewrites(arr), oracles.fake_rewrites_loop(arr))

    @settings(max_examples=300)
    @given(SEGMENT_EVENTS)
    def test_segments_match_loop(self, rows):
        arr = events(*[(op, base + off, size, 0) for op, base, off, size in rows]).arr
        got, want = attacks._segment_trace(arr), oracles.segment_trace_loop(arr)
        assert [seg.tolist() for seg in got] == [seg.tolist() for seg in want]

    def test_si_reports_layers_past_64(self):
        trace = events((OP_WRITE, fmap_base(70), 64, 3), (OP_READ, fmap_base(70), 64, 3))
        si = attacks.si_attack([trace])
        assert [(est.layer, est.write_count, est.write_volume) for est in si.layers] == [(69, 1, 64)]

    def test_si_same_after_binary_roundtrip(self):
        # two writes of one address whose digests differ only above their
        # low 16 bits: a trace file that kept 16 digest bits would turn the
        # second into an unchanged-value rewrite
        trace = events(
            (OP_READ, fmap_base(0), 64, 1),
            (OP_WRITE, fmap_base(1), 64, 0x1_2345),
            (OP_WRITE, fmap_base(1), 64, 0x2_2345),
            (OP_READ, fmap_base(1), 64, 0x2_2345),
        )
        before = attacks.si_attack([trace])
        after = attacks.si_attack([Trace.from_binary(trace.to_binary())])
        assert [(est.layer, est.write_volume) for est in before.layers] == [(0, 64)]
        assert before.extra["fake_writes_removed"] == 0
        assert after.to_json() == before.to_json()

    def test_si_needs_a_trace(self):
        with pytest.raises(DomainError):
            attacks.si_attack([])

    def test_ss_needs_a_trace(self):
        with pytest.raises(DomainError):
            attacks.ss_attack([])

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


@pytest.mark.xfail(strict=True, reason="a layer whose weight reads all precede its first input "
                   "read leaves them in the previous segment (ROADMAP item 1)")
@pytest.mark.parametrize("net_name, keyed", [("toy-sparse", False), ("vgg16-head", False),
                                             ("vgg16-head", True)])
def test_segments_hold_their_layers_weights(prepared, net_name, keyed):
    # each segment's weight-region bytes should be its layer's weights;
    # today toy-sparse's dense segments hold [648, 1152, 2304, 0] B against
    # [72, 576, 1152, 2304], and vgg16-head's keyed segments [16, 16, 16,
    # 32, 0] filter bins against [8, 8, 16, 16, 32]
    net, inp, cache = prepared(net_name)
    trace = (tracegen.neuroplug_trace(net, inp, NeuroPlugKey(), 0, 1, cache).trace if keyed
             else tracegen.baseline_trace(net, inp, seed=1))
    got = [int(attacks.observe(Trace(trace.arr[seg]))[:, 1].sum())
           for seg in attacks._segment_trace(trace.arr)]
    assert got == attacks.observe(trace)[:, 1].tolist()


class TestVerdictVolumes:
    """A break needs evidence: at least one comparison, and every one held."""

    TRUTH = {"layers": [{"layer": 0, "ifmap_volume": 100, "ofmap_write_tiles": 4},
                        {"layer": 1, "ifmap_volume": 50, "ofmap_write_tiles": 2}]}

    @staticmethod
    def verdict(truth, *layers):
        return attacks.verdict_volumes(attacks.AttackReport(kind="ss", layers=list(layers)), truth)

    def test_exact_estimates_break(self):
        exact = attacks.LayerEstimate(layer=0, volume_min=100.0, write_count=4)
        assert self.verdict(self.TRUTH, exact)["broken"]
        wrong = attacks.LayerEstimate(layer=0, volume_min=100.0, write_count=5)
        assert not self.verdict(self.TRUTH, wrong)["broken"]

    def test_one_layer_net_is_not_broken(self):
        # its only layer is the last, whose writes are never read back
        truth = {"layers": self.TRUTH["layers"][:1]}
        got = self.verdict(truth, attacks.LayerEstimate(layer=0, volume_min=100.0, write_count=4))
        assert got == {"per_layer": [], "broken": False}

    def test_estimate_without_figures_is_not_broken(self):
        got = self.verdict(self.TRUTH, attacks.LayerEstimate(layer=0))
        assert got == {"per_layer": [{"layer": 0}], "broken": False}


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
