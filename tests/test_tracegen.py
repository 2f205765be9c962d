import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuroplug import binpack, model, sfc, tracegen
from neuroplug.binpack import BinConfig, NoiseSpec
from neuroplug.errors import ConfigError, IntegrityError, NeuroPlugError
from neuroplug.model import Layer, LayerShape, NetworkSpec, Tensor3D, TilingSpec
from neuroplug.tracegen import (
    DUMMY_REGION,
    FMAP_REGION,
    OP_READ,
    OP_WRITE,
    REGION_SHIFT,
    WEIGHT_REGION,
    NeuroPlugKey,
    Trace,
    additive_cm_trace,
    baseline_trace,
    dummy_base,
    fmap_base,
    fmap_index,
    neuroplug_trace,
    prepare_neuroplug,
    weight_base,
)


def tiny_net(k=1, c=1, h=4, w=4, r=1, s=1, pad=0, layers=1):
    ls = []
    ch = c
    hh = h
    for i in range(layers):
        shape = LayerShape(k=k, c=ch, h=hh, w=hh, r=r, s=s, pad=pad)
        ls.append(Layer(shape=shape, tiling=TilingSpec(tk=k, tc=ch, th=hh, tw=hh)))
        ch = k
    return NetworkSpec(layers=ls)


def toy_input(net, seed=0, policy="natural"):
    return model.generate_input(net.layers[0].shape, seed, policy)


class TestBaseline:
    def test_single_tile_three_events(self):
        net = tiny_net()
        tr = baseline_trace(net, toy_input(net))
        # the weight read (no feature map), the input read and the output write
        assert sorted(zip(tr.op.tolist(), fmap_index(tr.addr).tolist())) == [
            (OP_READ, -1), (OP_READ, 0), (OP_WRITE, 1)]

    def test_fmap_index(self):
        addrs = np.array([0, fmap_base(0), fmap_base(1) - 1, fmap_base(70) + 5,
                          weight_base(0) - 1, weight_base(0), dummy_base(3), 2**64 - 1],
                         dtype=np.uint64)
        assert fmap_index(addrs).tolist() == [-1, 0, 0, 70, WEIGHT_REGION - 2, -1, -1, -1]

    def test_vgg_layer1_write_tiles(self):
        net = model.load_network("vgg16-32")
        tr = baseline_trace(net, toy_input(net, 5))
        arr = tr.arr
        w1 = (arr["op"] == OP_WRITE) & ((arr["addr"] >> REGION_SHIFT) == FMAP_REGION + 1)
        assert int(w1.sum()) == 1568

    def test_no_ofmap_tile_written_twice(self):
        net = model.load_network("vgg16-32")
        arr = baseline_trace(net, toy_input(net, 5)).arr
        writes = arr["addr"][arr["op"] == OP_WRITE]
        assert np.unique(writes).size == writes.size

    def test_interlayer_volume_conservation(self):
        net = model.load_network("vgg16-32")
        arr = baseline_trace(net, toy_input(net, 5)).arr
        for i in range(1, len(net.layers)):
            rd = (arr["op"] == OP_READ) & ((arr["addr"] >> REGION_SHIFT) == FMAP_REGION + i)
            wr = (arr["op"] == OP_WRITE) & ((arr["addr"] >> REGION_SHIFT) == FMAP_REGION + i)
            _, counts = np.unique(arr["addr"][rd], return_counts=True)
            mode = np.bincount(counts).argmax()
            assert int(arr["size"][rd].sum()) // int(mode) == int(arr["size"][wr].sum())

    def test_sparse_volume_monotone_in_input_nnz(self):
        shape = LayerShape(k=2, c=1, h=8, w=8, r=3, s=3, pad=1)
        net = NetworkSpec(layers=[Layer(shape=shape, tiling=TilingSpec(tk=2, tc=1, th=8, tw=8))])
        rng = np.random.default_rng(0)
        w = rng.integers(0, 8, size=(2, 1, 3, 3), dtype=np.int8)  # nonnegative taps

        class FixedData(tracegen.NetData):
            pass

        vols = []
        vals = np.zeros((1, 8, 8), np.int8)
        order = rng.permutation(64)
        for step in range(0, 64, 8):
            vals.reshape(-1)[order[step : step + 8]] = rng.integers(1, 50, 8)
            inp = Tensor3D(vals.copy())
            out = model.conv_forward(shape, inp.values, w)
            data = tracegen.NetData(fmaps=[inp.values, out], weights=[w])
            tr = baseline_trace(net, inp, sparse=True, data=data)
            vols.append(int(tr.size[tr.op == OP_WRITE].sum()))
        assert vols == sorted(vols)

    def test_skip_connection_rereads_source(self):
        net = model.load_network("toy-sparse")
        net.skips.append((0, 2))
        arr = baseline_trace(net, toy_input(net, 1)).arr
        # a second full read pass over fmap(1) must appear
        rd = (arr["op"] == OP_READ) & ((arr["addr"] >> REGION_SHIFT) == FMAP_REGION + 1)
        _, counts = np.unique(arr["addr"][rd], return_counts=True)
        assert counts.max() >= 2


class TestAdditiveModels:
    def test_dummy_writes_counts(self):
        net = model.load_network("vgg16-32")
        tr = additive_cm_trace(net, toy_input(net, 5), "dummy-writes", seed=1)
        arr = tr.arr
        true_w = (arr["op"] == OP_WRITE) & ((arr["addr"] >> REGION_SHIFT) == FMAP_REGION + 1)
        d0 = (arr["addr"] >> REGION_SHIFT) == DUMMY_REGION
        assert int(true_w.sum()) == 1568
        assert int((d0 & (arr["op"] == OP_WRITE)).sum()) == 784

    def test_dummy_writes_never_read(self):
        net = model.load_network("toy-sparse")
        arr = additive_cm_trace(net, toy_input(net, 1), "dummy-writes", seed=1).arr
        dummy = (arr["addr"] >> REGION_SHIFT) >= DUMMY_REGION
        assert not np.any(dummy & (arr["op"] == OP_READ))
        assert np.any(dummy & (arr["op"] == OP_WRITE))

    def test_const_mean_statistics(self):
        net = tiny_net(k=2, c=2, h=8, w=8, r=3, s=3, pad=1)
        base_vol = None
        added = []
        for run in range(400):
            tr = additive_cm_trace(net, toy_input(net, 2), "const-mean", seed=3, run_index=run)
            arr = tr.arr
            rd = (arr["op"] == OP_READ) & ((arr["addr"] >> REGION_SHIFT) == FMAP_REGION + 0)
            vol = int(arr["size"][rd].sum())
            if base_vol is None:
                base = baseline_trace(net, toy_input(net, 2)).arr
                rd0 = (base["op"] == OP_READ) & ((base["addr"] >> REGION_SHIFT) == FMAP_REGION + 0)
                base_vol = int(base["size"][rd0].sum())
            added.append(vol - base_vol)
        assert abs(np.mean(added) - 22400) <= 224  # within 1%
        assert min(added) == 22400 - 8  # jitter floor attained

    def test_layer_divider_repeats_digests(self):
        net = model.load_network("toy-sparse")
        arr = additive_cm_trace(net, toy_input(net, 1), "layer-divider", seed=1).arr
        writes = arr[arr["op"] == OP_WRITE]
        seen = {}
        repeated = 0
        for row in writes:
            key = int(row["addr"])
            if seen.get(key) == int(row["digest"]):
                repeated += 1
            seen[key] = int(row["digest"])
        assert repeated > 0

    def test_unknown_model_rejected(self):
        net = tiny_net()
        with pytest.raises(ConfigError):
            additive_cm_trace(net, toy_input(net), "bogus")


def np_key(**kw):
    base = dict(
        seed=99,
        noise=NoiseSpec(alpha=128, support_r=3072, sigma2_max=1280**2, dummy_bytes_first_layer=512),
        bin_cfg=BinConfig(bin_size=2048, kappa=8),
        npu_capacity=512 * 1024,
    )
    base.update(kw)
    return NeuroPlugKey(**base)


@pytest.fixture(scope="module")
def toy_run():
    net = model.load_network("toy-sparse")
    inp = model.generate_input(net.layers[0].shape, 7)
    cache = prepare_neuroplug(net, inp, model_seed=3)
    return net, inp, cache


class TestNeuroPlug:

    def test_all_events_bin_sized(self, toy_run):
        net, inp, cache = toy_run
        run = neuroplug_trace(net, inp, np_key(), run_index=0, cache=cache)
        assert (run.trace.size == 2048).all()

    def test_default_config_bin_size_60kb(self):
        net = tiny_net(k=2, c=2, h=16, w=16, r=3, s=3, pad=1)
        inp = toy_input(net, 3)
        run = neuroplug_trace(net, inp, NeuroPlugKey())
        assert (run.trace.size == 61440).all()

    def test_single_constant_gap(self, toy_run):
        net, inp, cache = toy_run
        run = neuroplug_trace(net, inp, np_key(), run_index=1, cache=cache)
        gaps = np.unique(np.diff(run.trace.t.astype(np.int64)))
        assert gaps.size == 1 and gaps[0] == 8 * 512

    def test_noise_seeds_change_bin_counts(self, toy_run):
        net, inp, cache = toy_run
        a = neuroplug_trace(net, inp, np_key(), run_index=0, cache=cache)
        b = neuroplug_trace(net, inp, np_key(), run_index=1, cache=cache)
        ca = [s.n_bins for s in a.streams]
        cb = [s.n_bins for s in b.streams]
        assert ca != cb

    def test_bin_count_variance_alive(self, toy_run):
        net, inp, cache = toy_run
        counts = []
        for ridx in range(100):
            r = neuroplug_trace(net, inp, np_key(), run_index=ridx, cache=cache)
            counts.append([r.bins_of(i, "ifmap") for i in range(len(net.layers))])
        counts = np.array(counts)
        assert (counts.std(axis=0) > 0).all()

    def test_digests_fresh_across_runs(self, toy_run):
        net, inp, cache = toy_run
        a = neuroplug_trace(net, inp, np_key(), run_index=0, cache=cache)
        b = neuroplug_trace(net, inp, np_key(), run_index=1, cache=cache)
        n = min(len(a.trace), len(b.trace))
        assert not np.any(a.trace.digest[:n] == b.trace.digest[:n])

    def test_pipeline_roundtrip_through_bins(self):
        # layer-0 bins, unpacked, reproduce the exact input bytes
        net = model.load_network("toy-sparse")
        inp = model.generate_input(net.layers[0].shape, 7)
        key = np_key()
        tiles = tracegen._first_layer_tiles(net, inp, key, run_index=0)
        bins, _ = binpack.pack_bins(
            tiles, key.bin_cfg, key.noise, np.random.default_rng(0), assemble=True
        )
        chunks = binpack.unpack_bins(bins)
        got = np.concatenate(chunks)
        entries, _ = sfc.ifmap_walk(net.layers[0].shape, net.layers[0].tiling)
        want = np.concatenate(
            tracegen._coalesced_raw_chunks(inp.values, entries, 2048)
        )
        np.testing.assert_array_equal(got, want)
        assert got.size == inp.values.size  # every input byte is in the stream


def one_layer_runs(shape, tiling, npu_capacity, run_indices):
    net = NetworkSpec(layers=[Layer(shape=shape, tiling=tiling)])
    inp = toy_input(net, 0)
    key = np_key(npu_capacity=npu_capacity)
    cache = prepare_neuroplug(net, inp, model_seed=0)
    return [neuroplug_trace(net, inp, key, run_index=r, cache=cache) for r in run_indices]


@pytest.fixture(scope="module")
def case_two_runs():
    """One layer whose ifmap overflows the NPU beside its weights (case II), runs 0-3."""
    runs = one_layer_runs(LayerShape(k=4, c=16, h=64, w=64, r=3, s=3, pad=1),
                          TilingSpec(4, 16, 8, 8), 20000, range(4))
    assert [run.plans[0].case for run in runs] == [sfc.CASE_II] * 4
    return runs


@pytest.fixture(scope="module")
def case_three_runs():
    """One layer whose weights and ifmap both overflow the NPU (case III).

    Runs 21 and 24 draw eta = 2 stored weight copies, runs 0 and 1 draw one.
    """
    runs = one_layer_runs(LayerShape(k=64, c=32, h=64, w=64, r=3, s=3, pad=1),
                          TilingSpec(64, 32, 8, 8), 16384, (0, 1, 21, 24))
    assert [run.plans[0].eta for run in runs] == [1, 1, 2, 2]
    return runs


def read_passes(run):
    """Maximal runs of consecutive reads per region: [(region, [bin index, ...])]."""
    passes = []
    for row in run.trace.arr[run.trace.op == OP_READ]:
        region = int(row["addr"]) >> REGION_SHIFT
        idx = (int(row["addr"]) & ((1 << REGION_SHIFT) - 1)) // 2048
        if passes and passes[-1][0] == region:
            passes[-1][1].append(idx)
        else:
            passes.append((region, [idx]))
    return passes


def trace_digest(run):
    return hashlib.blake2b(run.trace.arr.tobytes(), digest_size=16).hexdigest()


class TestCaseTwoEmission:
    def test_weights_first_then_ifmap_in_order_then_writes(self, case_two_runs):
        for run in case_two_runs:
            n_in = run.bins_of(0, "ifmap")
            assert run.plans[0].ifmap_bin_groups == sfc._chop(n_in, 9)
            passes = read_passes(run)
            assert [r for r, _ in passes] == [WEIGHT_REGION, FMAP_REGION]
            assert passes[0][1] == list(range(run.bins_of(0, "filter")))
            assert passes[1][1] == list(range(n_in))
            ops = run.trace.op.tolist()
            n_out = run.bins_of(0, "ofmap")
            assert ops == [OP_READ] * (len(ops) - n_out) + [OP_WRITE] * n_out

    def test_pinned_digests(self, case_two_runs):
        # bit-identity gate: these traces may change only with a deliberate schedule change
        assert [trace_digest(run) for run in case_two_runs] == [
            "6072178c0773b34c4ca54025f9645520",
            "8c8d35dacf1376eb25951ff0f2430cf6",
            "972da6afa25ea28d4b0e4dba5d68746c",
            "5a61997bb3d450672c36059b9cc57e9a",
        ]


class TestCaseThreeEmission:
    def test_weight_passes_interleave_ifmap_groups(self, case_three_runs):
        for run in case_three_runs:
            plan = run.plans[0]
            assert plan.case == sfc.CASE_III
            groups = plan.ifmap_bin_groups
            passes = read_passes(run)
            assert [r for r, _ in passes] == [FMAP_REGION, WEIGHT_REGION] * len(groups)
            fmap_reads = [idx for r, idx in passes if r == FMAP_REGION]
            assert [len(idx) for idx in fmap_reads] == groups
            assert sum(fmap_reads, []) == list(range(run.bins_of(0, "ifmap")))

    def test_pass_reads_copy_p_mod_eta(self, case_three_runs):
        for run in case_three_runs:
            eta = run.plans[0].eta
            weight_reads = [idx for r, idx in read_passes(run) if r == WEIGHT_REGION]
            for idx in weight_reads:
                assert idx == list(range(idx[0], idx[0] + len(idx)))
            # the stored copies lie back to back in the weight region, in copy order
            copies = sorted({(idx[0], idx[-1]) for idx in weight_reads})
            assert len(copies) == min(eta, len(weight_reads))
            assert copies[0][0] == 0 and copies[-1][1] == run.bins_of(0, "filter") - 1
            assert all(b[0] == a[1] + 1 for a, b in zip(copies, copies[1:]))
            for p, idx in enumerate(weight_reads):
                assert (idx[0], idx[-1]) == copies[p % eta]

    def test_pinned_digests(self, case_three_runs):
        # bit-identity gate: these traces may change only with a deliberate schedule change
        assert [trace_digest(run) for run in case_three_runs] == [
            "091eaa4546f9ba487271e40a4b127b74",
            "8627ff4ffda6d4cd7a4bbaebd9d6a2ee",
            "387f81f27c1df5734ac4e71b76de9c68",
            "23c7f24d90fa3d8a5c1cd78d942660d3",
        ]


class TestPlanMatchesEmission:
    """The plan a run reports is the schedule it emitted."""

    @staticmethod
    def check(run):
        passes = read_passes(run)
        for i, plan in enumerate(run.plans):
            assert sum(plan.ifmap_bin_groups) == run.bins_of(i, "ifmap")
            if plan.case == sfc.CASE_III:
                assert plan.tau == sum(r == WEIGHT_REGION + i for r, _ in passes)

    def test_toy_sparse_default_key(self, toy_run):
        net, inp, cache = toy_run
        for ridx in range(12):
            self.check(neuroplug_trace(net, inp, NeuroPlugKey(), run_index=ridx, cache=cache))

    def test_case_two_and_three(self, case_two_runs, case_three_runs):
        for run in case_two_runs + case_three_runs:
            self.check(run)


class TestTraceIO:
    def roundtrip_fixture(self):
        net = model.load_network("toy-sparse")
        return baseline_trace(net, toy_input(net, 1))

    def test_csv_roundtrip(self):
        tr = self.roundtrip_fixture()
        again = Trace.from_csv(tr.to_csv())
        np.testing.assert_array_equal(tr.arr["addr"], again.arr["addr"])
        np.testing.assert_array_equal(tr.arr["size"], again.arr["size"])
        np.testing.assert_array_equal(tr.arr["t"], again.arr["t"])
        assert tr.to_csv() == again.to_csv()

    def test_binary_roundtrip_24_bytes(self):
        tr = self.roundtrip_fixture()
        blob = tr.to_binary()
        assert len(blob) == 24 * len(tr)
        again = Trace.from_binary(blob)
        np.testing.assert_array_equal(tr.arr["addr"], again.arr["addr"])
        np.testing.assert_array_equal(tr.arr["op"], again.arr["op"])

    def test_bit_stable(self):
        net = model.load_network("toy-sparse")
        inp = toy_input(net, 1)
        a = baseline_trace(net, inp, seed=4).to_binary()
        b = baseline_trace(net, inp, seed=4).to_binary()
        assert a == b


def small_trace():
    """Four events whose fields reach both ends of their ranges."""
    arr = np.zeros(4, dtype=tracegen.EVENT_DTYPE)
    arr[0] = (OP_READ, 0, 64, 0, 0)
    arr[1] = (OP_WRITE, 2**64 - 1, 2**64 - 1, 2**64 - 1, 2**64 - 1)
    arr[2] = (OP_READ, 1 << 28, 2048, 4, 0xABCD)
    arr[3] = (OP_WRITE, 5, 1, 9, 1 << 63)
    return Trace(arr)


CSV_HEADER = "op,addr,size,t,digest\n"
EDIT_TEXT = st.text(alphabet="rwx,-0123456789abcdef\n ", max_size=4) | st.text(max_size=2)


class TestTraceDecodersTotal:
    """Malformed trace files raise a NeuroPlugError, never another exception,
    and are never accepted silently."""

    def test_small_trace_csv_roundtrip(self):
        tr = small_trace()
        np.testing.assert_array_equal(Trace.from_csv(tr.to_csv()).arr, tr.arr)

    @pytest.mark.parametrize("row", [
        "r,1,2,3",  # four fields
        "r,1,2,3,4,5",
        "r,a,2,3,0000000000000004",  # non-integer fields
        "r,1,2,3,",
        "r,1,2.5,3,0000000000000004",
        "r,-1,2,3,0000000000000004",  # values outside u64
        f"r,1,{2**64},3,0000000000000004",
        "r,1,2,3,10000000000000000",  # 17 hex digits
        "x,1,2,3,0000000000000004",  # ops other than r/w
        "R,1,2,3,0000000000000004",
        "r,1_0, +5,\u0663,0x1f",  # what int() takes but to_csv never writes
        "r,1_0,2,3,0000000000000004",
        "r, 1,2,3,0000000000000004",
        "r,1,+2,3,0000000000000004",
        "r,1,2,\u0663,0000000000000004",
        "r,1,2,3,0x00000000000004",
        "r,1,2,3,000000000000000A",
        "r,1,2,3,4",
    ])
    def test_malformed_csv_row_rejected(self, row):
        with pytest.raises(IntegrityError):
            Trace.from_csv(CSV_HEADER + "r,1,2,3,0000000000000004\n" + row + "\n")

    @pytest.mark.parametrize("edit", ["extra byte", "short record", "op 7", "op 2", "pad"])
    def test_malformed_binary_rejected(self, edit):
        blob = bytearray(small_trace().to_binary())
        if edit == "extra byte":
            blob = blob[:24] + b"\x00"  # 25 bytes
        elif edit == "short record":
            blob = blob[:-1]
        elif edit == "pad":
            blob[24 + 23] = 1
        else:
            blob[24 + 22] = int(edit[-1])  # record 1's op byte
        with pytest.raises(IntegrityError):
            Trace.from_binary(bytes(blob))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3), EDIT_TEXT),
                    min_size=1, max_size=4))
    def test_edited_csv_decodes_or_raises(self, edits):
        text = small_trace().to_csv()
        for pos, cut, insert in edits:
            pos %= len(text) + 1
            text = text[:pos] + insert + text[pos + cut:]
        try:
            assert isinstance(Trace.from_csv(text), Trace)
        except NeuroPlugError:
            pass

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4),
           st.integers(-30, 30))
    def test_edited_blob_decodes_or_raises(self, edits, resize):
        blob = bytearray(small_trace().to_binary())
        for pos, val in edits:
            blob[pos % len(blob)] = val
        blob = blob[: len(blob) + resize] if resize < 0 else blob + bytes(resize)
        try:
            assert isinstance(Trace.from_binary(bytes(blob)), Trace)
        except NeuroPlugError:
            pass
