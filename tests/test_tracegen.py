import dataclasses
import gc
import hashlib
import itertools
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
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

from oracles import (additive_cm_loop, baseline_trace_loop, bins_of, coalesced_raw_chunks,
                     generate_weights_lexsort, strip_dummies)


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


def const_mean_pads(net, arr):
    """The const-mean padding in a trace: reads past the end of an input map."""
    fmap = fmap_index(arr["addr"])
    pad = np.zeros(len(arr), dtype=bool)
    for i, layer in enumerate(net.layers):
        pad |= (fmap == i) & (arr["addr"] >= fmap_base(i) + sfc.ifmap_bytes(layer.shape))
    return pad


class TestBaseline:
    def test_single_tile_three_events(self):
        net = tiny_net()
        tr = baseline_trace(net, toy_input(net))
        # the weight read (no feature map), the input read and the output write
        assert sorted(zip(tr.arr["op"].tolist(), fmap_index(tr.arr["addr"]).tolist())) == [
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

        vols = []
        vals = np.zeros((1, 8, 8), np.int8)
        order = rng.permutation(64)
        for step in range(0, 64, 8):
            vals.reshape(-1)[order[step : step + 8]] = rng.integers(1, 50, 8)
            inp = Tensor3D(vals.copy())
            out = model.conv_forward(shape, inp.values, w)
            data = tracegen.NetData(fmaps=[inp.values, out], weights=[w])
            tr = baseline_trace(net, inp, sparse=True, data=data)
            vols.append(int(tr.size[tr.arr["op"] == OP_WRITE].sum()))
        assert vols == sorted(vols)


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

    def test_const_mean_pads_inside_each_layer(self):
        # each layer's padding directly follows its last read of its input
        # map, before its last write
        net = model.load_network("toy-sparse")
        inp = toy_input(net, 1)
        base = baseline_trace(net, inp, seed=1).arr
        arr = additive_cm_trace(net, inp, "const-mean", seed=1).arr
        pad = const_mean_pads(net, arr)
        assert arr[~pad].tobytes() == base.tobytes()
        fmap = fmap_index(arr["addr"])
        for i in range(len(net.layers)):
            layer_pad = np.flatnonzero(pad & (fmap == i))
            last_read = np.flatnonzero(~pad & (arr["op"] == OP_READ) & (fmap == i))[-1]
            last_write = np.flatnonzero((arr["op"] == OP_WRITE) & (fmap == i + 1))[-1]
            assert 0 < layer_pad.size and layer_pad[-1] < last_write
            assert np.array_equal(layer_pad, last_read + 1 + np.arange(layer_pad.size))

    def test_dummy_writes_in_a_one_tile_layer(self):
        # half of one output tile rounds to none; the layer still gets one
        net = NetworkSpec(layers=[Layer(shape=LayerShape(k=4, c=4, h=8, w=8, r=3, s=3, pad=1),
                                        tiling=TilingSpec(tk=4, tc=4, th=8, tw=8))])
        base = baseline_trace(net, toy_input(net, 1), 1).arr
        arr = additive_cm_trace(net, toy_input(net, 1), "dummy-writes", seed=1).arr
        assert len(base) == 3 and arr[:3].tobytes() == base.tobytes()
        _, out_cap = sfc.ofmap_walk(net.layers[0].shape, net.layers[0].tiling)
        assert len(arr) == 4
        assert (arr["op"][3], arr["addr"][3], arr["size"][3], arr["t"][3]) == \
            (OP_WRITE, dummy_base(0), out_cap, base["t"][2])

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


@st.composite
def small_nets(draw):
    """One to three chained layers with ragged tilings and optional pooling."""
    n_layers = draw(st.integers(1, 3))
    c, h = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    layers = []
    for _ in range(n_layers):
        k, r = draw(st.integers(1, 5)), draw(st.sampled_from([1, 3]))
        pool = draw(st.sampled_from([1, 2])) if h % 2 == 0 else 1
        shape = LayerShape(k=k, c=c, h=h, w=h, r=r, s=r, pad=r // 2, pool=pool)
        tiling = TilingSpec(tk=draw(st.integers(1, k)), tc=draw(st.integers(1, c)),
                            th=draw(st.integers(1, h)), tw=draw(st.integers(1, h)))
        layers.append(Layer(shape=shape, tiling=tiling,
                            sparsity=draw(st.sampled_from([0.0, 0.5, 0.95]))))
        c, h = k, shape.p_out
    net = NetworkSpec(layers=layers)
    net.validate()
    return net


class TestAgainstEmitterLoop:
    """Every baseline and additive trace equals the per-event emitter's, byte
    for byte; sparse tiles and weight blocks of size 0 are skipped.  The
    additive models run on the dense baseline only."""

    @settings(max_examples=120)
    @given(small_nets(), st.sampled_from(["natural", "sparse"]), st.integers(0, 3),
           st.booleans(), st.booleans())
    def test_matches_loop(self, net, policy, seed, sparse, observe_values):
        inp = model.generate_input(net.layers[0].shape, seed, policy)
        data = tracegen.compute_net_data(net, inp, seed)
        want = baseline_trace_loop(net, inp, seed, sparse, observe_values, data)
        got = baseline_trace(net, inp, seed, sparse, observe_values, data)
        assert got.arr.tobytes() == want.arr.tobytes()
        if not (sparse or observe_values):
            assert baseline_trace(net, inp, seed).arr.tobytes() == want.arr.tobytes()
        dense = {values: baseline_trace_loop(net, inp, seed, False, values, data)
                 for values in {observe_values, True}}
        for cm_model in tracegen.ADDITIVE_MODELS:
            # the layer divider's rewrites repeat the digests of the writes they copy
            base = dense[observe_values or cm_model == "layer-divider"]
            want_cm = additive_cm_loop(base, net, cm_model, seed, run_index=1)
            got_cm = additive_cm_trace(net, inp, cm_model, seed, 1, observe_values, data)
            assert got_cm.arr.tobytes() == want_cm.arr.tobytes()


def retiled(net):
    """The same layers with other tilings (halved k and c tiles, 16x16 maps)."""
    layers = [dataclasses.replace(layer, tiling=TilingSpec(
        tk=max(1, layer.shape.k // 2), tc=max(1, layer.shape.c // 2), th=16, tw=16))
        for layer in net.layers]
    return NetworkSpec(layers=layers)


class TestTableMemo:
    """`baseline_trace` builds each layer's event table once per NetData and
    looks it up on later calls; every trace still equals the emitter's."""

    @pytest.fixture
    def toy(self):
        net = model.load_network("toy-sparse")
        inp = toy_input(net, 1)
        return net, inp, tracegen.compute_net_data(net, inp, 1)

    def test_each_block_hashed_once_per_input(self, generated, toy, monkeypatch):
        # generated comes first, so toy's data is of a model the store has not hashed
        net, inp, data = toy
        hashed = []
        digest64 = tracegen._digest64
        monkeypatch.setattr(tracegen, "_digest64", lambda b: hashed.append(1) or digest64(b))
        blocks = 0
        for layer in net.layers:
            shp, til = layer.shape, layer.tiling
            blocks += math.ceil(shp.k / til.tk) * math.ceil(shp.c / til.tc)
            blocks += len(sfc.ifmap_walk(shp, til)[0]) + len(sfc.ofmap_walk(shp, til)[0])
        base = baseline_trace_loop(net, inp, 1, observe_values=True, data=data)
        counts = []
        for run in range(4):
            for cm_model in tracegen.ADDITIVE_MODELS:
                got = additive_cm_trace(net, inp, cm_model, 1, run, observe_values=True, data=data)
                counts.append(len(hashed))
                want = additive_cm_loop(base, net, cm_model, 1, run)
                assert got.arr.tobytes() == want.arr.tobytes()
        assert counts == [blocks] * 12

    def test_weight_blocks_hashed_once_per_model(self, generated, monkeypatch):
        """The inputs of one model hash each of its weight blocks once per
        tiling between them; a new model hashes them again."""
        net = model.load_network("toy-sparse")
        mixed = NetworkSpec(layers=[net.layers[0], retiled(net).layers[1], *net.layers[2:]])
        hashed = []
        digest64 = tracegen._digest64
        monkeypatch.setattr(tracegen, "_digest64", lambda b: hashed.append(1) or digest64(b))

        def weight_blocks(nn):
            return sum(math.ceil(layer.shape.k / layer.tiling.tk)
                       * math.ceil(layer.shape.c / layer.tiling.tc) for layer in nn.layers)

        def tiles(nn):
            return sum(len(sfc.ifmap_walk(layer.shape, layer.tiling)[0])
                       + len(sfc.ofmap_walk(layer.shape, layer.tiling)[0]) for layer in nn.layers)

        steps = [
            (net, 1, weight_blocks(net) + tiles(net)),  # a first input of the model
            (net, 1, tiles(net)),  # a second input
            (retiled(net), 1, weight_blocks(retiled(net)) + tiles(retiled(net))),
            (retiled(net), 1, tiles(retiled(net))),
            (mixed, 1, tiles(mixed)),  # every layer's tiling already seen
            (net, 2, weight_blocks(net) + tiles(net)),  # a new model
        ]
        for n, (nn, seed, want_hashed) in enumerate(steps):
            inp = toy_input(nn, n)
            data = tracegen.compute_net_data(nn, inp, seed)
            before = len(hashed)
            got = baseline_trace(nn, inp, seed, observe_values=True, data=data)
            cm_model = tracegen.ADDITIVE_MODELS[n % len(tracegen.ADDITIVE_MODELS)]
            got_cm = additive_cm_trace(nn, inp, cm_model, seed, n, observe_values=True, data=data)
            assert len(hashed) - before == want_hashed, n
            want = baseline_trace_loop(nn, inp, seed, observe_values=True, data=data)
            assert got.arr.tobytes() == want.arr.tobytes(), n
            want_cm = additive_cm_loop(want, nn, cm_model, seed, n)
            assert got_cm.arr.tobytes() == want_cm.arr.tobytes(), n
        assert len(generated) == 2

    def test_value_free_tables_built_once(self, monkeypatch):
        # a dense trace without values reads no data, so each layer's table
        # is built once and every later call, of any input, looks it up
        net = model.load_network("toy-sparse")
        built = []
        layer_table = tracegen._layer_table
        monkeypatch.setattr(tracegen, "_layer_table", lambda *a: built.append(a[0]) or layer_table(*a))
        for nn in (net, retiled(net)):
            built.clear()
            want = baseline_trace_loop(nn, toy_input(nn, 1), 1).arr.tobytes()
            first = baseline_trace(nn, toy_input(nn, 1), 1)
            seen = len(built)
            assert seen <= len(nn.layers)
            for seed in (2, 3):
                inp = toy_input(nn, seed)
                data = tracegen.compute_net_data(nn, inp, 1)
                assert baseline_trace(nn, inp, seed, data=data).arr.tobytes() == want
                assert additive_cm_trace(nn, inp, "dummy-writes", seed).size.sum() > 0
            assert first.arr.tobytes() == want
            assert len(built) == seen

    def test_returned_trace_is_a_copy(self, toy):
        net, inp, data = toy
        want = baseline_trace_loop(net, inp, 1, observe_values=True, data=data).arr.tobytes()
        for _ in range(2):
            tr = baseline_trace(net, inp, 1, observe_values=True, data=data)
            assert tr.arr.tobytes() == want
            tr.arr[:] = np.zeros(1, dtype=tr.arr.dtype)
            tr.arr["size"] += 1

    def test_nets_and_modes_sharing_data(self, toy):
        """Other tilings, of every layer or of one, sparse and dense, all on
        one NetData, and then on a second input of the same model, which
        takes its weight blocks' rows from the first's."""
        net, inp, data = toy
        other = toy_input(net, 2)
        inputs = [(inp, data), (other, tracegen.compute_net_data(net, other, 1))]
        nets = [net, retiled(net),
                NetworkSpec(layers=[net.layers[0], retiled(net).layers[1], *net.layers[2:]])]
        modes = [(False, True), (True, False), (True, True), (False, False)]
        for x, d in inputs:
            want = {(n, mode): baseline_trace_loop(nn, x, 1, *mode, data=d).arr.tobytes()
                    for n, nn in enumerate(nets) for mode in modes}
            for _ in range(2):
                for n, nn in enumerate(nets):
                    for mode in modes:
                        got = baseline_trace(nn, x, 1, *mode, data=d)
                        assert got.arr.tobytes() == want[n, mode], (n, mode)


class TestModelStore:
    """The store holds one model's weights and weight tiles, shared by
    every input of that (net, model seed); what it hands out is read-only
    and equals what a fresh generation gives."""

    @staticmethod
    def toy_models():
        """toy-sparse at seed 1 (A), at seed 2 (B), with a denser last
        layer (C) and retiled (D, the same model as A: the tiling does not
        enter the weights)."""
        net = model.load_network("toy-sparse")
        sparser = NetworkSpec(layers=net.layers[:-1] + [
            dataclasses.replace(net.layers[-1], sparsity=net.layers[-1].sparsity / 2)])
        return {"A": (net, 1), "B": (net, 2), "C": (sparser, 1), "D": (retiled(net), 1)}

    def test_inputs_of_one_model_generate_weights_once(self, generated):
        net = model.load_network("toy-sparse")
        first = tracegen.compute_net_data(net, toy_input(net, 1), 5)
        second = tracegen.compute_net_data(net, toy_input(net, 2), 5)
        assert len(generated) == 1
        assert all(a is b for a, b in zip(first.weights, second.weights))
        assert not np.array_equal(first.fmaps[-1], second.fmaps[-1])

    @pytest.mark.parametrize("sequence", ["AABA", "ABCDA", "CCAC", "DAD"])
    def test_weights_match_fresh_generation(self, generated, sequence):
        models = self.toy_models()
        for n, name in enumerate(sequence):
            net, seed = models[name]
            data = tracegen.compute_net_data(net, toy_input(net, n), seed)
            fresh, lexsort = model.generate_weights(net, seed), generate_weights_lexsort(net, seed)
            assert len(data.weights) == len(fresh) == len(lexsort)
            for got, want, oracle in zip(data.weights, fresh, lexsort):
                assert got.tobytes() == want.tobytes() == oracle.tobytes()
        # a model is generated again each time the model changes, and only then
        held = sequence.replace("D", "A")
        changes = 1 + sum(a != b for a, b in zip(held, held[1:]))
        assert len(generated) == changes

    def test_holds_only_the_last_model(self, generated):
        models = self.toy_models()
        net, seed = models["A"]
        data = tracegen.compute_net_data(net, toy_input(net), seed)
        baseline_trace(net, toy_input(net), seed, observe_values=True, data=data)
        first = weakref.ref(data.weights[0])
        (rows,) = [weakref.ref(wrows) for key, wrows in data._weight_rows.items() if key[0] == 0]
        del data
        for name in "BC":
            net, seed = models[name]
            tracegen.compute_net_data(net, toy_input(net), seed)
        gc.collect()
        assert first() is None
        assert rows() is None
        assert tracegen._held.key == (tuple((layer.shape, layer.sparsity) for layer in net.layers),
                                      seed)
        net, seed = models["A"]
        tracegen.compute_net_data(net, toy_input(net), seed)
        assert len(generated) == 4

    def test_retiled_net_shares_the_model(self, generated):
        # the weights and the weight tiles depend on each layer's shape and
        # sparsity only, so a retiled net takes both from the store
        net = model.load_network("toy-sparse")
        first = prepare_neuroplug(net, toy_input(net, 1), 4)
        second = prepare_neuroplug(retiled(net), toy_input(net, 1), 4)
        assert len(generated) == 1
        lexsort = generate_weights_lexsort(net, 4)
        for a, b, oracle in zip(first.data.weights, second.data.weights, lexsort, strict=True):
            assert a is b
            assert a.tobytes() == oracle.tobytes()
        for a, b, oracle in zip(first.weight_tiles, second.weight_tiles, lexsort, strict=True):
            assert all(x is y for x, y in zip(a, b, strict=True))
            rows = oracle.view(np.uint8).reshape(len(oracle), -1)
            assert [t.payload.tobytes() for t in a] == [
                binpack.compress_tile(row).payload.tobytes() for row in rows]

    def test_shared_arrays_are_read_only(self, generated):
        net = model.load_network("toy-sparse")
        inp = toy_input(net, 1)
        cache = prepare_neuroplug(net, inp, 1)
        data = cache.data
        for arr in data.weights + data.fmaps[1:] + [cache.weight_tiles[0][0].payload]:
            with pytest.raises(ValueError):
                arr.reshape(-1)[0] = 1
        # the caller's own input stays theirs to write
        assert data.fmaps[0] is inp.values
        inp.values[0, 0, 0] = 1
        assert data.fmaps[0][0, 0, 0] == 1

    def test_weight_streams_compressed_once_per_model(self, generated, monkeypatch):
        net = model.load_network("toy-sparse")
        compressed = []
        compress = binpack.compress_stream

        def compress_stream(*args):
            tiles = compress(*args)
            compressed.extend(tiles)
            return tiles

        monkeypatch.setattr(binpack, "compress_stream", compress_stream)
        fmap_chunks = sum(len(tracegen.chunk_ends(sfc.ofmap_walk(layer.shape, layer.tiling)[0]))
                          for layer in net.layers)
        weight_rows = sum(layer.shape.k for layer in net.layers)
        caches = []
        for n in range(2):
            caches.append(prepare_neuroplug(net, toy_input(net, n), 3))
            assert len(compressed) == (n + 1) * fmap_chunks + weight_rows
        assert len(generated) == 1
        first, second = caches
        want = [[binpack.compress_tile(row) for row in w.view(np.uint8).reshape(len(w), -1)]
                for w in model.generate_weights(net, 3)]
        for i, tiles in enumerate(want):
            assert len(first.weight_tiles[i]) == len(second.weight_tiles[i]) == len(tiles)
            for a, b, w in zip(first.weight_tiles[i], second.weight_tiles[i], tiles):
                assert a is b
                assert a.payload.tobytes() == w.payload.tobytes()
                assert (a.raw_size, a.comp_size, a.dummy_spans) == (
                    w.raw_size, w.comp_size, w.dummy_spans)


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
            counts.append([bins_of(r, i, "ifmap") for i in range(len(net.layers))])
        counts = np.array(counts)
        assert (counts.std(axis=0) > 0).all()

    def test_digests_fresh_across_runs(self, toy_run):
        net, inp, cache = toy_run
        a = neuroplug_trace(net, inp, np_key(), run_index=0, cache=cache)
        b = neuroplug_trace(net, inp, np_key(), run_index=1, cache=cache)
        n = min(len(a.trace), len(b.trace))
        assert not np.any(a.trace.arr["digest"][:n] == b.trace.arr["digest"][:n])

    def test_cache_is_the_one_source(self, toy_run):
        # layer 0 packs the cache's input, not input_tensor, as every other
        # map and the weights already come from the cache
        net, inp, cache = toy_run
        want = neuroplug_trace(net, inp, np_key(), run_index=0, cache=cache)
        got = neuroplug_trace(net, toy_input(net, 8), np_key(), run_index=0, cache=cache)
        assert got.reports == want.reports
        assert got.trace.arr.tobytes() == want.trace.arr.tobytes()

    def test_pipeline_roundtrip_through_bins(self):
        # layer-0 bins and their parsed wire images unpack to the same
        # dummied chunks, and the tiles' spans strip them to the exact
        # input bytes
        net = model.load_network("toy-sparse")
        inp = model.generate_input(net.layers[0].shape, 7)
        key = np_key()
        tiles = tracegen._first_layer_tiles(net, inp.values, key, run_index=0)
        bins, _ = binpack.pack_bins(
            tiles, key.bin_cfg, key.noise, np.random.default_rng(0), assemble=True
        )
        chunks = binpack.unpack_bins(bins)
        parsed = [binpack.bin_from_bytes(b.to_bytes(key.bin_cfg), key.bin_cfg, b.index)
                  for b in bins]
        assert np.concatenate(chunks).tobytes() == np.concatenate(
            binpack.unpack_bins(parsed)).tobytes()
        assert sum(c.size for c in chunks) == inp.values.size + key.noise.dummy_bytes_first_layer
        got = np.concatenate([strip_dummies(c, t.dummy_spans)
                              for c, t in zip(chunks, tiles, strict=True)])
        walk, _ = sfc.ifmap_walk(net.layers[0].shape, net.layers[0].tiling)
        np.testing.assert_array_equal(got, sfc.curve_image(inp.values, walk))
        assert got.size == inp.values.size  # every input byte is in the stream


def one_layer_runs(shape, tiling, npu_capacity, run_indices):
    net = NetworkSpec(layers=[Layer(shape=shape, tiling=tiling)])
    inp = toy_input(net, 0)
    key = np_key(npu_capacity=npu_capacity)
    cache = prepare_neuroplug(net, inp, model_seed=0)
    return [neuroplug_trace(net, inp, key, run_index=r, cache=cache) for r in run_indices]


@pytest.fixture(scope="module")
def case_one_runs():
    """One layer whose weights overflow the NPU beside its ifmap (case I), runs 0-3.

    Weights 36,864 B on 18,432 B: 24 output maps fit beside the 4,096 B
    ifmap, so the weights stream in at least three parts."""
    shape = LayerShape(k=64, c=64, h=8, w=8, r=3, s=3, pad=1)
    runs = one_layer_runs(shape, TilingSpec(64, 64, 4, 4), sfc.weight_bytes(shape) // 2, range(4))
    assert [run.plans[0].case for run in runs] == [sfc.CASE_I] * 4
    assert [len(run.plans[0].ofmap_partition) for run in runs] == [3, 3, 5, 4]
    return runs


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
    for row in run.trace.arr[run.trace.arr["op"] == OP_READ]:
        region = int(row["addr"]) >> REGION_SHIFT
        idx = (int(row["addr"]) & ((1 << REGION_SHIFT) - 1)) // 2048
        if passes and passes[-1][0] == region:
            passes[-1][1].append(idx)
        else:
            passes.append((region, [idx]))
    return passes


def trace_digest(run):
    return hashlib.blake2b(run.trace.arr.tobytes(), digest_size=16).hexdigest()


class TestCaseOneEmission:
    def test_pinned_digests(self, case_one_runs):
        # bit-identity gate: these traces may change only with a deliberate schedule change
        assert [trace_digest(run) for run in case_one_runs] == [
            "1b6f9b3253f6d47fc2cff51f57589292",
            "98d3ae0fa54aff8cdff0e1904a2a1fb7",
            "9495d2cb42c1f6be5d23962a9fb8823a",
            "bdbcc8f2e63232ff85e3fa35f5cf8174",
        ]


class TestCaseTwoEmission:
    def test_weights_first_then_ifmap_in_order_then_writes(self, case_two_runs):
        for run in case_two_runs:
            n_in = bins_of(run, 0, "ifmap")
            assert run.plans[0].ifmap_bin_groups == sfc._chop(n_in, 9)
            passes = read_passes(run)
            assert [r for r, _ in passes] == [WEIGHT_REGION, FMAP_REGION]
            assert passes[0][1] == list(range(bins_of(run, 0, "filter")))
            assert passes[1][1] == list(range(n_in))
            ops = run.trace.arr["op"].tolist()
            n_out = bins_of(run, 0, "ofmap")
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
            assert sum(fmap_reads, []) == list(range(bins_of(run, 0, "ifmap")))

    def test_pass_reads_copy_p_mod_eta(self, case_three_runs):
        for run in case_three_runs:
            eta = run.plans[0].eta
            weight_reads = [idx for r, idx in read_passes(run) if r == WEIGHT_REGION]
            for idx in weight_reads:
                assert idx == list(range(idx[0], idx[0] + len(idx)))
            # the stored copies lie back to back in the weight region, in copy order
            copies = sorted({(idx[0], idx[-1]) for idx in weight_reads})
            assert len(copies) == min(eta, len(weight_reads))
            assert copies[0][0] == 0 and copies[-1][1] == bins_of(run, 0, "filter") - 1
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
        """Layer by layer, the reads are plan.passes() expanded to bins: an
        ifmap pass reads its group's bins, a weight pass one whole stored
        copy, and the copies lie back to back in copy order."""
        bin_size = int(run.trace.size[0])
        # a layer's events end with its output writes
        ops = run.trace.arr["op"]
        ends = np.flatnonzero((ops[:-1] == OP_WRITE) & (ops[1:] == OP_READ)) + 1
        layers = np.split(run.trace.arr, ends)
        for i, (plan, events) in enumerate(zip(run.plans, layers, strict=True)):
            region = events["addr"] >> REGION_SHIFT
            reads = events[(events["op"] == OP_READ)
                           & ((region == FMAP_REGION + i) | (region == WEIGHT_REGION + i))]
            got = [(int(a) >> REGION_SHIFT, (int(a) & ((1 << REGION_SHIFT) - 1)) // bin_size)
                   for a in reads["addr"]]
            group_start = list(itertools.accumulate(plan.ifmap_bin_groups, initial=0))
            copies, pos = {}, 0
            for stream, idx in plan.passes():
                if stream == "ifmap":
                    want = [(FMAP_REGION + i, b)
                            for b in range(group_start[idx], group_start[idx + 1])]
                else:
                    n = next((j for j, (r, _) in enumerate(got[pos:]) if r != WEIGHT_REGION + i),
                             len(got) - pos)
                    assert n > 0
                    want = copies.setdefault(idx, got[pos:pos + n])
                assert got[pos:pos + len(want)] == want
                pos += len(want)
            assert pos == len(got)
            assert sum(plan.ifmap_bin_groups) == bins_of(run, i, "ifmap")
            assert sorted(copies) == list(range(plan.eta))
            assert sum((copies[c] for c in range(plan.eta)), []) == [
                (WEIGHT_REGION + i, b) for b in range(bins_of(run, i, "filter"))]
            if plan.case == sfc.CASE_III:
                assert plan.tau == sum(stream == "filter" for stream, _ in plan.passes())

    def test_toy_sparse_default_key(self, toy_run):
        net, inp, cache = toy_run
        cases = set()
        for ridx in range(12):
            run = neuroplug_trace(net, inp, NeuroPlugKey(), run_index=ridx, cache=cache)
            self.check(run)
            cases.update(plan.case for plan in run.plans)
        assert sfc.CASE_ALL_FIT in cases

    def test_case_one(self, case_one_runs):
        for run in case_one_runs:
            self.check(run)

    def test_case_two_and_three(self, case_two_runs, case_three_runs):
        for run in case_two_runs + case_three_runs:
            self.check(run)


def small_trace():
    """Four events whose fields reach both ends of their ranges."""
    arr = np.zeros(4, dtype=tracegen.EVENT_DTYPE)
    arr[0] = (OP_READ, 0, 64, 0, 0)
    arr[1] = (OP_WRITE, 2**64 - 1, 2**64 - 1, 2**64 - 1, 2**64 - 1)
    arr[2] = (OP_READ, 1 << 28, 2048, 4, 0xABCD)
    arr[3] = (OP_WRITE, 5, 1, 9, 1 << 63)
    return Trace(arr)


RECORD = 33  # bytes per event in a trace file


class TestTraceIO:
    def test_binary_roundtrip_33_bytes(self):
        tr = small_trace()
        blob = tr.to_binary()
        assert len(blob) == RECORD * len(tr)
        # op u8, then addr, size, t and digest as little-endian u64, no padding
        assert blob[2 * RECORD : 3 * RECORD] == b"".join(
            [bytes([OP_READ])] + [v.to_bytes(8, "little") for v in (1 << 28, 2048, 4, 0xABCD)])

    def test_roundtrip_keeps_every_bit(self):
        for name, tr in [("small", small_trace()), *pinned_traces()]:
            again = Trace.from_binary(tr.to_binary())
            assert again.arr.dtype == tracegen.EVENT_DTYPE, name
            assert again.arr.tobytes() == tr.arr.tobytes(), name

    def test_bit_stable(self):
        net = model.load_network("toy-sparse")
        inp = toy_input(net, 1)
        a = baseline_trace(net, inp, seed=4).to_binary()
        b = baseline_trace(net, inp, seed=4).to_binary()
        assert a == b


class TestTraceDecodersTotal:
    """Malformed trace files raise a NeuroPlugError, never another exception,
    and are never accepted silently."""

    @pytest.mark.parametrize("edit", ["extra byte", "short record", "op 7", "op 2",
                                      "last op 255"])
    def test_malformed_binary_rejected(self, edit):
        blob = bytearray(small_trace().to_binary())
        if edit == "extra byte":
            blob = blob[:RECORD] + b"\x00"  # 34 bytes
        elif edit == "short record":
            blob = blob[:-1]
        elif edit == "last op 255":
            blob[3 * RECORD] = 255  # record 3's op byte
        else:
            blob[RECORD] = int(edit[-1])  # record 1's op byte
        with pytest.raises(IntegrityError):
            Trace.from_binary(bytes(blob))

    @pytest.mark.parametrize("record", [0, 3])
    def test_size_zero_record_rejected(self, record):
        # no generator emits an event that moves no bytes
        tr = small_trace()
        tr.arr["size"][record] = 0
        with pytest.raises(IntegrityError, match=f"record {record} has size 0"):
            Trace.from_binary(tr.to_binary())

    @settings(max_examples=150)
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


class TestTimeOrder:
    def test_only_the_layer_divider_steps_back(self):
        # its read-back and rewrite repeat the times of the writes they copy
        for name, tr in pinned_traces():
            steps = np.diff(tr.t.astype(np.int64))
            if "layer-divider" in name:
                assert (steps < 0).any(), name
            else:
                assert (steps >= 0).all(), name


def pinned_traces():
    """Named traces whose bytes are pinned: every generator, mode and additive model."""
    toy = model.load_network("toy-sparse")
    inp = toy_input(toy, 1)
    yield "toy dense", baseline_trace(toy, inp, seed=1)
    yield "toy sparse", baseline_trace(toy, inp, seed=1, sparse=True)
    yield "toy values", baseline_trace(toy, inp, seed=1, observe_values=True)
    for cm_model in tracegen.ADDITIVE_MODELS:
        for run in (0, 1):
            yield (f"toy {cm_model} run {run}",
                   additive_cm_trace(toy, inp, cm_model, seed=1, run_index=run))
    cache = prepare_neuroplug(toy, inp, model_seed=1)
    for run in range(3):
        run_trace = neuroplug_trace(toy, inp, NeuroPlugKey(), run, 1, cache).trace
        yield f"toy neuroplug run {run}", run_trace
    vgg = model.load_network("vgg16-32")
    inp = toy_input(vgg, 1)
    data = tracegen.compute_net_data(vgg, inp, 1)
    yield "vgg values", baseline_trace(vgg, inp, seed=1, observe_values=True, data=data)
    yield "vgg layer-divider", additive_cm_trace(vgg, inp, "layer-divider", seed=1, data=data)


PINNED_TRACES = {
    "toy dense": "1d1ae1267c887ad9acee66414f5a5ec3",
    "toy sparse": "ded76fa13648bdc366096623fde8c991",
    "toy values": "8e09ebc33ef8b8dbbf3d4f1d1674aea4",
    "toy dummy-writes run 0": "0c87ae2f55dd68971a68db3ee86ccaa2",
    "toy dummy-writes run 1": "c06bfba7461b53b11b4b7ba4bea5b16a",
    "toy const-mean run 0": "47589cf4bb035c13e012126caac3c72d",
    "toy const-mean run 1": "6bcaf996e782d8f5b37feb23a91b5abb",
    "toy layer-divider run 0": "8a95622064593143a391248ba11eba00",
    "toy layer-divider run 1": "8a95622064593143a391248ba11eba00",
    "toy neuroplug run 0": "1a15b757de70077cad205e825f7dead0",
    "toy neuroplug run 1": "a715b7b3214f97ae4e92067e9a17160a",
    "toy neuroplug run 2": "7bd58813a50e8a92871d2465b1e71514",
    "vgg values": "67660b50330f0600788c82053c2cdca0",
    "vgg layer-divider": "cb5204c209a689d7fe556f3ed661fc9a",
}


def test_pinned_traces():
    # bit-identity gate over every way a trace is built
    got = {name: hashlib.blake2b(tr.arr.tobytes(), digest_size=16).hexdigest()
           for name, tr in pinned_traces()}
    assert got == PINNED_TRACES


def digest_json(record) -> str:
    return hashlib.blake2b(json.dumps(record, sort_keys=True).encode(), digest_size=16).hexdigest()


def run_record(run):
    """What a NeuroPlug run reports besides its trace: pack reports, bins per
    stream and plans."""
    return {"reports": [r.to_json() for r in run.reports],
            "streams": [dataclasses.asdict(s) for s in run.streams],
            "plans": [p.to_json() for p in run.plans]}


PINNED_RUN_RECORDS = {
    "case I run 0": "e2dedc0d0ceab887b1fb7f36a1c700b9",
    "case I run 1": "9cf88007b5f57c915f880b26844b7902",
    "case I run 2": "24904a08285fe12a87585bba9443af9a",
    "case I run 3": "c0b041bd7c21570a1caef5211727dfc9",
    "toy run 0": "083c7ab6f2acc57f2ce4fbb201acd39d",
    "toy run 1": "62a3171e39c47b522f0e43a7f37cac49",
    "toy run 2": "b2e0a7e009905f298e93ee04568358d1",
    "case II run 0": "29ac7abc226c103447afd955a5a8b0d7",
    "case II run 1": "bfcbfcdb9eec364f5a2717f9b9fc77ae",
    "case II run 2": "ba350d02c414bfa0071afff8773f2378",
    "case II run 3": "bea0444b1ae957f63df55598ec1029ba",
    "case III run 0": "edea7337d4c5a32d970255d9a5817e54",
    "case III run 1": "6a5b1d418ab3bf99b02251908d3f4528",
    "case III run 21": "f3b4b5396bb2e30c77475bb31f3e4036",
    "case III run 24": "61d567d21eb72c0a3e69c7cc0737270e",
}


def test_pinned_run_records(case_one_runs, case_two_runs, case_three_runs):
    # bit-identity gate over everything a NeuroPlug run reports next to its trace
    toy = model.load_network("toy-sparse")
    inp = toy_input(toy, 1)
    cache = prepare_neuroplug(toy, inp, model_seed=1)
    runs = {f"toy run {r}": neuroplug_trace(toy, inp, NeuroPlugKey(), r, 1, cache) for r in range(3)}
    runs.update({f"case I run {r}": run for r, run in enumerate(case_one_runs)})
    runs.update({f"case II run {r}": run for r, run in enumerate(case_two_runs)})
    runs.update({f"case III run {r}": run for r, run in zip((0, 1, 21, 24), case_three_runs)})
    got = {name: digest_json(run_record(run)) for name, run in runs.items()}
    assert got == PINNED_RUN_RECORDS


def test_pinned_bin_images():
    # the wire images of one assembled ofmap stream, small bins so that
    # tiles continue across bins
    toy = model.load_network("toy-sparse")
    inp = toy_input(toy, 1)
    cache = prepare_neuroplug(toy, inp, model_seed=1)
    key = np_key()
    bins, _ = binpack.pack_bins(cache.fmap_tiles[0], key.bin_cfg, key.noise,
                                np.random.default_rng([key.seed, 0, 0, 0xB2]), "fmap1")
    assert any(ident & binpack._CONT_BIT for b in bins for ident in b.table["id"])
    images = b"".join(b.to_bytes(key.bin_cfg) for b in bins)
    assert len(bins) == 9
    assert hashlib.blake2b(images, digest_size=16).hexdigest() == "eceb5975777e8f8933489d65fa8085e0"


class TestFindingOne:
    """ROADMAP Finding 1: at the default key every bin closes on kappa, not
    on bytes, so the bin counts follow the tile counts and the data, its
    compression and the keyed noise never move them.

    The expected counts are what a kappa-aware attacker knows without the
    data: kappa is public, and so is each map's chunk count,
    len(chunk_ends(walk)) of its public curve walk.  A map of n chunks
    packs into ceil(n / kappa) bins.

    When the defaults change so that bins close on bytes, invert these
    assertions (the counts then vary with the content); do not delete them.
    """

    @pytest.mark.parametrize("seed", range(3))
    def test_counts_follow_tiles_at_default_key(self, seed):
        net = model.load_network("toy-sparse")
        inp = toy_input(net, seed)
        key = NeuroPlugKey()
        kappa = key.bin_cfg.kappa

        def public_bins(walk):
            return math.ceil(len(tracegen.chunk_ends(walk)) / kappa)

        first = net.layers[0]
        n_in = public_bins(sfc.ifmap_walk(first.shape, first.tiling)[0])
        n_out = [public_bins(sfc.ofmap_walk(layer.shape, layer.tiling)[0]) for layer in net.layers]
        cache = prepare_neuroplug(net, inp, model_seed=seed)
        for r in range(3):
            run = neuroplug_trace(net, inp, key, r, seed, cache)
            assert bins_of(run, 0, "ifmap") == n_in
            for i, plan in enumerate(run.plans):
                assert bins_of(run, i, "ofmap") == n_out[i]
                # Finding 5: one weight tile per output map, so the filter
                # stream counts the output maps of each partition part
                per_copy = sum(math.ceil(part / kappa) for part in plan.ofmap_partition)
                assert bins_of(run, i, "filter") == plan.eta * per_copy


class TestStoredForm:
    """A map is stored once, as its curve image: every walk tile is a slice
    of it, and the NeuroPlug storage chunks are the image cut at
    `chunk_ends`, the same chunks as coalescing the tiles one by one."""

    @settings(max_examples=200)
    @given(k=st.integers(1, 64), p_out=st.integers(1, 16), q_out=st.integers(1, 16),
           pool=st.sampled_from([1, 2, 4]), tk=st.integers(1, 64), th=st.integers(1, 24),
           tw=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    # tiles of exactly CHUNK_TARGET bytes close a chunk each
    @example(k=8, p_out=32, q_out=32, pool=1, tk=8, th=16, tw=16, seed=0)
    # half-target tiles close a chunk on every second tile, and one is left over
    @example(k=8, p_out=16, q_out=40, pool=2, tk=8, th=32, tw=16, seed=0)
    def test_chunks_match_per_tile_coalescing(self, k, p_out, q_out, pool, tk, th, tw, seed):
        shape = LayerShape(k=k, c=1, h=p_out * pool, w=q_out * pool, r=1, s=1, pool=pool)
        walk, _ = sfc.ofmap_walk(shape, TilingSpec(tk=tk, tc=1, th=th, tw=tw))
        tensor = np.random.default_rng(seed).integers(-128, 128, (k, p_out, q_out), dtype=np.int8)
        image = sfc.curve_image(tensor, walk)
        assert image.dtype == np.uint8 and image.size == tensor.size
        for off, (c0, c1, r0, r1, w0, w1), actual in walk:
            np.testing.assert_array_equal(image[off:off + actual],
                                          tensor[c0:c1, r0:r1, w0:w1].reshape(-1).view(np.uint8))
        want = coalesced_raw_chunks(tensor, walk)
        got = tracegen._chunks(tensor, walk)
        assert len(tracegen.chunk_ends(walk)) == len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
