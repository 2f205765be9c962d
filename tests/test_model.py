import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neuroplug import _kernels, model, sfc
from neuroplug.errors import ConfigError, DomainError, ShapeError

from oracles import (
    conv_brute,
    generate_weights_lexsort,
    maxpool_brute,
    network_to_json,
    nsqf_mask_modulo,
    nsqf_sieve,
)


def small_layer(**kw):
    base = dict(k=2, c=3, h=8, w=8, r=3, s=3, stride=1, pad=1, pool=1)
    base.update(kw)
    return model.LayerShape(**base)


class TestConvForward:
    def test_zero_ifmap_gives_zero_ofmap(self):
        layer = small_layer()
        rng = np.random.default_rng(0)
        w = rng.integers(-64, 64, size=(2, 3, 3, 3), dtype=np.int8)
        out = model.conv_forward(layer, np.zeros((3, 8, 8), np.int8), w)
        assert out.shape == (2, 8, 8)
        assert not out.any()

    def test_center_impulse_ones_filter(self):
        # single 1 in the middle, 3x3 filter of ones, pad 1: every output in
        # reach of the impulse counts it exactly once
        layer = small_layer(k=1, c=1, h=3, w=3)
        ifmap = np.zeros((1, 3, 3), np.int8)
        ifmap[0, 1, 1] = 1
        w = np.ones((1, 1, 3, 3), np.int8)
        acc = model.conv_accumulate(layer, ifmap, w)
        assert acc.tolist() == [[[1, 1, 1], [1, 1, 1], [1, 1, 1]]]

    def test_ones_image_gives_overlap_counts(self):
        layer = small_layer(k=1, c=1, h=3, w=3)
        ifmap = np.ones((1, 3, 3), np.int8)
        w = np.ones((1, 1, 3, 3), np.int8)
        acc = model.conv_accumulate(layer, ifmap, w)
        assert acc.tolist() == [[[4, 6, 4], [6, 9, 6], [4, 6, 4]]]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for stride, pad in [(1, 1), (1, 0), (2, 1), (2, 0)]:
            layer = small_layer(k=3, c=2, h=9, w=9, stride=stride, pad=pad)
            ifmap = rng.integers(-128, 128, size=(2, 9, 9), dtype=np.int8)
            w = rng.integers(-128, 128, size=(3, 2, 3, 3), dtype=np.int8)
            w[0] = -128  # -128 * -128 products over a -128 corner of the input
            ifmap[:, :4, :4] = -128
            got = model.conv_accumulate(layer, ifmap, w)
            want = conv_brute(ifmap, w, stride, pad)
            np.testing.assert_array_equal(got.astype(np.int64), want)
        # the largest accumulator the int8 range allows, C*R*S*2**14
        layer = small_layer(k=1, c=2, h=9, w=9, stride=2, pad=0)
        extreme = np.full((2, 9, 9), -128, np.int8)
        got = model.conv_accumulate(layer, extreme, np.full((1, 2, 3, 3), -128, np.int8))
        assert (got == 2 * 3 * 3 * 2**14).all()

    def test_one_row_bands_match_brute_force(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_IM2COL_ELEMS", 1)  # one GEMM per output row
        rng = np.random.default_rng(8)
        for stride, pad in [(1, 1), (2, 0)]:
            layer = small_layer(k=3, c=2, h=9, w=9, stride=stride, pad=pad)
            # a band holds at least the weight matrix's K*C*R*S elements;
            # fewer filters than output columns keep that below one row
            assert layer.k < layer.q
            ifmap = rng.integers(-128, 128, size=(2, 9, 9), dtype=np.int8)
            w = rng.integers(-128, 128, size=(3, 2, 3, 3), dtype=np.int8)
            got = model.conv_accumulate(layer, ifmap, w)
            np.testing.assert_array_equal(got.astype(np.int64), conv_brute(ifmap, w, stride, pad))

    def test_weight_matrix_wider_than_im2col(self, monkeypatch):
        # more filters than output positions: the band sized by the weight
        # matrix covers every output row, and more, in one GEMM
        monkeypatch.setattr(_kernels, "_IM2COL_ELEMS", 1)
        rng = np.random.default_rng(9)
        for h, stride, pad in [(5, 1, 1), (7, 2, 0)]:
            layer = small_layer(k=40, c=2, h=h, w=h, stride=stride, pad=pad)
            assert layer.k > layer.p * layer.q
            ifmap = rng.integers(-128, 128, size=(2, h, h), dtype=np.int8)
            w = rng.integers(-128, 128, size=(40, 2, 3, 3), dtype=np.int8)
            got = model.conv_accumulate(layer, ifmap, w)
            np.testing.assert_array_equal(got.astype(np.int64), conv_brute(ifmap, w, stride, pad))

    def test_slices_sum_past_float32_exactly(self):
        # 129*3*3 = 1161 terms: 1161 * 127 * 127 = 18,725,769 is odd and above
        # 2**24, where float32 holds only even integers, so one float32 GEMM
        # over every term, or slices summed in float32, would round it
        layer = small_layer(k=2, c=129, h=4, w=4, pad=0)
        w = np.stack([np.full((129, 3, 3), 127, np.int8), np.full((129, 3, 3), -128, np.int8)])
        acc = model.conv_accumulate(layer, np.full((129, 4, 4), 127, np.int8), w)
        assert acc[0].tolist() == [[18_725_769] * 2] * 2
        assert acc[1].tolist() == [[-1161 * 127 * 128] * 2] * 2

    @pytest.mark.parametrize("one_row_bands", [False, True])
    @pytest.mark.parametrize("terms", [1, 5, 7])
    def test_narrow_slices_match_brute_force(self, monkeypatch, terms, one_row_bands):
        # 2*3*3 = 18 terms: slices of 5 and 7 leave remainders of 3 and 4
        monkeypatch.setattr(_kernels, "_SLICE_TERMS", terms)
        if one_row_bands:
            monkeypatch.setattr(_kernels, "_IM2COL_ELEMS", 1)
        rng = np.random.default_rng(terms)
        for stride, pad in [(1, 1), (2, 0)]:
            layer = small_layer(k=3, c=2, h=9, w=9, stride=stride, pad=pad)
            ifmap = rng.integers(-128, 128, size=(2, 9, 9), dtype=np.int8)
            w = rng.integers(-128, 128, size=(3, 2, 3, 3), dtype=np.int8)
            w[0] = -128
            ifmap[:, :4, :4] = -128
            got = model.conv_accumulate(layer, ifmap, w)
            np.testing.assert_array_equal(got.astype(np.int64), conv_brute(ifmap, w, stride, pad))

    def test_int32_accumulator_bound(self):
        # 2**17 products of (-128)**2 sum to 2**31, one past the int32 range
        layer = small_layer(k=1, c=2**15, h=2, w=2, r=2, s=2, pad=0)
        extreme = np.full((1, 2**15, 2, 2), -128, np.int8)
        with pytest.raises(ShapeError, match="below 2\\*\\*17"):
            model.conv_accumulate(layer, extreme[0], extreme)
        # one channel fewer is the largest layer allowed, summed over 128 slices
        layer = small_layer(k=1, c=2**15 - 1, h=2, w=2, r=2, s=2, pad=0)
        acc = model.conv_accumulate(layer, extreme[0, 1:], extreme[:, 1:])
        assert acc.tolist() == [[[(2**17 - 4) * 2**14]]]

    @pytest.mark.parametrize("ifmap, w", [
        (np.full((1, 3, 3), 200, np.int64), np.ones((1, 1, 3, 3), np.int8)),  # cast, gives -504
        (np.full((1, 3, 3), 1.5), np.ones((1, 1, 3, 3), np.int8)),  # cast, gives 9
        (np.ones((1, 3, 3), np.int8), np.ones((1, 1, 3, 3), np.int16)),
    ])
    def test_rejects_operands_that_are_not_int8(self, ifmap, w):
        with pytest.raises(ShapeError, match="must be int8"):
            model.conv_accumulate(small_layer(k=1, c=1, h=3, w=3, pad=0), ifmap, w)

    def test_linear_before_relu(self):
        layer = small_layer(k=2, c=2, h=6, w=6)
        rng = np.random.default_rng(3)
        w = rng.integers(-16, 16, size=(2, 2, 3, 3), dtype=np.int8)
        for trial in range(10):
            a = rng.integers(-20, 20, size=(2, 6, 6), dtype=np.int8)
            b = rng.integers(-20, 20, size=(2, 6, 6), dtype=np.int8)
            lhs = model.conv_accumulate(layer, (a + b).astype(np.int8), w)
            rhs = model.conv_accumulate(layer, a, w) + model.conv_accumulate(layer, b, w)
            np.testing.assert_array_equal(lhs, rhs)

    def test_impulse_nnz_bounded_by_filter_area(self):
        # pre-ReLU response of a single impulse touches at most r*s outputs,
        # exactly r*s away from the boundary
        layer = small_layer(k=1, c=1, h=8, w=8)
        w = np.ones((1, 1, 3, 3), np.int8)
        for row in range(8):
            for col in range(8):
                ifmap = np.zeros((1, 8, 8), np.int8)
                ifmap[0, row, col] = 1
                acc = model.conv_accumulate(layer, ifmap, w)
                nnz = int(np.count_nonzero(acc))
                assert nnz <= 9
                interior = 1 <= row <= 6 and 1 <= col <= 6
                if interior:
                    assert nnz == 9

    def test_boundary_effect_corner_vs_midrow(self):
        layer = small_layer(k=1, c=1, h=64, w=64)
        w = np.ones((1, 1, 3, 3), np.int8)
        corner = np.zeros((1, 64, 64), np.int8)
        corner[0, 0, 0] = 1
        mid = np.zeros((1, 64, 64), np.int8)
        mid[0, 0, 32] = 1
        nnz_corner = np.count_nonzero(model.conv_forward(layer, corner, w))
        nnz_mid = np.count_nonzero(model.conv_forward(layer, mid, w))
        assert nnz_corner < nnz_mid

    def test_pooling_matches_brute(self):
        layer = small_layer(k=2, c=2, h=8, w=8, pool=2)
        rng = np.random.default_rng(11)
        ifmap = rng.integers(-32, 32, size=(2, 8, 8), dtype=np.int8)
        w = rng.integers(-8, 8, size=(2, 2, 3, 3), dtype=np.int8)
        out = model.conv_forward(layer, ifmap, w)
        acc = conv_brute(ifmap, w, 1, 1)
        acc = np.maximum(acc, 0)
        want = maxpool_brute(acc, 2)
        peak = int(want.max(initial=0))
        shift = 0
        while (peak >> shift) > 127:
            shift += 1
        np.testing.assert_array_equal(out.astype(np.int64), want >> shift)
        assert out.shape == (2, 4, 4)

    @pytest.mark.parametrize("pool", [2, 3])
    def test_maxpool_matches_brute(self, pool):
        # negative values and both int32 extremes, which conv_forward's
        # ReLU never hands the kernel
        rng = np.random.default_rng(pool)
        acc = rng.integers(-2**31, 2**31, size=(3, 4 * pool, 2 * pool), dtype=np.int32)
        acc[0, :2, :2] = [[-2**31, 2**31 - 1], [0, -1]]
        acc[1] = -2**31
        out = _kernels.maxpool2d(acc, pool)
        assert out.dtype == np.int32 and out.shape == (3, 4, 2)
        np.testing.assert_array_equal(out, maxpool_brute(acc, pool))

    def test_shape_errors(self):
        layer = small_layer()
        w = np.zeros((2, 3, 3, 3), np.int8)
        with pytest.raises(ShapeError):
            model.conv_forward(layer, np.zeros((2, 8, 8), np.int8), w)
        with pytest.raises(ShapeError):
            model.conv_forward(layer, np.zeros((3, 8, 8), np.int8), np.zeros((2, 3, 3, 5), np.int8))


class TestGenerateWeights:
    def _net(self, sparsity):
        shape = small_layer(k=10, c=10, h=10, w=10)
        return model.NetworkSpec(
            layers=[model.Layer(shape=shape, tiling=model.auto_tile(shape), sparsity=sparsity)]
        )

    def test_zero_sparsity_forces_nothing(self):
        w0 = model.generate_weights(self._net(0.0), seed=1)[0]
        # natural zeros from the uniform draw are fine; just check the count
        # is far below any forced-pruning level
        assert np.count_nonzero(w0 == 0) < w0.size * 0.05

    def test_sparsity_hits_target(self):
        w = model.generate_weights(self._net(0.9), seed=1)[0]
        n_zero = int(np.count_nonzero(w == 0))
        assert abs(n_zero - round(0.9 * w.size)) <= 0.01 * w.size

    def test_deterministic(self):
        a = model.generate_weights(self._net(0.5), seed=42)[0]
        b = model.generate_weights(self._net(0.5), seed=42)[0]
        np.testing.assert_array_equal(a, b)
        c = model.generate_weights(self._net(0.5), seed=43)[0]
        assert (a != c).any()

    def test_ties_resolve_by_element_order(self):
        """The docstring's rule, read off the result: below the threshold
        magnitude v everything is zero, above it nothing is pruned, and of
        the weights at v exactly the first ones in element order are."""
        dense = model.generate_weights(self._net(0.0), seed=1)[0].reshape(-1)
        w = model.generate_weights(self._net(0.5), seed=1)[0].reshape(-1)
        n_zero = round(0.5 * w.size)
        assert np.array_equal(w[w != 0], dense[w != 0])
        mag = np.abs(dense)
        zero = w == 0
        v = mag[zero].max()
        assert zero[mag < v].all() and not zero[mag > v].any()
        at_v = zero[mag == v]
        n_tied = int(at_v.sum())
        assert 0 < n_tied < at_v.size  # the group at v is split
        assert at_v[:n_tied].all() and not at_v[n_tied:].any()
        assert np.count_nonzero(zero) == n_zero

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 6), st.integers(1, 6), st.integers(1, 3),
                st.one_of(
                    st.sampled_from([0.0, 1e-9, 0.5, 0.999999, 1.0]),
                    st.floats(0, 1),
                    # n_zero beside count(|w| <= v), so the cut falls on or
                    # next to the end of the group tied at v
                    st.tuples(st.integers(0, 64), st.integers(-1, 1)),
                ),
            ),
            min_size=1, max_size=3,
        ),
        st.integers(0, 2**32 - 1),
    )
    @example(specs=[(1, 1, 1, 0.5)], seed=0)
    @example(specs=[(1, 1, 1, 1.0), (1, 1, 1, 0.0)], seed=3)
    def test_matches_lexsort(self, specs, seed):
        def net(sparsities):
            return model.NetworkSpec(layers=[
                model.Layer(shape=small_layer(k=k, c=c, h=r, w=r, r=r, s=r, pad=0),
                            tiling=model.TilingSpec(1, 1, 1, 1), sparsity=sp)
                for (k, c, r, _), sp in zip(specs, sparsities)])

        dense = model.generate_weights(net([0.0] * len(specs)), seed)
        sparsities = []
        for (*_, target), w in zip(specs, dense):
            if isinstance(target, tuple):
                v, delta = target
                n_zero = np.count_nonzero(np.abs(w) <= v) + delta
                target = min(max(n_zero, 0), w.size) / w.size
            sparsities.append(target)
        pruned = net(sparsities)
        got = model.generate_weights(pruned, seed)
        want = generate_weights_lexsort(pruned, seed)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    @pytest.mark.parametrize("name", ["vgg16-32", "toy-sparse"])
    @pytest.mark.parametrize("seed", range(4))
    def test_bundled_nets_match_lexsort(self, name, seed):
        net = model.load_network(name)
        got = model.generate_weights(net, seed)
        want = generate_weights_lexsort(net, seed)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    def test_pruning_memory_near_one_layer(self):
        """Pruning needs a few bytes per weight of the layer it prunes, not a
        full sort's index arrays (numpy reports its buffers to tracemalloc)."""
        net = model.load_network("vgg16-32")
        largest = max(layer.shape.k * layer.shape.c * layer.shape.r * layer.shape.s
                      for layer in net.layers)
        tracemalloc.start()
        try:
            weights = model.generate_weights(net, 1)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained >= sum(w.nbytes for w in weights)
        assert peak - retained <= 4 * largest


class TestGenerateInput:
    @pytest.mark.parametrize("policy", ["natural", "sparse"])
    @pytest.mark.parametrize("h, w", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 5), (2, 4)])
    def test_maps_narrower_than_the_smoothing(self, h, w, policy):
        shape = small_layer(k=1, c=2, h=h, w=w, r=1, s=1, pad=0)
        values = model.generate_input(shape, 1, policy).values
        assert values.shape == (2, h, w)
        assert values.min() >= 0 and values.any()
        out = model.conv_forward(shape, values, np.ones((1, 2, 1, 1), dtype=np.int8))
        assert out.shape == (1, h, w)


def nsqf_values(lo, hi):
    """Ascending NSQF integers of [lo, hi], read off model.nsqf_mask."""
    return (np.flatnonzero(model.nsqf_mask(lo, hi)) + lo).tolist()


class TestNsqf:
    def test_known_values(self):
        assert model.nsqf_mask(12, 12).tolist() == [1]
        assert model.nsqf_mask(30, 30).tolist() == [0]
        assert model.nsqf_mask(150528, 150528).tolist() == [1]  # 2^9 * 3 * 7^2
        assert model.nsqf_mask(1, 1).tolist() == [0]

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            model.nsqf_mask(0, 0)

    def test_range_8_12(self):
        assert nsqf_values(8, 12) == [8, 9, 12]

    def test_primes_squarefree(self):
        assert nsqf_values(2, 3) == []

    def test_empty_on_reversed_bounds(self):
        assert nsqf_values(12, 8) == []

    def test_sieve_agreement_small(self):
        sieve = nsqf_sieve(20000)
        got = model.nsqf_mask(1, 20000)
        np.testing.assert_array_equal(got.astype(bool), sieve[1:])

    def test_count_1_to_100(self):
        sieve = nsqf_sieve(100)
        assert len(nsqf_values(1, 100)) == int(sieve[1:].sum())

    @settings(max_examples=150)
    @given(lo=st.integers(1, 5_000), width=st.integers(0, 20_000))
    def test_matches_oracles(self, lo, width):
        hi = lo + width
        got = model.nsqf_mask(lo, hi)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, nsqf_mask_modulo(lo, hi))
        np.testing.assert_array_equal(got, nsqf_sieve(hi)[lo:].astype(np.uint8))

    @pytest.mark.parametrize("n", [1, 4, 9, 25, 48, 49, 50, 1009 * 1009, 1009 * 1013])
    def test_single_integer(self, n):
        # 1009**2 is NSQF only through its own root, isqrt(hi) itself
        np.testing.assert_array_equal(model.nsqf_mask(n, n), nsqf_sieve(n)[n:].astype(np.uint8))

    @pytest.mark.parametrize("p", [2, 3, 7, 31, 1009])
    @pytest.mark.parametrize("offset", [-1, 1])
    def test_range_starting_beside_prime_square(self, p, offset):
        lo = p * p + offset
        hi = lo + 5_000
        np.testing.assert_array_equal(model.nsqf_mask(lo, hi), nsqf_mask_modulo(lo, hi))

    def test_benchmark_range(self):
        # the candidate range of a one-bin (61,440 B) observation
        np.testing.assert_array_equal(model.nsqf_mask(11_520, 2_457_600),
                                      nsqf_sieve(2_457_600)[11_520:].astype(np.uint8))


class TestValidation:
    """Each validation raises its NeuroPlugError subclass."""

    @pytest.mark.parametrize("edit, match", [
        (dict(k=0), "field k must be >= 1"),
        (dict(stride=0), "field stride must be >= 1"),
        (dict(pool=0), "field pool must be >= 1"),
        (dict(pad=-1), "pad must be >= 0"),
        (dict(h=2, w=2, pad=0), "filter larger"),
        (dict(pool=3), "pool 3 must divide output dims 8x8"),
        (dict(c=2**15, r=2, s=2), "c\\*r\\*s = 131072 overflows int32"),
    ])
    def test_layer_shape(self, edit, match):
        with pytest.raises(ShapeError, match=match):
            small_layer(**edit).validate()

    @pytest.mark.parametrize("field, top", [("tk", 2), ("tc", 3), ("th", 8), ("tw", 8)])
    def test_tiling_outside_the_layer(self, field, top):
        layer = small_layer()
        for value in (0, top + 1):
            tiling = model.TilingSpec(**{**dict(tk=1, tc=1, th=1, tw=1), field: value})
            with pytest.raises(ShapeError, match=f"{field}={value} outside"):
                tiling.validate(layer)
        model.TilingSpec(**{**dict(tk=1, tc=1, th=1, tw=1), field: top}).validate(layer)

    def test_network_without_layers(self):
        with pytest.raises(ConfigError, match="no layers"):
            model.NetworkSpec(layers=[]).validate()

    @pytest.mark.parametrize("sparsity", [-0.1, 1.0])
    def test_sparsity_outside_unit_interval(self, sparsity):
        net = model.load_network("toy-sparse")
        net.layers[2] = dataclasses.replace(net.layers[2], sparsity=sparsity)
        with pytest.raises(ConfigError, match="layer 2: sparsity"):
            net.validate()

    def test_input_size_differs_from_previous_output(self):
        net = model.load_network("toy-sparse")
        layer = net.layers[1]
        shape = dataclasses.replace(layer.shape, h=layer.shape.h + 2, w=layer.shape.w + 2)
        net.layers[1] = dataclasses.replace(layer, shape=shape)
        with pytest.raises(ConfigError, match="layer 1: input"):
            net.validate()

    @pytest.mark.parametrize("values, match", [(np.zeros((2, 2), np.int8), "3 dims"),
                                               (np.zeros((1, 2, 2), np.int16), "int8")])
    def test_tensor3d(self, values, match):
        with pytest.raises(ShapeError, match=match):
            model.Tensor3D(values)


class TestVolumesAndConfigs:
    def test_unit_volume(self):
        assert sfc.ifmap_bytes(model.LayerShape(k=1, c=1, h=1, w=1, r=1, s=1)) == 1

    def test_vgg16_head_layer1(self):
        net = model.load_network("vgg16-head")
        assert sfc.ifmap_bytes(net.layers[0].shape) == 150528
        assert sfc.ifmap_bytes(net.layers[2].shape) == 802816

    def test_bundled_configs_validate(self):
        for name in ("vgg16-32", "toy-sparse", "vgg16-head"):
            net = model.load_network(name)
            net.validate()

    def test_roundtrip_json(self):
        net = model.load_network("toy-sparse")
        doc = network_to_json(net)
        again = model.network_from_json(doc)
        assert again == net

    def test_dimension_mismatch_rejected(self):
        doc = network_to_json(model.load_network("toy-sparse"))
        doc["layers"][1]["c"] = 32
        with pytest.raises(ConfigError):
            model.network_from_json(doc)

    @pytest.mark.parametrize("where, key", [("layer", "strdie"), ("layer", "bytes_per_elem"),
                                            ("tiling", "tz")])
    def test_unknown_key_rejected(self, where, key):
        doc = network_to_json(model.load_network("toy-sparse"))
        target = doc["layers"][2] if where == "layer" else doc["layers"][2]["tiling"]
        target[key] = 2
        with pytest.raises(ConfigError, match=key):
            model.network_from_json(doc)

    @pytest.mark.parametrize("edit, match", [
        (lambda d: d["layers"][2]["tiling"].update(tk="8"), "'tk' must be an integer"),
        (lambda d: d["layers"][0].update(k="8"), "'k' must be an integer"),
        (lambda d: d["layers"][0].update(k=8.5), "'k' must be an integer"),
        (lambda d: d["layers"][1].update(pad=True), "'pad' must be an integer"),
        (lambda d: d["layers"][1].update(sparsity="0.5"), "'sparsity' must be a number"),
        (lambda d: d["layers"][1].update(tiling=[]), "tiling must be an object"),
        (lambda d: d["layers"].append([1, 2]), "layer must be an object"),
        (lambda d: d.update(layers=d["layers"][0]), "layers must be a list"),
        (lambda d: d.update(name=5), "name must be a string"),
        (lambda d: d.update(skps=[[0, 2]]), "unknown network key 'skps'"),
        # the nets are chains: layer i alone reads fmap i
        (lambda d: d.update(skips=[[0, 2]]), "unknown network key 'skips'"),
    ], ids=["tiling-str", "shape-str", "shape-float", "shape-bool", "sparsity-str",
            "tiling-list", "layer-list", "layers-object", "name-int", "network-key",
            "skips-key"])
    def test_value_types_checked(self, edit, match):
        doc = network_to_json(model.load_network("toy-sparse"))
        edit(doc)
        with pytest.raises(ConfigError, match=match):
            model.network_from_json(doc)

    def test_layer_missing_field_rejected(self):
        doc = network_to_json(model.load_network("toy-sparse"))
        del doc["layers"][1]["k"]
        with pytest.raises(ConfigError, match="missing field 'k'"):
            model.network_from_json(doc)

    def test_layer_without_tiling_is_auto_tiled(self):
        doc = network_to_json(model.load_network("vgg16-32"))
        for layer in doc["layers"]:
            del layer["tiling"]
        net = model.network_from_json(doc)
        assert [layer.tiling for layer in net.layers] == [
            model.auto_tile(layer.shape) for layer in net.layers]
        assert net.layers != model.load_network("vgg16-32").layers

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot load network config"):
            model.load_network(str(tmp_path / "absent.json"))

    def test_unknown_input_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown input policy"):
            model.generate_input(small_layer(), 0, "uniform")
