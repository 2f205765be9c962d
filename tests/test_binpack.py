import numpy as np
import pytest

from neuroplug import binpack
from neuroplug.binpack import BinConfig, NoiseSpec
from neuroplug.errors import ConfigError, DomainError, IntegrityError


def no_noise():
    return NoiseSpec(alpha=0, support_r=0, sigma2_max=0, dummy_bytes_first_layer=0)


class TestCompressTile:
    def test_all_zero_tile_tiny(self):
        t = binpack.compress_tile(np.zeros(1024, np.uint8))
        assert t.comp_size <= 16
        np.testing.assert_array_equal(binpack.decompress_tile(t.payload), np.zeros(1024, np.uint8))

    def test_random_bytes_stored_raw(self):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=1024, dtype=np.uint8).astype(np.uint8)
        t = binpack.compress_tile(raw)
        assert t.comp_size == 1025  # stored with a one-byte flag
        np.testing.assert_array_equal(binpack.decompress_tile(t.payload), raw)

    def test_roundtrip_many_random_shapes(self):
        rng = np.random.default_rng(1)
        for trial in range(60):
            n = int(rng.integers(1, 5000))
            zero_frac = rng.uniform(0, 1)
            raw = rng.integers(0, 256, size=n, dtype=np.uint8).astype(np.uint8)
            raw[rng.random(n) < zero_frac] = 0
            t = binpack.compress_tile(raw)
            np.testing.assert_array_equal(binpack.decompress_tile(t.payload), raw)

    def test_sparse_data_compresses_well(self):
        rng = np.random.default_rng(2)
        raw = np.zeros(8192, dtype=np.uint8)
        pos = rng.choice(8192, size=8192 // 10, replace=False)
        raw[pos] = rng.integers(1, 256, size=pos.size, dtype=np.uint8)
        t = binpack.compress_tile(raw)
        assert t.comp_size / t.raw_size < 0.67  # at least the 1.5x end of the band

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            binpack.compress_tile(np.zeros(0, np.uint8))

    def test_single_byte_values(self):
        for val in (0, 1, 255):
            raw = np.full(1, val, dtype=np.uint8)
            t = binpack.compress_tile(raw)
            np.testing.assert_array_equal(binpack.decompress_tile(t.payload), raw)


class TestInjectDummy:
    def test_zero_is_identity(self):
        raw = np.arange(64, dtype=np.uint8)
        out, spans = binpack.inject_dummy(raw, 0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, raw)
        assert spans == ()

    def test_bookkeeping(self):
        raw = np.arange(1024, dtype=np.uint8).astype(np.uint8)
        out, spans = binpack.inject_dummy(raw, 64, np.random.default_rng(1))
        assert out.size == 1088
        assert sum(ln for _, ln in spans) == 64

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            binpack.inject_dummy(np.zeros(8, np.uint8), -1, np.random.default_rng(0))

    def test_strip_roundtrip(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            n = int(rng.integers(1, 2000))
            raw = rng.integers(0, 256, size=n, dtype=np.uint8).astype(np.uint8)
            d = int(rng.integers(0, 200))
            out, spans = binpack.inject_dummy(raw, d, rng)
            np.testing.assert_array_equal(binpack.strip_dummies(out, spans), raw)


def bin_noise(spec, rng, n_bins=100):
    """noise_reserved of n_bins one-entry bins packed by one pack_bins call."""
    tiles = [binpack.CompressedTile(tile_id=i, raw_size=1, comp_size=1, payload=None)
             for i in range(n_bins)]
    bins, _ = binpack.pack_bins(tiles, BinConfig(kappa=1), spec, rng, assemble=False)
    assert len(bins) == n_bins
    return [b.noise_reserved for b in bins]


class TestSampleNoise:
    def test_zero_support_always_alpha(self):
        spec = NoiseSpec(alpha=123, support_r=0, sigma2_max=999)
        assert bin_noise(spec, np.random.default_rng(0)) == [123] * 100

    def test_default_alpha_floor(self):
        spec = NoiseSpec()
        draws = bin_noise(spec, np.random.default_rng(1), n_bins=500)
        assert min(draws) >= 8000
        assert max(draws) <= 8000 + 4096
        assert np.mean(draws) >= 8000

    def test_deterministic_per_seed(self):
        spec = NoiseSpec(alpha=10, support_r=100, sigma2_max=400)
        a = bin_noise(spec, np.random.default_rng(7))
        assert a == bin_noise(spec, np.random.default_rng(7))
        assert a != bin_noise(spec, np.random.default_rng(8))

    def test_stream_blocks_share_variance(self):
        # one variance per call: the per-bin draws replay from a single sigma
        spec = NoiseSpec(alpha=5, support_r=10**9, sigma2_max=10**6)
        ref = np.random.default_rng(3)
        sigma = np.sqrt(ref.uniform(0.0, spec.sigma2_max))
        want = [spec.alpha + int(abs(ref.normal(0.0, sigma))) for _ in range(64)]
        assert bin_noise(spec, np.random.default_rng(3), n_bins=64) == want


class TestPackBins:
    def test_spill_by_table_overhead(self):
        cfg = BinConfig(bin_size=60000, kappa=8)
        tiles = [
            binpack.CompressedTile(tile_id=i, raw_size=20000, comp_size=20000,
                                   payload=np.zeros(20000, np.uint8))
            for i in range(3)
        ]
        bins, report = binpack.pack_bins(tiles, cfg, no_noise(), np.random.default_rng(0))
        assert report.bins_out == 2

    def test_zero_tiles_zero_bins(self):
        bins, report = binpack.pack_bins([], BinConfig(), no_noise(), np.random.default_rng(0))
        assert bins == [] and report.bins_out == 0

    def test_bin_count_grows_with_alpha(self):
        rng_tiles = np.random.default_rng(1)
        tiles = [
            binpack.CompressedTile(tile_id=i, raw_size=3000, comp_size=3000,
                                   payload=rng_tiles.integers(0, 256, 3000).astype(np.uint8))
            for i in range(12)
        ]
        counts = []
        for alpha in (0, 512, 1024, 1536, 2048):
            spec = NoiseSpec(alpha=alpha, support_r=0, sigma2_max=0)
            _, report = binpack.pack_bins(tiles, BinConfig(bin_size=4096), spec,
                                          np.random.default_rng(0))
            counts.append(report.bins_out)
        assert counts == sorted(counts)
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_kappa_opens_new_bin(self):
        cfg = BinConfig(bin_size=4096, kappa=2)
        tiles = [
            binpack.CompressedTile(tile_id=i, raw_size=10, comp_size=10,
                                   payload=np.full(10, i, np.uint8))
            for i in range(5)
        ]
        bins, report = binpack.pack_bins(tiles, cfg, no_noise(), np.random.default_rng(0))
        assert report.bins_out == 3
        assert all(len(b.entries) <= 2 for b in bins)

    def test_wire_image_exact_size_and_parse(self):
        cfg = BinConfig(bin_size=4096)
        rng = np.random.default_rng(3)
        tiles = []
        for i in range(6):
            raw = rng.integers(0, 256, size=int(rng.integers(500, 3000)), dtype=np.uint8).astype(np.uint8)
            raw[rng.random(raw.size) < 0.5] = 0
            tiles.append(binpack.compress_tile(raw, tile_id=i))
        bins, _ = binpack.pack_bins(tiles, cfg, no_noise(), np.random.default_rng(0))
        for b in bins:
            img = b.to_bytes(cfg)
            assert len(img) == 4096
            back = binpack.bin_from_bytes(img, cfg, index=b.index)
            assert [ (e.tile_id, e.offset, e.length, e.continuation) for e in back.entries ] == \
                   [ (e.tile_id, e.offset, e.length, e.continuation) for e in b.entries ]

    def test_wire_table_layout(self):
        # [u16 count][u32 id | bit31 continuation][u16 offset][u16 length] ... payload
        cfg = BinConfig(bin_size=64, kappa=2)
        b = binpack.Bin(index=0, payload=np.arange(1, 6, dtype=np.uint8), empty_pad=0,
                        noise_reserved=0, entries=[binpack.BinEntry(0x0102, 0, 3, False),
                                                   binpack.BinEntry(7, 3, 2, True)])
        img = b.to_bytes(cfg)
        assert img == (bytes([2, 0, 2, 1, 0, 0, 0, 0, 3, 0, 7, 0, 0, 0x80, 3, 0, 2, 0])
                       + bytes(range(1, 6)) + bytes(64 - 23))
        back = binpack.bin_from_bytes(img, cfg)
        assert [(e.tile_id, e.offset, e.length, e.continuation) for e in back.entries] == [
            (0x0102, 0, 3, False), (7, 3, 2, True)]
        assert back.empty_pad == 64 - 18 - 5
        past = bytearray(img)
        past[16] = 64 - 18 - 3 + 1  # entry 1 now ends one byte past the payload area
        with pytest.raises(IntegrityError):
            binpack.bin_from_bytes(bytes(past), cfg)

    def test_accounting_exact(self):
        cfg = BinConfig(bin_size=4096)
        rng = np.random.default_rng(4)
        tiles = [
            binpack.compress_tile(rng.integers(0, 50, size=2048, dtype=np.uint8).astype(np.uint8), tile_id=i)
            for i in range(8)
        ]
        spec = NoiseSpec(alpha=100, support_r=200, sigma2_max=10000)
        bins, report = binpack.pack_bins(tiles, cfg, spec, np.random.default_rng(1))
        for b in bins:
            seg = sum(e.length for e in b.entries)
            assert b.table_bytes() + seg + b.empty_pad == cfg.bin_size
            assert b.empty_pad >= b.noise_reserved
        assert report.comp_total == sum(t.comp_size for t in tiles)
        assert report.beta == report.comp_total / report.raw_total
        # observed bins never undercut the compressed volume
        assert report.bins_out >= -(-report.comp_total // cfg.bin_size)

    def test_noise_floor_must_fit_bin(self):
        # the default floor (alpha = 8000) does not fit a 2048 B bin
        tiles = [binpack.CompressedTile(0, 10, 10, np.zeros(10, np.uint8))]
        with pytest.raises(ConfigError):
            binpack.pack_bins(tiles, BinConfig(bin_size=2048), NoiseSpec(), np.random.default_rng(0))
        # the largest floor that leaves one entry and one payload byte is accepted
        room = 2048 - 2 - binpack.TABLE_ENTRY_BYTES - 1
        bins, _ = binpack.pack_bins(tiles, BinConfig(bin_size=2048),
                                    NoiseSpec(alpha=room, support_r=0), np.random.default_rng(0))
        assert len(bins) == 10 and all(b.noise_reserved == room for b in bins)

    def test_tile_without_payload_not_assembled(self):
        cfg = BinConfig(bin_size=4096)
        for payload in (None, np.zeros(9, np.uint8)):  # size-only, and short
            tiles = [binpack.CompressedTile(0, 10, 10, payload)]
            with pytest.raises(IntegrityError):
                binpack.pack_bins(tiles, cfg, no_noise(), np.random.default_rng(0))
            bins, _ = binpack.pack_bins(tiles, cfg, no_noise(), np.random.default_rng(0),
                                        assemble=False)
            assert [e.length for e in bins[0].entries] == [10]

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            binpack.pack_bins(
                [binpack.CompressedTile(0, 10, 10, np.zeros(10, np.uint8))],
                BinConfig(bin_size=60, kappa=8), no_noise(), np.random.default_rng(0),
            )


class TestUnpackBins:
    def _pipeline(self, raws, cfg=None, noise=None, seed=0, dummies=None):
        cfg = cfg or BinConfig(bin_size=4096)
        noise = noise or no_noise()
        rng = np.random.default_rng([seed, 1])
        tiles = []
        for i, raw in enumerate(raws):
            spans = ()
            data = raw
            if dummies:
                data, spans = binpack.inject_dummy(raw, dummies, rng)
            tiles.append(binpack.compress_tile(data, tile_id=i, dummy_spans=spans))
        bins, _ = binpack.pack_bins(tiles, cfg, noise, np.random.default_rng([seed, 2]))
        return bins

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(5)
        raws = []
        for i in range(10):
            raw = rng.integers(0, 256, size=int(rng.integers(100, 5000)), dtype=np.uint8).astype(np.uint8)
            raw[rng.random(raw.size) < 0.6] = 0
            raws.append(raw)
        got = binpack.unpack_bins(self._pipeline(raws))
        assert len(got) == len(raws)
        for a, b in zip(got, raws):
            np.testing.assert_array_equal(a, b)

    def test_roundtrip_tile_spanning_three_bins(self):
        rng = np.random.default_rng(6)
        big = rng.integers(0, 256, size=10000, dtype=np.uint8).astype(np.uint8)  # incompressible
        bins = self._pipeline([big], cfg=BinConfig(bin_size=4096))
        assert len(bins) >= 3
        got = binpack.unpack_bins(bins)
        np.testing.assert_array_equal(got[0], big)

    def test_roundtrip_with_dummies_stripped(self):
        rng = np.random.default_rng(7)
        raws = [rng.integers(0, 100, size=1500, dtype=np.uint8).astype(np.uint8) for _ in range(4)]
        bins = self._pipeline(raws, dummies=64)
        got = binpack.unpack_bins(bins)
        for a, b in zip(got, raws):
            np.testing.assert_array_equal(a, b)

    def test_lossless_pipeline_many_sets(self):
        # pipeline identity over many random tile sets (scaled-down here;
        # the acceptance suite runs the full thousand)
        rng = np.random.default_rng(8)
        for trial in range(40):
            raws = []
            for i in range(int(rng.integers(1, 6))):
                n = int(rng.integers(1, 3000))
                raw = rng.integers(0, 256, size=n, dtype=np.uint8).astype(np.uint8)
                raw[rng.random(n) < rng.uniform(0, 0.9)] = 0
                raws.append(raw)
            got = binpack.unpack_bins(self._pipeline(raws, seed=trial))
            for a, b in zip(got, raws):
                np.testing.assert_array_equal(a, b)

    def test_corrupt_table_detected(self):
        rng = np.random.default_rng(9)
        raw = rng.integers(0, 256, size=3000, dtype=np.uint8).astype(np.uint8)
        cfg = BinConfig(bin_size=4096)
        bins = self._pipeline([raw], cfg=cfg)
        img = bytearray(bins[0].to_bytes(cfg))
        img[0] = 0xFF  # implausible entry count
        img[1] = 0xFF
        with pytest.raises(IntegrityError):
            binpack.bin_from_bytes(bytes(img), cfg)
