import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuroplug import binpack
from neuroplug.binpack import BinConfig, NoiseSpec
from neuroplug.errors import ConfigError, DomainError, IntegrityError, NeuroPlugError

from oracles import pack_bins_loop, strip_dummies


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
        with pytest.raises(AttributeError):  # the size is the payload's
            t.comp_size = 1024
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
            np.testing.assert_array_equal(strip_dummies(out, spans), raw)


def bin_noise(spec, rng, n_bins=100):
    """noise_reserved of n_bins one-entry bins packed by one pack_bins call."""
    tiles = [binpack.CompressedTile(raw_size=1, payload=np.zeros(1, np.uint8))
             for _ in range(n_bins)]
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
            binpack.CompressedTile(raw_size=20000, payload=np.zeros(20000, np.uint8))
            for _ in range(3)
        ]
        bins, report = binpack.pack_bins(tiles, cfg, no_noise(), np.random.default_rng(0))
        assert report.bins_out == 2

    def test_zero_tiles_zero_bins(self):
        bins, report = binpack.pack_bins([], BinConfig(), no_noise(), np.random.default_rng(0))
        assert bins == [] and report.bins_out == 0

    def test_tile_without_payload_rejected(self):
        # no bin could hold a segment of it: pack_bins would count it in
        # tiles_in and unpack_bins would lose it
        with pytest.raises(DomainError):
            binpack.CompressedTile(raw_size=4, payload=np.zeros(0, np.uint8))

    def test_bin_count_grows_with_alpha(self):
        rng_tiles = np.random.default_rng(1)
        tiles = [
            binpack.CompressedTile(raw_size=3000,
                                   payload=rng_tiles.integers(0, 256, 3000).astype(np.uint8))
            for _ in range(12)
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
            binpack.CompressedTile(raw_size=10, payload=np.full(10, i, np.uint8))
            for i in range(5)
        ]
        bins, report = binpack.pack_bins(tiles, cfg, no_noise(), np.random.default_rng(0))
        assert report.bins_out == 3
        assert all(len(b.table) <= 2 for b in bins)

    def test_wire_image_exact_size_and_parse(self):
        cfg = BinConfig(bin_size=4096)
        rng = np.random.default_rng(3)
        tiles = []
        for _ in range(6):
            raw = rng.integers(0, 256, size=int(rng.integers(500, 3000)), dtype=np.uint8).astype(np.uint8)
            raw[rng.random(raw.size) < 0.5] = 0
            tiles.append(binpack.compress_tile(raw))
        bins, _ = binpack.pack_bins(tiles, cfg, no_noise(), np.random.default_rng(0))
        for b in bins:
            img = b.to_bytes(cfg)
            assert len(img) == 4096
            back = binpack.bin_from_bytes(img, cfg, index=b.index)
            assert back.table.dtype == b.table.dtype == binpack._TABLE_ENTRY
            assert back.table.tobytes() == b.table.tobytes()

    def test_wire_table_layout(self):
        # [u16 count][u32 id | bit31 continuation][u16 offset][u16 length] ... payload
        cfg = BinConfig(bin_size=64, kappa=2)
        table = np.array([(7 | binpack._CONT_BIT, 0, 2), (8, 2, 3)], dtype=binpack._TABLE_ENTRY)
        b = binpack.Bin(index=0, payload=np.arange(1, 6, dtype=np.uint8), empty_pad=0,
                        noise_reserved=0, table=table)
        img = b.to_bytes(cfg)
        assert img == (bytes([2, 0, 7, 0, 0, 0x80, 0, 0, 2, 0, 8, 0, 0, 0, 2, 0, 3, 0])
                       + bytes(range(1, 6)) + bytes(64 - 23))
        back = binpack.bin_from_bytes(img, cfg)
        assert back.table.tolist() == [(7 | binpack._CONT_BIT, 0, 2), (8, 2, 3)]
        assert back.empty_pad == 64 - 18 - 5
        past = bytearray(img)
        past[16] = 64 - 18 - 2 + 1  # entry 1 now ends one byte past the payload area
        with pytest.raises(IntegrityError):
            binpack.bin_from_bytes(bytes(past), cfg)

    def test_accounting_exact(self):
        cfg = BinConfig(bin_size=4096)
        rng = np.random.default_rng(4)
        tiles = [
            binpack.compress_tile(rng.integers(0, 50, size=2048, dtype=np.uint8).astype(np.uint8))
            for _ in range(8)
        ]
        spec = NoiseSpec(alpha=100, support_r=200, sigma2_max=10000)
        bins, report = binpack.pack_bins(tiles, cfg, spec, np.random.default_rng(1))
        for b in bins:
            seg = int(b.table["length"].sum())
            assert binpack.table_bytes(len(b.table)) + seg + b.empty_pad == cfg.bin_size
            assert b.empty_pad >= b.noise_reserved
        assert report.comp_total == sum(t.comp_size for t in tiles)
        assert report.beta == report.comp_total / report.raw_total
        # observed bins never undercut the compressed volume
        assert report.bins_out >= -(-report.comp_total // cfg.bin_size)

    def test_noise_floor_must_fit_bin(self):
        # the default floor (alpha = 8000) does not fit a 2048 B bin
        tiles = [binpack.CompressedTile(10, np.zeros(10, np.uint8))]
        with pytest.raises(ConfigError):
            binpack.pack_bins(tiles, BinConfig(bin_size=2048), NoiseSpec(), np.random.default_rng(0))
        # the largest floor that leaves one entry and one payload byte is accepted
        room = 2048 - 2 - binpack.TABLE_ENTRY_BYTES - 1
        bins, _ = binpack.pack_bins(tiles, BinConfig(bin_size=2048),
                                    NoiseSpec(alpha=room, support_r=0), np.random.default_rng(0))
        assert len(bins) == 10 and all(b.noise_reserved == room for b in bins)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            binpack.pack_bins(
                [binpack.CompressedTile(10, np.zeros(10, np.uint8))],
                BinConfig(bin_size=60, kappa=8), no_noise(), np.random.default_rng(0),
            )

    @pytest.mark.parametrize("cfg, match", [(BinConfig(kappa=0), "kappa"),
                                            (BinConfig(bin_size=0x10000), "16-bit")])
    def test_bin_config_validation(self, cfg, match):
        with pytest.raises(ConfigError, match=match):
            cfg.validate()

    @pytest.mark.parametrize("field", ["alpha", "support_r", "sigma2_max",
                                       "dummy_bytes_first_layer"])
    def test_negative_noise_parameter_rejected(self, field):
        with pytest.raises(ConfigError, match="nonnegative"):
            NoiseSpec(**{field: -1}).validate()


@st.composite
def pack_inputs(draw):
    """Tiles of 1 to 3x the bin, with and without dummy spans; kappa 1-8,
    bins of 64-4096 B and any noise whose floor fits."""
    kappa = draw(st.integers(1, 8))
    bin_size = draw(st.integers(max(64, binpack.table_bytes(kappa) + 1), 4096))
    room = bin_size - binpack.table_bytes(1) - 1
    noise = NoiseSpec(alpha=draw(st.integers(0, room)), support_r=draw(st.integers(0, bin_size)),
                      sigma2_max=draw(st.floats(0, float(bin_size) ** 2)))
    data = np.random.default_rng(draw(st.integers(0, 2**16)))
    tiles = []
    for _ in range(draw(st.integers(0, 10))):
        comp = draw(st.integers(1, 3 * bin_size))
        spans = draw(st.lists(st.tuples(st.integers(0, 99), st.integers(1, 9)), max_size=2))
        tiles.append(binpack.CompressedTile(
            raw_size=draw(st.integers(1, 4 * bin_size)),
            payload=data.integers(0, 256, comp, dtype=np.uint8), dummy_spans=tuple(spans)))
    return tiles, BinConfig(bin_size=bin_size, kappa=kappa), noise


class TestAgainstPackLoop:
    """pack_bins gives what the closure-state loop gave, bin for bin, and
    leaves the generator where the loop left it."""

    @settings(max_examples=200)
    @given(pack_inputs(), st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_loop(self, inputs, seed, assemble):
        tiles, cfg, noise = inputs
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want, want_report = pack_bins_loop(tiles, cfg, noise, want_rng, "L", assemble)
        got, got_report = binpack.pack_bins(tiles, cfg, noise, got_rng, "L", assemble)
        assert got_report == want_report
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.table.dtype == binpack._TABLE_ENTRY
            assert g.table.tolist() == [(e.tile_id | (binpack._CONT_BIT if e.continuation else 0),
                                         e.offset, e.length) for e in w.entries]
            assert (g.index, g.empty_pad, g.noise_reserved) == \
                   (w.index, w.empty_pad, w.noise_reserved)
            if assemble:
                assert g.payload.dtype == np.uint8 and g.payload.tobytes() == w.payload.tobytes()
            else:
                assert g.payload is w.payload is None
        # the trailing draw after the last bin is part of the contract
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestUnpackBins:
    @staticmethod
    def _tiles(raws, dummies=0, seed=0):
        rng = np.random.default_rng([seed, 1])
        tiles = []
        for raw in raws:
            data, spans = binpack.inject_dummy(raw, dummies, rng)
            tiles.append(binpack.compress_tile(data, dummy_spans=spans))
        return tiles

    def _pipeline(self, raws, cfg=None, seed=0, dummies=0):
        cfg = cfg or BinConfig(bin_size=4096)
        bins, _ = binpack.pack_bins(self._tiles(raws, dummies, seed), cfg, no_noise(),
                                    np.random.default_rng([seed, 2]))
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
        # a bin holds the stored bytes, dummies included; the tile's spans
        # strip them
        rng = np.random.default_rng(7)
        raws = [rng.integers(0, 100, size=1500, dtype=np.uint8).astype(np.uint8) for _ in range(4)]
        tiles = self._tiles(raws, dummies=64)
        bins, _ = binpack.pack_bins(tiles, BinConfig(bin_size=4096), no_noise(),
                                    np.random.default_rng(0))
        got = binpack.unpack_bins(bins)
        assert len(got) == len(raws)
        for a, t, raw in zip(got, tiles, raws):
            assert a.size == raw.size + 64
            np.testing.assert_array_equal(strip_dummies(a, t.dummy_spans), raw)

    def test_bin_and_its_image_unpack_the_same(self):
        # dummy spans are not in the wire image, so a bin that carried them
        # would unpack differently from its own parsed image
        rng = np.random.default_rng(11)
        raws = [rng.integers(0, 100, size=int(rng.integers(200, 1500)), dtype=np.uint8)
                for _ in range(6)]
        cfg = BinConfig(bin_size=1024, kappa=4)
        bins, _ = binpack.pack_bins(self._tiles(raws, dummies=32), cfg, no_noise(),
                                    np.random.default_rng(0))
        assert any(ident & binpack._CONT_BIT for b in bins for ident in b.table["id"])
        parsed = [binpack.bin_from_bytes(b.to_bytes(cfg), cfg, b.index) for b in bins]
        got, back = binpack.unpack_bins(bins), binpack.unpack_bins(parsed)
        assert [a.size for a in got] == [a.size for a in back] == [r.size + 32 for r in raws]
        for a, b in zip(got, back):
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

    def test_stored_segment_without_data_rejected(self):
        # a one-byte stored container packs and parses, but holds no tile
        cfg = BinConfig(bin_size=4096)
        tile = binpack.CompressedTile(0, np.array([binpack.MODE_STORED], np.uint8))
        bins, _ = binpack.pack_bins([tile], cfg, no_noise(), np.random.default_rng(0))
        parsed = binpack.bin_from_bytes(bins[0].to_bytes(cfg), cfg)
        with pytest.raises(IntegrityError, match="data byte"):
            binpack.unpack_bins([parsed])

    def test_tiles_need_no_id(self):
        # two tiles compressed alone pack as the stream's tiles 0 and 1
        rng = np.random.default_rng(12)
        raws = [rng.integers(0, 8, size=400, dtype=np.uint8) for _ in range(2)]
        cfg = BinConfig(bin_size=4096)
        bins, _ = binpack.pack_bins([binpack.compress_tile(raw) for raw in raws], cfg,
                                    no_noise(), np.random.default_rng(0))
        assert bins[0].table["id"].tolist() == [0, 1]
        for got in (binpack.unpack_bins(bins),
                    binpack.unpack_bins([binpack.bin_from_bytes(b.to_bytes(cfg), cfg) for b in bins])):
            assert [a.tobytes() for a in got] == [raw.tobytes() for raw in raws]

    @staticmethod
    def parsed_bin(cfg, ids, segments):
        """The parsed wire image of a bin whose entries carry ids and hold segments."""
        lengths = [seg.size for seg in segments]
        table = np.array(list(zip(ids, np.cumsum(lengths) - lengths, lengths)),
                         dtype=binpack._TABLE_ENTRY)
        b = binpack.Bin(0, table, np.concatenate(segments), 0, 0)
        return binpack.bin_from_bytes(b.to_bytes(cfg), cfg)

    @staticmethod
    def two_payloads():
        rng = np.random.default_rng(13)
        return [binpack.compress_tile(rng.integers(0, 8, size=400, dtype=np.uint8)).payload
                for _ in range(2)]

    def test_continuation_after_next_start_rejected(self):
        # bin 0 starts tiles 0 and 1; bin 1 then continues tile 0, which
        # pack_bins never writes, though each bin parses alone
        a, b = self.two_payloads()
        cfg = BinConfig(bin_size=4096)
        bins = [self.parsed_bin(cfg, [0, 1], [a[:10], b]),
                self.parsed_bin(cfg, [binpack._CONT_BIT], [a[10:]])]
        with pytest.raises(IntegrityError, match="stream order at tile 2"):
            binpack.unpack_bins(bins)

    # the last pair's second id is tile 2**31 - 1 + 1, which is tile 0 continued
    @pytest.mark.parametrize("ids", [[5, 2], [1, 3], [2**31 - 1, 2**31]])
    def test_entries_not_consecutive_rejected(self, ids):
        with pytest.raises(IntegrityError, match="next tile"):
            self.parsed_bin(BinConfig(bin_size=4096), ids, self.two_payloads())

    def test_stream_starting_past_tile_zero_rejected(self):
        b = self.parsed_bin(BinConfig(bin_size=4096), [1, 2], self.two_payloads())
        with pytest.raises(IntegrityError, match="stream order at tile 0"):
            binpack.unpack_bins([b])

    @pytest.mark.parametrize("size", [2047, 2049])
    def test_image_of_wrong_length_rejected(self, size):
        with pytest.raises(IntegrityError, match="exactly 2048 bytes"):
            binpack.bin_from_bytes(bytes(size), BinConfig(bin_size=2048))

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

    @pytest.mark.parametrize("cfg", [BinConfig(), BinConfig(bin_size=4096)])
    def test_blank_bin_rejected(self, cfg):
        # pack_bins never writes a bin without a table entry; a stream of
        # blank images would otherwise unpack to no tiles without an error
        with pytest.raises(IntegrityError, match="entry count 0"):
            binpack.bin_from_bytes(bytes(cfg.bin_size), cfg)

    def three_tile_image(self):
        """One 4,096 B bin holding three compressed tiles, and its wire image."""
        rng = np.random.default_rng(10)
        raws = [rng.integers(0, 8, size=400, dtype=np.uint8) for _ in range(3)]
        cfg = BinConfig(bin_size=4096)
        [b] = self._pipeline(raws, cfg=cfg)
        assert len(b.table) == 3
        return raws, cfg, b.to_bytes(cfg)

    @staticmethod
    def table_of(img):
        return np.frombuffer(img, dtype=np.uint8, count=3 * 8, offset=2).view(
            binpack._TABLE_ENTRY).copy()

    @staticmethod
    def with_table(img, table):
        return img[:2] + table.tobytes() + img[2 + table.nbytes:]

    def test_overlapping_entry_rejected(self):
        # entry 1 pointed at entry 0's bytes decoded as a second copy of tile 0
        raws, cfg, img = self.three_tile_image()
        np.testing.assert_array_equal(
            binpack.unpack_bins([binpack.bin_from_bytes(img, cfg)])[1], raws[1])
        table = self.table_of(img)
        for edit in ((0, table["length"][0]), (table["offset"][1], 0), (1, table["length"][0])):
            bad = table.copy()
            bad["offset"][1], bad["length"][1] = edit
            with pytest.raises(IntegrityError):
                binpack.bin_from_bytes(self.with_table(img, bad), cfg)

    @pytest.mark.parametrize("cont", [False, True])
    def test_tile_listed_twice_rejected(self, cont):
        # pack_bins gives a tile one segment per bin
        _, cfg, img = self.three_tile_image()
        bad = self.table_of(img)
        bad["id"][2] = bad["id"][0] | (binpack._CONT_BIT if cont else 0)
        with pytest.raises(IntegrityError):
            binpack.bin_from_bytes(self.with_table(img, bad), cfg)

    def test_continuation_after_first_entry_rejected(self):
        # pack_bins closes a bin when a tile does not fit, so only a bin's
        # first entry continues a tile
        _, cfg, img = self.three_tile_image()
        bad = self.table_of(img)
        bad["id"][1] |= binpack._CONT_BIT
        with pytest.raises(IntegrityError, match="continuation"):
            binpack.bin_from_bytes(self.with_table(img, bad), cfg)

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(0, 2 + 3 * 8 - 1), st.integers(0, 255)),
                    min_size=1, max_size=4))
    def test_edited_table_decodes_or_raises(self, edits):
        _, cfg, img = self.three_tile_image()
        img = bytearray(img)
        for pos, val in edits:
            img[pos] = val
        try:
            b = binpack.bin_from_bytes(bytes(img), cfg)
            end = 0
            for _, off, n in b.table.tolist():  # an accepted table never overlaps or leaves a gap
                assert off == end and n >= 1
                end += n
            # ... and lists consecutive tiles, continuing one only in its first entry
            ids = b.table["id"]
            assert np.all(ids[1:] == (ids[:-1] & (binpack._CONT_BIT - 1)) + 1)
            assert not any(ids[1:] & binpack._CONT_BIT)
            assert all(isinstance(raw, np.ndarray) for raw in binpack.unpack_bins([b]))
        except NeuroPlugError:
            pass
