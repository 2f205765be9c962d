"""The tile-compression kernels against the loop versions in oracles.py.

Every tile is run through both and the RLE tokens, the code lengths, the
canonical codes, the Huffman bitstream and the finished container must be
equal byte for byte, and the decoder must agree with the first/offset-table
decoder token for token.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuroplug import _kernels, binpack, model, sfc, tracegen
from neuroplug.errors import IntegrityError, NeuroPlugError

from oracles import (
    canonical_tables_sequential,
    huff_decode_tables,
    huff_encode_loop,
    huffman_lengths_heapq,
    rle_decode_loop,
    rle_encode_loop,
)

PROPERTY = settings(max_examples=150)


def oracle_rle_huffman(raw):
    """The RLE+Huffman container of raw, built from the oracle loops."""
    tokens = rle_encode_loop(raw)
    lens = huffman_lengths_heapq(np.bincount(tokens, minlength=256))
    codes = canonical_tables_sequential(lens)[0]
    header = bytearray([binpack.MODE_RLE_HUF]) + binpack._varint_encode(tokens.size)
    present = np.flatnonzero(lens)
    header.append(present.size - 1)
    for s in present:
        header += bytes([int(s), int(lens[s])])
    return bytes(header) + huff_encode_loop(tokens, codes, lens).tobytes()


def oracle_container(raw):
    """compress_tile's container, built from the oracle loops."""
    packed = oracle_rle_huffman(raw)
    if len(packed) >= raw.size + 1:
        packed = bytes([binpack.MODE_STORED]) + raw.tobytes()
    return packed


def assert_matches_oracles(raw):
    raw = np.asarray(raw, dtype=np.uint8)
    tokens = _kernels.rle_encode(raw)
    np.testing.assert_array_equal(tokens, rle_encode_loop(raw))
    assert tokens.dtype == np.uint8
    lens = binpack._huffman_lengths(np.bincount(tokens, minlength=256))
    np.testing.assert_array_equal(lens, huffman_lengths_heapq(np.bincount(tokens, minlength=256)))
    assert_codes_match(lens)
    codes = binpack._canonical_codes(lens)
    np.testing.assert_array_equal(_kernels.huff_encode(tokens, codes, lens),
                                  huff_encode_loop(tokens, codes, lens))
    tile = binpack.compress_tile(raw)
    assert tile.payload.tobytes() == oracle_container(raw)
    np.testing.assert_array_equal(binpack.decompress_tile(tile.payload), raw)


def assert_codes_match(lens):
    codes = binpack._canonical_codes(lens)
    np.testing.assert_array_equal(codes, canonical_tables_sequential(lens)[0])
    assert codes.dtype == np.uint64


@st.composite
def mixed_tiles(draw):
    """Zero runs of any length (past 255 included) between arbitrary bytes."""
    parts = draw(st.lists(st.tuples(st.integers(0, 600), st.binary(max_size=40)),
                          min_size=1, max_size=12))
    raw = b"".join(bytes(run) + chunk for run, chunk in parts)
    return np.frombuffer(raw or b"\x00", dtype=np.uint8)


class TestAgainstOracles:
    @pytest.mark.parametrize("n", [1, 254, 255, 256, 510, 511, 2048])
    def test_all_zero(self, n):
        assert_matches_oracles(np.zeros(n, np.uint8))

    def test_no_zeros(self):
        rng = np.random.default_rng(1)
        assert_matches_oracles(rng.integers(1, 256, size=2048, dtype=np.uint8))

    @pytest.mark.parametrize("value, n", [(7, 1), (7, 2048), (255, 300)])
    def test_single_symbol(self, value, n):
        assert_matches_oracles(np.full(n, value, np.uint8))

    def test_half_sparse_int8(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            vals = rng.integers(-128, 128, size=2048).astype(np.int8)
            vals[rng.random(2048) < 0.5] = 0
            assert_matches_oracles(vals.view(np.uint8))

    @PROPERTY
    @given(mixed_tiles())
    def test_mixed_tiles(self, raw):
        assert_matches_oracles(raw)

    @PROPERTY
    @given(st.binary(min_size=1, max_size=3000))
    def test_arbitrary_bytes(self, raw):
        assert_matches_oracles(np.frombuffer(raw, dtype=np.uint8))


def alphabet_tile(rng, size, n_values, zero_share, mean_run):
    """size bytes drawn from n_values distinct byte values, then zero runs of
    geometric length (mean mean_run) over about zero_share of them."""
    values = rng.permutation(256)[:n_values].astype(np.uint8)
    raw = values[rng.integers(0, n_values, size)]
    for start in rng.integers(0, size, rng.binomial(size, zero_share / mean_run)):
        raw[start : start + rng.geometric(1 / mean_run)] = 0
    return raw


def assert_stored_decision(raw):
    """compress_tile matches the oracle container, and its size floor stays
    at or below the RLE+Huffman container; returns that container's size
    less raw.size + 1, the margin of the stored-mode decision."""
    tokens = rle_encode_loop(raw)
    counts = np.bincount(tokens)
    floor = binpack._size_floor(tokens.size, counts[counts > 0])
    huffman = len(oracle_rle_huffman(raw))
    assert floor <= huffman
    assert binpack.compress_tile(raw).payload.tobytes() == oracle_container(raw)
    return huffman - (raw.size + 1)


class TestStoredDecision:
    """Stored mode is decided from a size floor before Huffman where it can
    be, and the container must not change for it."""

    @PROPERTY
    @given(st.integers(1, 600), st.integers(1, 256), st.sampled_from([0.0, 0.2, 0.5, 0.9]),
           st.sampled_from([1, 4, 40, 300]), st.integers(0, 2**32 - 1))
    def test_alphabet_tiles(self, size, n_values, zero_share, mean_run, seed):
        raw = alphabet_tile(np.random.default_rng(seed), size, n_values, zero_share, mean_run)
        assert_stored_decision(raw)

    # (size, seed, alphabet size) of tiles whose Huffman container lands
    # within 2 B of raw.size + 1, from a sweep of alphabet sizes
    @pytest.mark.parametrize("size, seed, n_values, margin", [
        (6, 0, 1, -1), (20, 1, 77, -1), (64, 2, 14, -1),
        (20, 0, 5, -2), (64, 1, 14, -2), (200, 2, 32, -2),
        (20, 1, 13, 0), (20, 2, 4, 0), (600, 0, 85, 0),
        (6, 1, 2, 1), (6, 0, 134, 1),
        (20, 1, 5, 2), (64, 0, 13, 2),
    ])
    def test_near_threshold(self, size, seed, n_values, margin):
        raw = alphabet_tile(np.random.default_rng([seed, size, n_values]), size, n_values, 0.2, 4)
        assert assert_stored_decision(raw) == margin

    @pytest.mark.parametrize("name, every, undecided", [("toy-sparse", 1, 0), ("vgg16-32", 64, 1)])
    def test_bundled_tiles(self, name, every, undecided):
        # every weight row and fmap chunk of seed 1: the mode and size
        # against the oracle's RLE+Huffman size (heapq code lengths on the
        # RLE kernel's tokens, which the tests above pin to the loop), and
        # stored tiles, fmap chunks and every `every`-th weight row byte for
        # byte against oracle_container.  On all of vgg16-32's 4,224 weight
        # rows (14.7 MB, 42 stored) the byte loops would take about 17 s.
        # The size floor decides all stored tiles but `undecided` of them
        net = model.load_network(name)
        data = tracegen.compute_net_data(net, model.generate_input(net.layers[0].shape, 1), 1)
        tiles = [row for w in data.weights for row in w.view(np.uint8).reshape(len(w), -1)]
        n_rows = len(tiles)
        for fmap, layer in zip(data.fmaps[1:], net.layers):
            tiles += tracegen._chunks(fmap, sfc.ofmap_walk(layer.shape, layer.tiling)[0])
        missed = 0
        for i, raw in enumerate(tiles):
            raw = np.ascontiguousarray(raw)
            payload = binpack.compress_tile(raw).payload.tobytes()
            freq = np.bincount(_kernels.rle_encode(raw), minlength=256)
            lens = huffman_lengths_heapq(freq)
            huffman = 2 + len(binpack._varint_encode(int(freq.sum()))) + 2 * np.count_nonzero(lens) \
                + (int((freq * lens).sum()) + 7) // 8
            stored = huffman >= raw.size + 1
            assert payload[0] == (binpack.MODE_STORED if stored else binpack.MODE_RLE_HUF)
            assert len(payload) == (raw.size + 1 if stored else huffman)
            if stored or i >= n_rows or i % every == 0:
                assert payload == oracle_container(raw)
            if stored:
                missed += binpack._size_floor(int(freq.sum()), freq[freq > 0]) < raw.size + 1
        assert missed == undecided


class TestHuffmanLengths:
    def test_power_of_two_frequencies_retry(self):
        # weights 2**i make a chain 59 deep: the lengths are halved until
        # they fit 56 bits, in the same steps as the heap
        freq = np.zeros(256, np.int64)
        freq[:60] = 2 ** np.arange(60)
        lens = binpack._huffman_lengths(freq)
        assert lens.max() == binpack._MAX_CODE_LEN
        np.testing.assert_array_equal(lens, huffman_lengths_heapq(freq))
        assert_codes_match(lens)

    @PROPERTY
    @given(st.dictionaries(st.integers(0, 255), st.integers(1, 2**40), min_size=2))
    def test_arbitrary_frequencies(self, weights):
        freq = np.zeros(256, np.int64)
        freq[list(weights)] = list(weights.values())
        lens = binpack._huffman_lengths(freq)
        np.testing.assert_array_equal(lens, huffman_lengths_heapq(freq))
        assert_codes_match(lens)

    @PROPERTY
    @given(st.lists(st.integers(1, 3), min_size=2, max_size=40))
    def test_ties(self, small):
        # few distinct weights: every merge decides a tie
        freq = np.zeros(256, np.int64)
        freq[: len(small)] = small
        np.testing.assert_array_equal(binpack._huffman_lengths(freq), huffman_lengths_heapq(freq))


def code_lengths(rng, maxlen, complete):
    """Code lengths (0 for absent symbols) of random symbols, the longest
    maxlen: the leaves of a chain maxlen deep, grown by splitting random
    leaves shallower than maxlen.  All of them make a complete code; a subset
    that keeps a deepest leaf and drops another makes an incomplete one."""
    depths = list(range(1, maxlen + 1)) + [maxlen]
    for _ in range(int(rng.integers(0, 257 - len(depths)))):
        shallow = [j for j, d in enumerate(depths) if d < maxlen]
        if not shallow:
            break
        d = depths.pop(shallow[rng.integers(len(shallow))])
        depths += [d + 1, d + 1]
    depths = np.array(depths)
    if not complete:
        keep = rng.random(depths.size) < rng.random()
        deepest = int(np.argmax(depths))
        keep[deepest] = True
        keep[rng.choice(np.delete(np.arange(depths.size), deepest))] = False
        depths = depths[keep]
    lens = np.zeros(256, dtype=np.uint8)
    lens[rng.permutation(256)[: depths.size]] = depths
    return lens


class TestHuffDecode:
    """The decoder reads only the code counts per length and the symbols in
    code order; it must decode what the first/offset-table decoder decodes
    and fail where it fails."""

    @settings(max_examples=400)
    @given(st.integers(1, 56), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_table_decoder(self, maxlen, complete, encoded, seed):
        rng = np.random.default_rng(seed)
        lens = code_lengths(rng, maxlen, complete)
        codes, first, count, offset, symtab, _ = canonical_tables_sequential(lens)
        kraft = sum(int(n) << (56 - l) for l, n in enumerate(count))
        assert kraft == 1 << 56 if complete else kraft < 1 << 56
        if encoded:  # the codes of random symbols, token count near theirs
            tokens = rng.choice(symtab, size=int(rng.integers(0, 60)))
            bits = huff_encode_loop(tokens, codes, lens)
            n_tokens = max(0, tokens.size + int(rng.integers(-2, 3)))
        else:
            bits = rng.integers(0, 256, size=int(rng.integers(0, 40)), dtype=np.uint8)
            n_tokens = int(rng.integers(0, 80))
        want = huff_decode_tables(bits, n_tokens, first, count, offset, symtab, maxlen)
        got = _kernels.huff_decode(bits, n_tokens, count, symtab)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, want)


def container(n_tokens, table, bits=b"\x00"):
    """An RLE+Huffman container with a hand-written header."""
    head = bytes([binpack.MODE_RLE_HUF]) + binpack._varint_encode(n_tokens)
    return np.frombuffer(head + bytes([len(table) - 1]) + bytes(sum(table, ())) + bits,
                         dtype=np.uint8)


def encoded_tokens(tokens):
    """A container whose Huffman layer decodes to exactly these RLE tokens."""
    tokens = np.asarray(tokens, dtype=np.uint8)
    lens = binpack._huffman_lengths(np.bincount(tokens, minlength=256))
    codes = binpack._canonical_codes(lens)
    table = [(int(s), int(lens[s])) for s in np.flatnonzero(lens)]
    return container(tokens.size, table, _kernels.huff_encode(tokens, codes, lens).tobytes())


class TestMalformedContainer:
    @pytest.mark.parametrize("table", [
        [(4, 1), (5, 70)],           # longer than 56 bits: was an OverflowError
        [(4, 1), (5, 0)],            # a listed symbol without a code
        [(5, 1), (5, 1)],            # a symbol listed twice
        [(1, 1), (2, 1), (3, 1)],    # three 1-bit codes: Kraft sum 3/2
    ])
    def test_bad_code_table(self, table):
        with pytest.raises(IntegrityError):
            binpack.decompress_tile(container(1, table))

    def test_code_table_in_any_order(self):
        # the codes follow from (length, symbol) order, not from the order
        # in which the table lists the symbols
        tokens = np.array([5, 5, 5, 9, 7, 9, 5, 2, 5, 5, 7, 3], np.uint8)
        lens = binpack._huffman_lengths(np.bincount(tokens, minlength=256))
        bits = _kernels.huff_encode(tokens, binpack._canonical_codes(lens), lens).tobytes()
        table = [(int(s), int(lens[s])) for s in np.flatnonzero(lens)]
        assert len(set(lens[lens > 0])) > 1
        for order in (table, table[::-1], table[1::2] + table[::2]):
            np.testing.assert_array_equal(binpack.decompress_tile(container(tokens.size, order, bits)),
                                          tokens)

    def test_token_count_beyond_payload_bits(self):
        # 2**35 tokens asked of 8 payload bits: was a 32 GiB MemoryError
        with pytest.raises(IntegrityError, match="token count"):
            binpack.decompress_tile(container(2**35, [(1, 1), (2, 1)]))
        assert binpack.decompress_tile(container(8, [(1, 1), (2, 1)])).size == 8

    def test_stored_container_without_data_byte(self):
        # compress_tile rejects an empty tile, so no container decodes to one
        with pytest.raises(IntegrityError, match="data byte"):
            binpack.decompress_tile(np.array([binpack.MODE_STORED], np.uint8))

    @pytest.mark.parametrize("payload, match", [
        (b"", "empty container"),
        (bytes([binpack.MODE_RLE_HUF, 0x80]), "truncated varint"),
        (bytes([binpack.MODE_RLE_HUF, 5]), "truncated header"),
    ], ids=["empty", "varint", "header"])
    def test_truncated_container(self, payload, match):
        with pytest.raises(IntegrityError, match=match):
            binpack.decompress_tile(np.frombuffer(payload, np.uint8))

    def test_container_without_a_token(self):
        with pytest.raises(IntegrityError, match="without a token"):
            binpack.decompress_tile(container(0, [(1, 1), (2, 1)], b""))

    def zero_run_container(self):
        """The 8 B container of 100 zero bytes: one (0, 100) token pair, 2
        bits and 6 padding bits."""
        payload = binpack.compress_tile(np.zeros(100, np.uint8)).payload
        assert payload.size == 8
        np.testing.assert_array_equal(binpack.decompress_tile(payload), np.zeros(100, np.uint8))
        return payload

    def test_bytes_after_the_bitstream(self):
        padded = np.concatenate([self.zero_run_container(), np.full(7, 0xAB, np.uint8)])
        with pytest.raises(IntegrityError, match="bytes after the bitstream"):
            binpack.decompress_tile(padded)
        with pytest.raises(IntegrityError, match="bytes after the bitstream"):
            binpack.decompress_tile(np.append(self.zero_run_container(), np.uint8(0)))

    @pytest.mark.parametrize("bit", range(6))
    def test_nonzero_padding_bit(self, bit):
        payload = self.zero_run_container().copy()
        payload[-1] |= 1 << bit
        with pytest.raises(IntegrityError, match="padding bits"):
            binpack.decompress_tile(payload)

    @PROPERTY
    @given(st.lists(st.sampled_from([0, 0, 1, 255]) | st.integers(0, 255), max_size=40))
    def test_rle_decode_matches_loop(self, tokens):
        tokens = np.array(tokens, dtype=np.uint8)
        got, want = _kernels.rle_decode(tokens), rle_decode_loop(tokens)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("tokens", [[3, 0], [0, 0], [5, 0, 0, 7]])
    def test_broken_zero_run(self, tokens):
        assert _kernels.rle_decode(np.array(tokens, np.uint8)) is None
        with pytest.raises(IntegrityError, match="run length"):
            binpack.decompress_tile(encoded_tokens(tokens))

    @PROPERTY
    @given(mixed_tiles(), st.lists(st.tuples(st.integers(0, 63), st.integers(0, 255)),
                                   min_size=1, max_size=3))
    def test_mutated_containers_fail_cleanly(self, raw, edits):
        payload = binpack.compress_tile(raw).payload.copy()
        for pos, val in edits:
            payload[pos % payload.size] = val
        try:
            binpack.decompress_tile(payload)
        except NeuroPlugError:
            pass
