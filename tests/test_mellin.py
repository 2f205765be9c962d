import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuroplug import _kernels, mellin, model
from neuroplug.errors import DomainError, EvidenceError, SupportError
from neuroplug.mellin import GridPdf

from oracles import (
    fold_nearest_searchsorted,
    mellin_riemann,
    point_mass,
    product_pdf_mc,
    tv_distance,
)


def exp_pdf():
    x = np.geomspace(1e-4, 40, 4096)
    return GridPdf(x, np.exp(-x))


def uniform01():
    x = np.geomspace(1e-4, 1.0, 2048)
    return GridPdf(x, np.ones_like(x))


def mellin_fft(pdf, c, n=mellin.DEFAULT_N):
    """The engine's FFT transform on pdf's log span, widened by a quarter
    span on each side."""
    t_lo, t_hi = math.log(pdf.x[0]), math.log(pdf.x[-1])
    span = t_hi - t_lo
    return mellin._fft_on_grid(pdf, c, t_lo - span / 4, span * 1.5 / (n - 1), n)


def as_dict(sm):
    return dict(zip(sm.values.tolist(), sm.pmf.tolist()))


def one_bin_prediction():
    """The prediction smart_rank_for_layer prices for a one-bin observation,
    and its candidate range."""
    y = 61440.0
    h = mellin.predict_X(y, GridPdf.uniform(1.0, 0.875 * y, 1024),
                         GridPdf.uniform(1 / 40, 1 / 1.5, 1024))
    return h, 11_520, 2_457_600


class TestGridPdfRejected:
    @pytest.mark.parametrize("x, f, match", [
        ([1.0], [1.0], "length >= 2"),
        ([1.0, 2.0], [1.0], "equal length"),
        ([[1.0, 2.0]], [[1.0, 1.0]], "1-D"),
        ([0.0, 1.0], [1.0, 1.0], "strictly positive"),
        ([1.0, 1.0], [1.0, 1.0], "strictly increasing"),
        ([2.0, 1.0], [1.0, 1.0], "strictly increasing"),
        ([1.0, 2.0], [-1.0, 1.0], "nonnegative"),
        ([1.0, 2.0], [np.inf, 1.0], "finite"),
        ([1.0, 2.0], [np.nan, 1.0], "finite"),
    ])
    def test_rejected(self, x, f, match):
        with pytest.raises(DomainError, match=match):
            GridPdf(np.array(x), np.array(f))

    def test_zero_mass_does_not_normalize(self):
        with pytest.raises(DomainError, match="zero mass"):
            GridPdf(np.array([1.0, 2.0]), np.zeros(2)).normalized()


class TestRiemann:
    def test_gamma_identity(self):
        m = mellin_riemann(exp_pdf(), [2.0])
        assert abs(m.values[0] - 1.0) < 1e-3

    def test_uniform_s2(self):
        m = mellin_riemann(uniform01(), [2.0])
        assert abs(m.values[0] - 0.5) < 1e-3

    def test_total_mass_at_s1(self):
        for pdf in (exp_pdf(), uniform01()):
            m = mellin_riemann(pdf.normalized(), [1.0])
            assert abs(m.values[0] - 1.0) < 1e-3

    def test_strip_guard(self):
        with pytest.raises(DomainError):
            mellin_riemann(exp_pdf(), [-1.0])


class TestFft:
    def test_gamma_identity(self):
        m = mellin_fft(exp_pdf(), c=2.0)
        assert abs(m.values[0] - 1.0) < 1e-3  # s = c + 0j is the first grid point

    def test_uniform_s2(self):
        m = mellin_fft(uniform01(), c=2.0)
        assert abs(m.values[0] - 0.5) < 1e-3

    def test_mass_at_s1(self):
        m = mellin_fft(exp_pdf().normalized(), c=1.0)
        assert abs(m.values[0] - 1.0) < 1e-3

    @pytest.mark.parametrize("pdf_fn", [exp_pdf, uniform01])
    def test_matches_riemann_on_band(self, pdf_fn):
        pdf = pdf_fn()
        mf = mellin_fft(pdf, c=2.0)
        band = np.abs(mf.s.imag) <= 16
        mr = mellin_riemann(pdf, mf.s[band])
        assert np.abs(mf.values[band] - mr.values).max() < 1e-2

    def test_faster_than_riemann(self):
        import time

        x = np.geomspace(1e-3, 10, 1 << 14)
        pdf = GridPdf(x, np.exp(-x))
        t0 = time.perf_counter()
        mf = mellin_fft(pdf, c=1.5, n=1 << 14)
        t_fft = time.perf_counter() - t0
        t0 = time.perf_counter()
        mellin_riemann(pdf, mf.s[: 1 << 12])  # quarter of the points
        t_riemann = (time.perf_counter() - t0) * 4
        assert t_riemann > 10 * t_fft


class TestReciprocal:
    def test_uniform_changes_variables(self):
        b = GridPdf(np.linspace(0.25, 0.5, 400), np.full(400, 4.0))
        v = mellin.reciprocal_pdf(b)
        assert v.x[0] == pytest.approx(2.0) and v.x[-1] == pytest.approx(4.0)
        np.testing.assert_allclose(v.f, 1.0 / (0.25 * v.x**2), rtol=1e-12)

    def test_point_mass_at_one(self):
        v = mellin.reciprocal_pdf(point_mass(1.0))
        peak = v.x[np.argmax(v.f)]
        assert abs(peak - 1.0) < 1e-2

    def test_mass_preserved(self):
        b = GridPdf(np.linspace(0.1, 0.9, 800), np.full(800, 1.25))
        v = mellin.reciprocal_pdf(b)
        assert abs(v.mass() - 1.0) < 1e-6


class TestProduct:
    def test_uniform_product_closed_form(self):
        u = uniform01()
        prod = mellin.product_pdf(u, u)
        xs = np.geomspace(1e-3, 0.98, 200)
        got = np.interp(xs, prod.x, prod.f)
        assert np.abs(got + np.log(xs)).max() < 0.02

    def test_identity_element(self):
        u = GridPdf.uniform(2.0, 5.0, 1024)
        one = point_mass(1.0)
        prod = mellin.product_pdf(u, one)
        assert tv_distance(prod, u) <= 1e-3

    def test_commutative(self):
        a = GridPdf.uniform(0.5, 1.5, 512)
        b = GridPdf.uniform(2.0, 3.0, 512)
        ab = mellin.product_pdf(a, b)
        ba = mellin.product_pdf(b, a)
        assert tv_distance(ab, ba) <= 1e-3

    @pytest.mark.parametrize(
        "u_rng,v_rng",
        [((1e-4, 1.0), (1e-4, 1.0)), ((1e-4, 1.0), (1.0, 2.0)), ((0.5, 2.0), (1.5, 40.0))],
    )
    def test_against_mc_oracle(self, u_rng, v_rng):
        u = GridPdf.uniform(*u_rng, 1024) if u_rng[0] > 1e-3 else uniform01()
        v = GridPdf.uniform(*v_rng, 1024) if v_rng[0] > 1e-3 else uniform01()
        fast = mellin.product_pdf(u, v)
        slow = product_pdf_mc(u, v, np.random.default_rng(42), 10**6)
        assert tv_distance(fast, slow) <= 0.02


class TestPredict:
    def test_point_priors_collapse(self):
        a = point_mass(100.0)
        b = point_mass(0.5)
        h = mellin.predict_X(1100.0, a, b)
        peak = h.x[np.argmax(h.f)]
        assert abs(peak - 2000.0) / 2000.0 < 0.01

    def test_valid_density_for_wide_priors(self):
        a = GridPdf.uniform(100, 5000, 512)
        b = GridPdf.uniform(1 / 40, 1 / 1.5, 512)
        h = mellin.predict_X(20000, a, b)
        assert h.x[0] > 0
        assert abs(h.mass() - 1.0) < 1e-6

    def test_matches_mc(self):
        a = GridPdf.uniform(100, 3000, 512)
        b = GridPdf.uniform(0.2, 0.6, 512)
        fast = mellin.predict_X(10000, a, b)
        slow = product_pdf_mc(mellin.shift_pdf(10000, a), mellin.reciprocal_pdf(b),
                              np.random.default_rng(7), 10**6)
        assert tv_distance(fast, slow) <= 0.02

    def test_observation_below_prior_rejected(self):
        a = GridPdf.uniform(100, 5000, 128)
        b = GridPdf.uniform(0.2, 0.6, 128)
        with pytest.raises(EvidenceError):
            mellin.predict_X(4000, a, b)


def assert_matches_oracle(h, lo, hi):
    sm = mellin.smart_search_space(h, lo, hi)
    values, pmf = fold_nearest_searchsorted(h, lo, hi)
    assert sm.values.dtype == np.int64
    assert np.array_equal(sm.values, values)
    assert np.array_equal(sm.pmf, pmf)
    return sm


class TestSmartSearchSpace:
    def test_hand_fixture(self):
        h = GridPdf(np.arange(8, 13, dtype=float), np.full(5, 0.25))
        sm = mellin.smart_search_space(h, 8, 12)
        assert as_dict(sm) == pytest.approx({8: 0.2, 9: 0.4, 12: 0.4})

    def test_already_nsqf_supported(self):
        # mass sitting only on NSQF integers stays put (up to renormalizing)
        x = np.array([7.5, 8.0, 8.5, 9.0, 9.5], dtype=float)
        f = np.array([0.0, 2.0, 0.0, 1.0, 0.0])
        sm = mellin.smart_search_space(GridPdf(x, f), 8, 9)
        assert as_dict(sm) == pytest.approx({8: 2 / 3, 9: 1 / 3})

    def test_mass_conserved_and_normalized(self):
        rng = np.random.default_rng(3)
        x = np.linspace(50, 150, 300)
        f = rng.uniform(0.5, 1.5, size=300)
        sm = mellin.smart_search_space(GridPdf(x, f / np.trapezoid(f, x)), 60, 140)
        assert abs(sm.pmf.sum() - 1.0) < 1e-9

    def test_equidistant_integer_goes_low(self):
        # 14 lies halfway between the NSQF integers 12 and 16
        h = GridPdf(np.arange(12, 17, dtype=float), np.full(5, 0.25))
        sm = assert_matches_oracle(h, 12, 16)
        assert as_dict(sm) == pytest.approx({12: 0.6, 16: 0.4})

    def test_integers_outside_the_nsqf_span(self):
        # 5, 6, 7 lie below the first NSQF integer (8), 10 and 11 above the
        # last one (9) in the range
        h = GridPdf(np.arange(5, 12, dtype=float), np.full(7, 1 / 6))
        sm = assert_matches_oracle(h, 5, 11)
        assert as_dict(sm) == pytest.approx({8: 4 / 7, 9: 3 / 7})

    @settings(max_examples=100)
    @given(lo=st.integers(2, 5_000), width=st.integers(4, 5_000), seed=st.integers(0, 2**16))
    def test_matches_oracle_fold(self, lo, width, seed):
        hi = lo + width
        x = np.linspace(lo - 0.5, hi + 0.5, 64)
        h = GridPdf(x, np.random.default_rng(seed).uniform(0.0, 1.0, size=64))
        assert_matches_oracle(h, lo, hi)

    def test_benchmark_range_matches_oracle_fold(self):
        assert_matches_oracle(*one_bin_prediction())

    def test_benchmark_range_memory(self):
        # the fold holds one block of integers at a time: the peak is the
        # result (16 B per NSQF integer, about 6.3 B per integer of the
        # range) plus that block, where full-range temporaries took 28 B
        h, lo, hi = one_bin_prediction()
        tracemalloc.start()
        try:
            mellin.smart_search_space(h, lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * (hi - lo + 1)

    def test_no_nsqf_in_range(self):
        h = GridPdf(np.arange(1, 8, dtype=float), np.full(7, 1 / 6))
        with pytest.raises(DomainError):
            mellin.smart_search_space(h, 5, 7)  # 5, 6, 7 squarefree


@pytest.mark.parametrize("block", [1, 2, 3, 5])
class TestFoldBlockEdges:
    """The fold's blocks end on catchment boundaries, so any block size
    gives the pmf of one pass over the whole range, bit for bit.  The
    ranges above are narrower than one real block; these shrink it."""

    @pytest.fixture(autouse=True)
    def small_block(self, block, monkeypatch):
        monkeypatch.setattr(mellin, "_FOLD_BLOCK", block)

    def test_random_ranges(self, block):
        rng = np.random.default_rng(block)
        for _ in range(20):
            lo = int(rng.integers(2, 3_000))
            hi = lo + int(rng.integers(3, 400))  # four integers hold a multiple of 4
            x = np.linspace(lo - 0.5, hi + 0.5, 64)
            assert_matches_oracle(GridPdf(x, rng.uniform(0.0, 1.0, size=64)), lo, hi)

    def test_tie_on_a_block_edge(self, block):
        # NSQF integers of [8, 20]: 8, 9, 12, 16, 18, 20, with ties at 14,
        # 17 and 19.  Every block size here puts one on a block edge: 14
        # with one or three targets per block, 17 with two, 19 with five
        h = GridPdf(np.arange(7, 22, dtype=float), np.linspace(1.0, 2.0, 15))
        sm = assert_matches_oracle(h, 8, 20)
        assert sm.values.tolist() == [8, 9, 12, 16, 18, 20]

    def test_one_nsqf_mask_per_call(self, block, monkeypatch):
        calls = []

        def counted(lo, hi):
            calls.append((lo, hi))
            return mask(lo, hi)

        mask = _kernels.nsqf_mask
        monkeypatch.setattr(_kernels, "nsqf_mask", counted)
        h = GridPdf(np.linspace(99.5, 300.5, 64), np.ones(64))
        assert mellin.smart_search_space(h, 100, 300).values.size > 3 * block
        assert calls == [(100, 300)]

    def test_nsqf_count_a_multiple_of_the_block(self, block):
        lo = 100
        offsets = np.flatnonzero(model.nsqf_mask(lo, lo + 200))
        end = lo + int(offsets[3 * block])  # the first target of a fourth block
        for hi, n_targets in ((end - 1, 3 * block), (end, 3 * block + 1)):
            x = np.linspace(lo - 0.5, hi + 0.5, 64)
            h = GridPdf(x, np.random.default_rng(hi).uniform(0.5, 1.0, size=64))
            assert assert_matches_oracle(h, lo, hi).values.size == n_targets


class TestRank:
    def fixture(self):
        return mellin.SmartPmf(
            values=np.array([8, 9, 12], dtype=np.int64),
            pmf=np.array([0.2, 0.4, 0.4]),
        )

    def test_mode_is_rank_one(self):
        assert mellin.rank(self.fixture(), 9) == 1

    def test_tie_break_fixture(self):
        assert mellin.rank(self.fixture(), 8) == 3
        assert mellin.rank(self.fixture(), 12) == 2

    def test_point_mass(self):
        sm = mellin.SmartPmf(values=np.array([50]), pmf=np.array([1.0]))
        assert mellin.rank(sm, 50) == 1

    def test_outside_support(self):
        with pytest.raises(SupportError):
            mellin.rank(self.fixture(), 10)

    @pytest.mark.parametrize("x_r", [7, 13])
    def test_outside_support_at_either_end(self, x_r):
        with pytest.raises(SupportError):
            mellin.rank(self.fixture(), x_r)

    def test_invariant_under_rescaling(self):
        sm = self.fixture()
        scaled = mellin.SmartPmf(values=sm.values, pmf=sm.pmf * 7.0)
        for v in (8, 9, 12):
            assert mellin.rank(sm, v) == mellin.rank(scaled, v)


class TestSearchSpaceSize:
    def test_two_layers(self):
        rs = [
            mellin.RankResult(layer=0, x_r=1, rank=10, n_candidates=100),
            mellin.RankResult(layer=1, x_r=1, rank=100, n_candidates=1000),
        ]
        assert mellin.search_space_size(rs) == pytest.approx(3.0)

    def test_all_rank_one(self):
        rs = [mellin.RankResult(layer=i, x_r=1, rank=1, n_candidates=5) for i in range(4)]
        assert mellin.search_space_size(rs) == 0.0
