import numpy as np
import pytest
from scipy import stats as sps

from neuroplug import binpack, stats
from neuroplug.errors import DomainError
from neuroplug.stats import LabeledSamples

from oracles import runs_test_reference


def make_samples(rng, n_per_level=200, signal=0.0, noise=1.0, levels=(1, 3, 5, 7)):
    secret = np.repeat(levels, n_per_level)
    leaked = signal * secret + rng.normal(0, noise, size=secret.size)
    return LabeledSamples(secret, leaked)


class TestFisherInformation:
    def test_independent_is_near_zero(self):
        rng = np.random.default_rng(0)
        fi = stats.fisher_information(make_samples(rng, signal=0.0))
        # floor: true FI of pure noise, estimator jitter only
        assert fi < 0.05

    def test_perfect_estimator_hits_floor_ceiling(self):
        secret = np.repeat([1, 2, 3, 4], 50)
        flags = {}
        fi = stats.fisher_information(
            LabeledSamples(secret, secret.astype(float)), var_floor=1e-6, flags=flags
        )
        assert fi == pytest.approx(1e6)
        assert flags.get("variance_floored")

    def test_strong_signal_big_fi(self):
        rng = np.random.default_rng(1)
        weak = stats.fisher_information(make_samples(rng, signal=0.05))
        strong = stats.fisher_information(make_samples(rng, signal=2.0))
        assert strong > 100 * weak

    def test_needs_two_levels(self):
        with pytest.raises(DomainError):
            stats.fisher_information(LabeledSamples(np.ones(10), np.arange(10.0)))


class TestMutualInformation:
    def test_independent_near_zero(self):
        rng = np.random.default_rng(2)
        secret = np.repeat([0, 1, 2, 3], 2500)
        leaked = rng.normal(0, 1, size=10000)
        assert stats.mutual_information(LabeledSamples(secret, leaked)) <= 0.05

    def test_identity_hits_entropy(self):
        secret = np.tile([0, 1, 2, 3], 2500).astype(float)
        mi = stats.mutual_information(LabeledSamples(secret, secret))
        assert mi == pytest.approx(2.0, abs=0.05)

    def test_degenerate_flagged(self):
        flags = {}
        mi = stats.mutual_information(
            LabeledSamples(np.repeat([0, 1], 50), np.zeros(100)), flags=flags
        )
        assert mi == 0.0 and flags["degenerate_leaked"]

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            secret = rng.integers(0, 3, 500).astype(float)
            leaked = rng.normal(size=500)
            assert stats.mutual_information(LabeledSamples(secret, leaked)) >= 0.0


class TestPearson:
    def test_identical(self):
        x = np.arange(50.0)
        assert stats.pearson_cc(LabeledSamples(x, x)) == pytest.approx(1.0)

    def test_negated(self):
        x = np.arange(50.0)
        assert stats.pearson_cc(LabeledSamples(x, -x)) == pytest.approx(-1.0)

    def test_symmetric_square_is_uncorrelated(self):
        x = np.linspace(-1, 1, 2001)
        cc = stats.pearson_cc(LabeledSamples(x, x * x))
        assert abs(cc) < 1e-10

    def test_zero_variance_rejected(self):
        with pytest.raises(DomainError):
            stats.pearson_cc(LabeledSamples(np.ones(10), np.arange(10.0)))


class TestRunsTest:
    def test_nist_reference_vector(self):
        bits = np.array([1, 0, 0, 1, 1, 0, 1, 0, 1, 1], dtype=np.uint8)
        assert stats.runs_test(bits) == pytest.approx(0.147232, abs=1e-6)
        assert stats.runs_test(bits) == pytest.approx(runs_test_reference(bits.tolist()), abs=1e-12)

    def test_alternating_fails(self):
        bits = np.tile([0, 1], 500).astype(np.uint8)
        assert stats.runs_test(bits) < 1e-6

    def test_biased_proportion_pretest(self):
        flags = {}
        bits = np.concatenate([np.ones(900, np.uint8), np.zeros(100, np.uint8)])
        assert stats.runs_test(bits, flags=flags) == 0.0
        assert flags["proportion_pretest_failed"]

    def test_uniform_source_accepts(self):
        rng = np.random.default_rng(4)
        bits = (rng.random(4096) < 0.5).astype(np.uint8)
        assert stats.runs_test(bits) > 0.05

    def test_pvalues_uniform_over_repetitions(self):
        rng = np.random.default_rng(5)
        ps = []
        for _ in range(1000):
            bits = (rng.random(1000) < 0.5).astype(np.uint8)
            ps.append(stats.runs_test(bits))
        ks = sps.kstest(ps, "uniform")
        assert ks.pvalue > 0.01


class TestCvm:
    def test_matched_sample_below_critical(self):
        rng = np.random.default_rng(6)
        sample = rng.normal(0, 1, 500)
        w2 = stats.cvm_test(sample, sps.norm.cdf)
        assert w2 < stats.CVM_CRIT_5PCT

    def test_shifted_sample_above_critical(self):
        rng = np.random.default_rng(7)
        sample = rng.normal(1.0, 1, 500)
        assert stats.cvm_test(sample, sps.norm.cdf) > stats.CVM_CRIT_5PCT

    def test_critical_value_matches_simulated_quantile(self):
        rng = np.random.default_rng(8)
        vals = []
        for _ in range(2000):
            sample = rng.uniform(0, 1, 50)
            vals.append(stats.cvm_test(sample, lambda x: np.clip(x, 0, 1)))
        q95 = np.quantile(vals, 0.95)
        assert q95 == pytest.approx(stats.CVM_CRIT_5PCT, abs=0.05)


class TestHeteroskedasticity:
    def test_homoskedastic_calibration(self):
        rng = np.random.default_rng(9)
        rejections = 0
        trials = 300
        for _ in range(trials):
            x = rng.uniform(0, 1, 200)
            resid = rng.normal(0, 1, 200)
            ps = stats.heteroskedasticity_tests(x, resid)
            rejections += ps["bp_p"] < 0.05
        assert rejections / trials < 0.10  # nominal 5% plus binomial noise

    def test_variance_proportional_to_x_detected(self):
        rng = np.random.default_rng(10)
        hits_bp = hits_white = 0
        trials = 100
        for _ in range(trials):
            x = rng.uniform(0.1, 2.0, 500)
            resid = rng.normal(0, np.sqrt(x))
            ps = stats.heteroskedasticity_tests(x, resid)
            hits_bp += ps["bp_p"] < 0.05
            hits_white += ps["white_p"] < 0.05
        assert hits_bp / trials > 0.9
        assert hits_white / trials > 0.9

    def test_collinear_flagged(self):
        flags = {}
        out = stats.heteroskedasticity_tests(np.ones(100), np.arange(100.0), flags=flags)
        assert np.isnan(out["bp_p"]) and flags["collinear"]

    def test_noise_generator_rejects_but_gaussian_control_does_not(self):
        # the bin noise as packed: one variance per pack_bins call of 64 bins
        spec = binpack.NoiseSpec(alpha=0, support_r=10**9, sigma2_max=250_000)
        rng = np.random.default_rng(11)
        cfg = binpack.BinConfig(kappa=1)
        tiles = [binpack.CompressedTile(raw_size=1, payload=np.zeros(1, np.uint8))
                 for _ in range(64)]
        stream = np.array([
            b.noise_reserved
            for _ in range(-(-100_000 // 64))
            for b in binpack.pack_bins(tiles, cfg, spec, rng, assemble=False)[0]
        ])[:100_000]
        x, resid = stats.block_variance_regressor(stream, block=64)
        ps = stats.heteroskedasticity_tests(x, resid)
        assert ps["bp_p"] < 0.05 and ps["white_p"] < 0.05

        control = np.random.default_rng(12).normal(0, 300, 100_000)
        xc, rc = stats.block_variance_regressor(control, block=64)
        pc = stats.heteroskedasticity_tests(xc, rc)
        assert pc["bp_p"] > 0.05 and pc["white_p"] > 0.05


class TestExtractBits:
    def test_constant_fields_dropped(self):
        bits = stats.extract_bits({"gaps": np.full(100, 4096), "counts": np.arange(100)})
        assert bits.size == 100  # only the varying field contributes

    def test_empty_when_all_constant(self):
        assert stats.extract_bits({"gaps": np.full(10, 7)}).size == 0
