import numpy as np
import pytest

from safecert import (
    calibrate,
    certified_lower_bound,
)
from safecert.calibration import _merge_empty_bins


def balanced_set(n: int = 400, seed: int = 0):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0, 1, n)
    outcomes = (rng.uniform(0, 1, n) < scores).astype(float)
    return scores, outcomes


class TestCalibrate:
    def test_quantile_bins_are_balanced(self):
        scores, outcomes = balanced_set()
        cal = calibrate(scores, outcomes, n_bins=10, delta_conf=0.1)
        assert cal.n_bins == 10
        assert np.array_equal(cal.counts, np.full(10, 40))

    def test_width_formula(self):
        scores, outcomes = balanced_set(1000)
        cal = calibrate(scores, outcomes, n_bins=10, delta_conf=0.1)
        want = np.sqrt(np.log(10 / 0.1) / (2 * 100))
        assert np.allclose(cal.widths, want, atol=1e-15)

    def test_certified_is_clamped_rate_minus_width(self):
        scores, outcomes = balanced_set()
        cal = calibrate(scores, outcomes, n_bins=8)
        assert np.allclose(cal.certified, np.maximum(0.0, cal.rates - cal.widths))
        assert np.all(cal.certified >= 0)

    def test_constant_scores_collapse_to_one_bin(self):
        scores = np.full(50, 0.7)
        outcomes = np.zeros(50)
        outcomes[:20] = 1.0
        cal = calibrate(scores, outcomes, n_bins=10)
        assert cal.degenerate
        assert cal.n_bins == 1
        assert cal.rates[0] == pytest.approx(0.4)
        assert cal.bin_of(np.array([0.0, 0.7, 1.0])).tolist() == [0, 0, 0]

    def test_tied_quantiles_are_deduplicated(self):
        scores = np.concatenate([np.zeros(60), np.ones(40)])
        outcomes = np.concatenate([np.zeros(60), np.ones(40)])
        cal = calibrate(scores, outcomes, n_bins=10)
        assert cal.n_bins < 10
        assert np.all(cal.counts > 0)
        assert cal.rates[0] == 0.0
        assert cal.rates[-1] == 1.0

    def test_widths_use_effective_bin_count(self):
        scores = np.concatenate([np.zeros(60), np.ones(40)])
        outcomes = np.zeros(100)
        cal = calibrate(scores, outcomes, n_bins=10, delta_conf=0.1)
        b_eff = cal.n_bins
        want = np.sqrt(np.log(b_eff / 0.1) / (2 * cal.counts))
        assert np.allclose(cal.widths, want)

    def test_fuzz_bins_never_empty(self):
        """Tie-heavy random score sets: after dedup and merging, every bin
        holds at least one point and the counts add up."""
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(10, 200))
            vals = rng.choice(rng.uniform(0, 1, 5), size=n)
            if rng.uniform() < 0.5:
                vals = np.round(vals, 1)
            outcomes = (rng.uniform(0, 1, n) < 0.5).astype(float)
            cal = calibrate(vals, outcomes, n_bins=int(rng.integers(1, 10)))
            assert np.all(cal.counts >= 1)
            assert int(cal.counts.sum()) == n
            assert np.all(np.diff(cal.edges) > 0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            calibrate(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            calibrate(np.array([0.5]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            calibrate(np.array([0.5, 0.6]), np.array([1.0, 0.0]), delta_conf=0.0)
        with pytest.raises(ValueError):
            calibrate(np.array([0.5, 0.6]), np.array([1.0, 0.0]), n_bins=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_is_named(self, bad):
        """A NaN score used to give edges [nan] holding every point."""
        scores = np.linspace(0.0, 1.0, 6)
        scores[4] = bad
        with pytest.raises(ValueError, match=rf"calibration score 4 is not finite \({bad}\)"):
            calibrate(scores, np.ones(6), n_bins=2)

    @pytest.mark.parametrize("bad", [np.nan, 2.0, -1.0, 0.5])
    def test_non_binary_outcome_is_named(self, bad):
        """A NaN outcome used to give its bin a NaN rate and bound; 2.0 was averaged in."""
        outcomes = np.ones(6)
        outcomes[3] = bad
        with pytest.raises(ValueError, match=rf"calibration outcome 3 is not 0 or 1 \({bad}\)"):
            calibrate(np.linspace(0.0, 1.0, 6), outcomes, n_bins=2)


class TestMergeEmptyBins:
    def test_interior_empty_merges_toward_nearest(self):
        edges = [0.0, 0.2, 0.4, 0.6, 1.0]
        counts = np.array([5, 0, 0, 7])
        out = _merge_empty_bins(edges, counts)
        assert len(out) >= 2
        assert out[0] == 0.0 and out[-1] == 1.0

    def test_leading_empty_bin_absorbed_by_right_neighbor(self):
        edges = [0.0, 0.3, 1.0]
        counts = np.array([0, 9])
        out = _merge_empty_bins(edges, counts)
        assert out == [0.0, 1.0]

    def test_trailing_empty_bin_absorbed_by_left_neighbor(self):
        edges = [0.0, 0.7, 1.0]
        counts = np.array([9, 0])
        out = _merge_empty_bins(edges, counts)
        assert out == [0.0, 1.0]


class TestBinLookup:
    def test_out_of_range_scores_use_end_bins(self):
        scores, outcomes = balanced_set()
        cal = calibrate(scores, outcomes, n_bins=5)
        assert cal.bin_of(np.array([-3.0]))[0] == 0
        assert cal.bin_of(np.array([7.0]))[0] == 4
        assert cal.bin_of(np.array([float(cal.edges[-1])]))[0] == 4

    def test_interior_edge_goes_right(self):
        scores, outcomes = balanced_set()
        cal = calibrate(scores, outcomes, n_bins=5)
        e = float(cal.edges[2])
        assert cal.bin_of(np.array([e]))[0] == 2

    def test_certified_lower_bound_shapes(self):
        scores, outcomes = balanced_set()
        cal = calibrate(scores, outcomes, n_bins=5)
        one = certified_lower_bound(cal, np.float64(0.5))
        many = certified_lower_bound(cal, np.array([0.1, 0.5, 0.9]))
        assert isinstance(one, float)
        assert many.shape == (3,)
        assert np.all(np.diff(many) >= -1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_is_refused(self, bad):
        """searchsorted puts NaN past every edge, which gave it the top bin's bound."""
        scores, outcomes = balanced_set(200)
        cal = calibrate(scores, outcomes, n_bins=5)
        with pytest.raises(ValueError, match=rf"score 0 is not finite \({bad}\)"):
            certified_lower_bound(cal, bad)
        with pytest.raises(ValueError, match=rf"score 2 is not finite \({bad}\)"):
            certified_lower_bound(cal, np.array([0.1, 0.5, bad]))


class TestCoverage:
    def test_miscoverage_stays_near_nominal(self):
        """Scores equal the true success probability; over replicates the
        certified bound should undershoot the truth at least 1 - delta of
        the time (Hoeffding makes it conservative in practice)."""
        rng = np.random.default_rng(99)
        miss = 0
        reps = 200
        for _ in range(reps):
            p = rng.uniform(0, 1, 300)
            y = (rng.uniform(0, 1, 300) < p).astype(float)
            cal = calibrate(p, y, n_bins=10, delta_conf=0.1)
            p_test = rng.uniform(0, 1)
            if certified_lower_bound(cal, np.float64(p_test)) > p_test:
                miss += 1
        assert miss / reps <= 0.13
