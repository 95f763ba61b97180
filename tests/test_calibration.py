import numpy as np
import pytest

from safecert import (
    calibrate,
    certified_lower_bound,
)
from safecert.calibration import BinnedCalibrator


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


def _merge_empty_bins(edges: list[float], counts: np.ndarray) -> list[float]:
    """Merge each empty bin toward its nearest nonempty neighbor, one edge at a time."""
    edges = list(edges)
    while True:
        nonempty = np.flatnonzero(counts)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0 or nonempty.size == 0:
            return edges
        b = int(empty[0])
        dist = np.abs(nonempty - b)
        target = int(nonempty[np.argmin(dist)])
        if target < b:
            del edges[b]
            counts = np.concatenate([counts[: b - 1], [counts[b - 1] + counts[b]], counts[b + 1 :]])
        else:
            del edges[b + 1]
            counts = np.concatenate([counts[:b], [counts[b] + counts[b + 1]], counts[b + 2 :]])


def reference_calibrate(s, y, n_bins, delta_conf):
    """calibrate's binning as an edge-by-edge loop: the quantile dedupe loop
    and _merge_empty_bins above are copied verbatim from the code that
    ``calibrate``'s single pass replaced, which re-binned after a merge.
    Returns the calibrator and whether any bin came out empty."""
    span = float(np.max(s) - np.min(s))
    degenerate = span <= 1e-12
    if degenerate:
        edges = [float(np.min(s)), float(np.max(s))]
    else:
        qs = np.quantile(s, np.linspace(0.0, 1.0, n_bins + 1))
        edges = [float(qs[0])]
        for e in qs[1:]:
            if e > edges[-1]:
                edges.append(float(e))

    bins = np.searchsorted(np.asarray(edges)[1:-1], s, side="right")
    counts = np.bincount(bins, minlength=len(edges) - 1)
    merged = bool(np.any(counts == 0))
    if merged:
        edges = _merge_empty_bins(edges, counts)
        bins = np.searchsorted(np.asarray(edges)[1:-1], s, side="right")
        counts = np.bincount(bins, minlength=len(edges) - 1)

    rates = np.bincount(bins, weights=y) / counts
    widths = np.sqrt(np.log(len(counts) / delta_conf) / (2.0 * counts))
    cal = BinnedCalibrator(
        edges=np.asarray(edges), counts=counts, rates=rates, widths=widths,
        certified=np.maximum(0.0, rates - widths), delta_conf=delta_conf,
        n_cal=s.size, requested_bins=n_bins, degenerate=degenerate,
    )
    return cal, merged


class TestEmptyBins:
    def test_lowest_bin_holds_the_minimum(self):
        """With every quantile but the first on the top value the lowest bin
        still holds the minimum, so no empty run can lead."""
        cal = calibrate(np.array([0.0] + [1.0] * 7), np.ones(8), n_bins=8)
        assert cal.edges.tolist() == [0.0, 0.875, 1.0]
        assert cal.counts.tolist() == [1, 7]

    def test_highest_bin_holds_the_maximum(self):
        """The top bin runs from its lower edge up, so it holds the maximum
        and no empty run can trail."""
        cal = calibrate(np.array([0.0] * 7 + [1.0]), np.ones(8), n_bins=8)
        assert cal.edges.tolist() == [0.0, 0.125, 1.0]
        assert cal.counts.tolist() == [7, 1]

    def test_interior_empty_bin_joins_the_left(self):
        """The quartile between 0 and the tied 1s opens the empty bin [0.75, 1)."""
        cal = calibrate(np.array([0.0, 1.0, 1.0, 2.0]), np.zeros(4), n_bins=4)
        assert cal.edges.tolist() == [0.0, 1.0, 1.25, 2.0]
        assert cal.counts.tolist() == [1, 2, 1]

    def test_empty_run_beside_a_filled_bin_on_its_right_joins_the_left(self):
        """Rounding puts two quantiles between the -0.6 and 0.0 ties, leaving
        the bins [-0.6 + 2e-15, -2e-15) and [-2e-15, 0) empty.  The second
        borders the filled bin [0, 0.2) on its right, yet both join the left."""
        scores = np.repeat([-0.9, -0.6, 0.0, 0.2, 0.4], [12, 17, 9, 6, 7])
        cal = calibrate(scores, np.zeros(51), n_bins=50)
        assert cal.edges.tolist() == [-0.9, -0.6, 0.0, 0.2, 0.4]
        assert cal.counts.tolist() == [12, 17, 9, 13]

    def test_matches_the_edge_by_edge_merge(self):
        """Tie-heavy random sets, n_bins == n in a third of them: the single
        pass gives the loop's calibrator, to the JSON bytes."""
        rng = np.random.default_rng(30)
        merged = 0
        for _ in range(2000):
            n = int(rng.integers(2, 60))
            levels = np.round(rng.uniform(-1, 1, int(rng.integers(1, 8))), int(rng.integers(0, 4)))
            s = rng.choice(levels, size=n)
            if rng.uniform() < 0.2:
                s = s * 1e-11 + rng.uniform(-1, 1)
            n_bins = n if rng.uniform() < 1 / 3 else int(rng.integers(1, n + 1))
            y = (rng.uniform(0, 1, n) < 0.5).astype(float)
            want, did_merge = reference_calibrate(s, y, n_bins, 0.1)
            merged += did_merge
            assert calibrate(s, y, n_bins=n_bins, delta_conf=0.1).to_json() == want.to_json()
        assert merged >= 400


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
        one = certified_lower_bound(cal, np.array([0.5]))
        many = certified_lower_bound(cal, np.array([0.1, 0.5, 0.9]))
        assert one.shape == (1,) and one[0] == many[1]
        assert many.shape == (3,)
        assert np.all(np.diff(many) >= -1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_is_refused(self, bad):
        """searchsorted puts NaN past every edge, which gave it the top bin's bound."""
        scores, outcomes = balanced_set(200)
        cal = calibrate(scores, outcomes, n_bins=5)
        with pytest.raises(ValueError, match=rf"score 0 is not finite \({bad}\)"):
            certified_lower_bound(cal, np.array([bad]))
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
            if certified_lower_bound(cal, np.array([p_test]))[0] > p_test:
                miss += 1
        assert miss / reps <= 0.13
