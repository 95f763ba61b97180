import warnings

import numpy as np
import pytest

from safecert import brier_decomposition, brier_decomposition_mc, excess_rmse, rmse


class TestPointMetrics:
    def test_rmse_hand_case(self):
        pred = np.array([0.0, 1.0, 0.5])
        truth = np.array([0.0, 0.0, 1.0])
        assert rmse(pred, truth) == pytest.approx(np.sqrt((0 + 1 + 0.25) / 3))

    def test_excess_averages_over_overestimating_points_only(self):
        pred = np.array([0.8, 0.2, 0.6])
        truth = np.array([0.5, 0.4, 0.6])
        assert excess_rmse(pred, truth) == pytest.approx(0.3)

    def test_excess_mixed_set(self):
        pred = np.array([0.9, 0.7, 0.1, 0.3])
        truth = np.array([0.5, 0.5, 0.5, 0.3])
        want = np.sqrt((0.4**2 + 0.2**2) / 2)
        assert excess_rmse(pred, truth) == pytest.approx(want)

    def test_excess_zero_when_never_over(self):
        pred = np.array([0.1, 0.2])
        truth = np.array([0.5, 0.2])
        assert excess_rmse(pred, truth) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(3), np.zeros(4))


def loop_decomposition(pred, outcomes, n_bins):
    """Straightforward per-bin reimplementation used as the oracle."""
    pred = np.clip(np.asarray(pred, dtype=float), 0.0, 1.0)
    y = np.asarray(outcomes, dtype=float)
    bins = np.minimum((pred * n_bins).astype(int), n_bins - 1)
    ybar = y.mean()
    rel = res = 0.0
    n = len(y)
    for b in range(n_bins):
        m = bins == b
        if not m.any():
            continue
        w = m.sum() / n
        rel += w * (pred[m].mean() - y[m].mean()) ** 2
        res += w * (y[m].mean() - ybar) ** 2
    unc = ybar * (1 - ybar)
    return rel, res, unc


class TestBrierDecomposition:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(0, 1, 500)
        outcomes = (rng.uniform(0, 1, 500) < pred).astype(float)
        rep = brier_decomposition(pred, outcomes, n_bins=10)
        rel, res, unc = loop_decomposition(pred, outcomes, 10)
        assert rep.rel == pytest.approx(rel, abs=1e-12)
        assert rep.res == pytest.approx(res, abs=1e-12)
        assert rep.unc == pytest.approx(unc, abs=1e-12)

    def test_murphy_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(20, 300))
            pred = rng.uniform(0, 1, n)
            outcomes = (rng.uniform(0, 1, n) < 0.5).astype(float)
            rep = brier_decomposition(pred, outcomes, n_bins=10)
            assert rep.brier_binned == pytest.approx(rep.rel - rep.res + rep.unc, abs=1e-12)

    def test_perfect_binary_predictor(self):
        outcomes = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        rep = brier_decomposition(outcomes.copy(), outcomes, n_bins=10)
        assert rep.brier == 0.0
        assert rep.rel == pytest.approx(0.0, abs=1e-15)
        assert rep.res == pytest.approx(rep.unc, abs=1e-15)
        assert rep.res_norm == pytest.approx(1.0)

    def test_out_of_range_predictions_are_clamped_for_binning(self):
        pred = np.array([-0.2, 1.3, 0.5])
        outcomes = np.array([0.0, 1.0, 1.0])
        rep = brier_decomposition(pred, outcomes, n_bins=10)
        assert np.isfinite(rep.brier)

    @pytest.mark.parametrize("decompose", [brier_decomposition, brier_decomposition_mc])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prediction_rejected(self, decompose, bad):
        """A NaN prediction has no bin: it used to warn and then index out
        of range.  Clamping would turn an infinity into 0 or 1 silently."""
        pred = np.array([0.2, 0.7, bad, 0.4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"prediction 2 is not finite \({bad}\)"):
                decompose(pred, np.array([0.0, 1.0, 1.0, 0.0]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        pred = rng.uniform(0, 1, 120)
        outcomes = (rng.uniform(0, 1, 120) < pred).astype(float)
        perm = rng.permutation(120)
        a = brier_decomposition(pred, outcomes, n_bins=10)
        b = brier_decomposition(pred[perm], outcomes[perm], n_bins=10)
        assert a.brier == pytest.approx(b.brier, abs=1e-15)
        assert a.rel == pytest.approx(b.rel, abs=1e-14)
        assert a.res == pytest.approx(b.res, abs=1e-14)
        assert rmse(pred, outcomes) == pytest.approx(rmse(pred[perm], outcomes[perm]), abs=1e-15)
        assert excess_rmse(pred, outcomes) == pytest.approx(
            excess_rmse(pred[perm], outcomes[perm]), abs=1e-15
        )


class TestBrierAgainstMcTruth:
    def test_equals_expanded_binary_decomposition(self):
        """Each grid point with p_mc = k/m behaves exactly like m binary
        rollouts, k of them safe; expanding and scoring the binary version
        reproduces every field."""
        rng = np.random.default_rng(3)
        m = 20
        n_pts = 80
        k = rng.integers(0, m + 1, n_pts)
        p_mc = k / m
        pred = np.clip(p_mc + rng.normal(0, 0.1, n_pts), 0, 1)

        pred_exp = np.repeat(pred, m)
        y_exp = np.concatenate([
            np.concatenate([np.ones(ki), np.zeros(m - ki)]) for ki in k
        ])
        want = brier_decomposition(pred_exp, y_exp, n_bins=10)
        got = brier_decomposition_mc(pred, p_mc, n_bins=10)
        assert got.brier == pytest.approx(want.brier, abs=1e-12)
        assert got.brier_binned == pytest.approx(want.brier_binned, abs=1e-12)
        assert got.rel == pytest.approx(want.rel, abs=1e-12)
        assert got.res == pytest.approx(want.res, abs=1e-12)
        assert got.unc == pytest.approx(want.unc, abs=1e-12)

    def test_murphy_identity_holds_with_mc_truth(self):
        rng = np.random.default_rng(4)
        pred = rng.uniform(0, 1, 200)
        p_mc = rng.integers(0, 51, 200) / 50
        rep = brier_decomposition_mc(pred, p_mc, n_bins=10)
        assert rep.brier_binned == pytest.approx(rep.rel - rep.res + rep.unc, abs=1e-12)

    def test_perfect_probabilistic_predictor_has_zero_rel(self):
        rng = np.random.default_rng(5)
        p_mc = rng.integers(0, 21, 150) / 20
        rep = brier_decomposition_mc(p_mc.copy(), p_mc, n_bins=10)
        assert rep.rel == pytest.approx(0.0, abs=1e-13)
