import json

import numpy as np
import pytest

from safecert import (
    BarrierCandidate,
    DpModel,
    KernelSpec,
    OneStepPairs,
    SafeRegion,
    check_barrier,
    fit_barrier_candidate,
    fit_dp,
    uniform_mc_oracle,
)

LINE_1D = SafeRegion(
    low=(-2.0,),
    high=(2.0,),
    obstacles=(((-2.0,), (-1.0,)), ((1.0,), (2.0,))),
)
X0_BOX = (np.array([-0.2]), np.array([0.2]))
SIGMA_W = 0.05


def contraction_pairs(n: int, seed: int) -> OneStepPairs:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(n, 1))
    x_next = 0.5 * x + SIGMA_W * rng.standard_normal((n, 1))
    return OneStepPairs(x=x, x_next=x_next)


def contraction_rollout(x0s: np.ndarray, T: int, rng: np.random.Generator) -> np.ndarray:
    n, d = x0s.shape
    out = np.empty((n, T + 1, d))
    out[:, 0] = x0s
    for t in range(T):
        out[:, t + 1] = 0.5 * out[:, t] + SIGMA_W * rng.standard_normal((n, d))
    return out


def quadratic_candidate(offset: float = 0.1) -> BarrierCandidate:
    centers = np.linspace(-2, 2, 41).reshape(-1, 1)
    targets = centers[:, 0] ** 2 + offset
    return fit_barrier_candidate(KernelSpec.isotropic(0.5, 1, 1e-10), centers, targets)


@pytest.fixture(scope="module")
def dp_1d() -> DpModel:
    return fit_dp(KernelSpec.isotropic(0.4, 1, 1e-6), contraction_pairs(500, 3), LINE_1D)


class TestCandidate:
    def test_single_center_norm_is_coefficient(self):
        cand = BarrierCandidate(
            spec=KernelSpec.isotropic(1.0, 1, 1e-3),
            centers=np.array([[0.0]]),
            alpha=np.array([1.7]),
        )
        assert cand.rkhs_norm() == pytest.approx(1.7, abs=1e-14)
        assert cand.value(np.array([[0.0]]))[0] == pytest.approx(1.7)

    def test_two_center_norm_closed_form(self):
        k = np.exp(-0.5)
        a, b = 0.8, -0.3
        cand = BarrierCandidate(
            spec=KernelSpec.isotropic(1.0, 1, 1e-3),
            centers=np.array([[0.0], [1.0]]),
            alpha=np.array([a, b]),
        )
        want = np.sqrt(a * a + b * b + 2 * a * b * k)
        assert cand.rkhs_norm() == pytest.approx(want, abs=1e-12)

    def test_value_is_kernel_expansion(self):
        cand = quadratic_candidate()
        xs = np.array([[-1.5], [0.0], [0.7]])
        manual = np.zeros(3)
        for c, a in zip(cand.centers, cand.alpha):
            manual += a * np.exp(-0.5 * ((xs[:, 0] - c[0]) / 0.5) ** 2)
        assert np.allclose(cand.value(xs), manual, atol=1e-12)

    def test_ridge_fit_hits_targets(self):
        cand = quadratic_candidate()
        got = cand.value(cand.centers)
        want = cand.centers[:, 0] ** 2 + 0.1
        assert np.max(np.abs(got - want)) < 1e-4


class TestCheckBarrier:
    def test_conditions_on_the_contraction(self, dp_1d):
        report = check_barrier(quadratic_candidate(), dp_1d, LINE_1D, X0_BOX, T=5, grids=41)
        assert report.feasible and report.nonneg_ok
        # eta is B at the edge of the initial box, gamma at the unsafe edge
        assert report.eta == pytest.approx(0.2**2 + 0.1, abs=0.02)
        assert report.gamma_lvl == pytest.approx(1.0**2 + 0.1, abs=0.05)
        # one-step drift of x^2 is -0.75 x^2 + sigma^2, maximal near 0
        assert report.beta < 0.05
        assert report.bound is not None
        assert report.bound <= 1.0

    def test_bound_assembles_reported_constants(self, dp_1d):
        report = check_barrier(quadratic_candidate(), dp_1d, LINE_1D, X0_BOX, T=7, grids=41)
        want = 1.0 - (report.eta + max(report.beta, 0.0) * report.horizon) / report.gamma_lvl
        assert report.bound == pytest.approx(want, abs=1e-14)

    def test_bound_sound_against_mc_oracle(self, dp_1d):
        for T in (5, 20):
            report = check_barrier(quadratic_candidate(), dp_1d, LINE_1D, X0_BOX, T=T, grids=41)
            oracle = uniform_mc_oracle(contraction_rollout, LINE_1D, X0_BOX, T, 2000, seed=9)
            assert report.feasible
            assert report.bound <= oracle.value + 3 * oracle.stderr

    def test_bound_decreases_with_horizon_when_drift_positive(self, dp_1d):
        cand = quadratic_candidate()
        reports = [check_barrier(cand, dp_1d, LINE_1D, X0_BOX, T=T, grids=41) for T in (1, 5, 10, 20)]
        assert reports[0].beta > 0
        bounds = [r.bound for r in reports]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_initial_set_overlapping_unsafe_is_infeasible(self, dp_1d):
        wide_x0 = (np.array([-1.5]), np.array([1.5]))
        report = check_barrier(quadratic_candidate(), dp_1d, LINE_1D, wide_x0, T=5, grids=41)
        assert not report.feasible
        assert report.bound is None

    def test_negative_candidate_fails_nonnegativity(self, dp_1d):
        cand = BarrierCandidate(
            spec=KernelSpec.isotropic(0.5, 1, 1e-3),
            centers=np.array([[0.0]]),
            alpha=np.array([-1.0]),
        )
        report = check_barrier(cand, dp_1d, LINE_1D, X0_BOX, T=5, grids=21)
        assert not report.nonneg_ok
        assert not report.feasible
        assert report.bound is None

    def test_requires_obstacles_and_kernel_model(self, dp_1d):
        no_obs = SafeRegion(low=(-2.0,), high=(2.0,), obstacles=())
        with pytest.raises(ValueError):
            check_barrier(quadratic_candidate(), dp_1d, no_obs, X0_BOX, T=5)

    @pytest.mark.parametrize("grids", [1])
    def test_single_point_grid_rejected(self, dp_1d, grids):
        with pytest.raises(ValueError, match="at least 2 points"):
            check_barrier(quadratic_candidate(), dp_1d, LINE_1D, X0_BOX, T=5, grids=grids)
        with pytest.raises(ValueError, match="at least 2 points"):
            uniform_mc_oracle(contraction_rollout, LINE_1D, X0_BOX, T=2, n_mc=10, seed=1,
                              grids=grids)

    def test_ambiguity_raises_beta(self):
        pairs = contraction_pairs(200, 5)
        spec = KernelSpec.isotropic(0.4, 1, 1e-6)
        plain = fit_dp(spec, pairs, LINE_1D)
        robust = fit_dp(spec, pairs, LINE_1D, ambiguity=0.01)
        cand = quadratic_candidate()
        r0 = check_barrier(cand, plain, LINE_1D, X0_BOX, T=5, grids=21)
        r1 = check_barrier(cand, robust, LINE_1D, X0_BOX, T=5, grids=21)
        assert r1.ambiguity_penalty > 0
        assert r1.beta == pytest.approx(r0.beta + r1.ambiguity_penalty, abs=1e-12)

    def test_report_serializes(self, dp_1d):
        report = check_barrier(quadratic_candidate(), dp_1d, LINE_1D, X0_BOX, T=5, grids=21)
        data = json.loads(report.to_json())
        assert data["feasible"] is True
        assert data["horizon"] == 5
        assert data["bound"] == report.bound


class TestMcOracle:
    def test_deterministic_safe_rollout_gives_one(self):
        def frozen(x0s, T, rng):
            return np.repeat(x0s[:, None, :], T + 1, axis=1)

        res = uniform_mc_oracle(frozen, LINE_1D, X0_BOX, T=4, n_mc=50, seed=1, grids=5)
        assert res.value == 1.0
        assert res.stderr == 0.0
        assert res.estimates.shape == (5,)

    def test_reports_minimum_over_grid(self):
        def drift_up(x0s, T, rng):
            out = np.repeat(x0s[:, None, :], T + 1, axis=1)
            out[:, -1] += 0.9  # pushes only the right edge of X0 into the obstacle
            return out

        res = uniform_mc_oracle(drift_up, LINE_1D, X0_BOX, T=2, n_mc=30, seed=1, grids=5)
        assert res.value == 0.0
        assert res.estimates[0] == 1.0
