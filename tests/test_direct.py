import numpy as np
import pytest
from scipy.integrate import quad

from safecert import (
    ErrorBudget,
    KernelSpec,
    SafeRegion,
    TrajectorySet,
    eps1,
    eps2,
    eps3,
    fit_direct,
    gen_dataset,
    lower_bound,
    predict,
    smoothed_safety,
)
from safecert.direct import _mollifier_components
from safecert.kernels import gram_matrix


def make_trajset(states):
    return TrajectorySet(states=np.asarray(states, dtype=float))


UNIT_1D = SafeRegion(low=(0.0,), high=(1.0,), obstacles=())


def mollifier_pdf(y, x, gamma_n, order):
    """Reference smoothing kernel density evaluated pointwise."""
    total = 0.0
    for coef, s in _mollifier_components(gamma_n, order):
        total += coef * np.exp(-0.5 * ((y - x) / s) ** 2) / (s * np.sqrt(2 * np.pi))
    return total


class TestMollifier:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_components_sum_to_one(self, order):
        coefs = [c for c, _ in _mollifier_components(0.3, order)]
        assert sum(coefs) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("gamma_n", [0.05, 0.2, 0.8])
    @pytest.mark.parametrize("order", [1, 2])
    def test_closed_form_matches_quadrature(self, gamma_n, order):
        """1D safe interval, horizon 0: the smoothed label is the integral
        of the mollifier over [0, 1]."""
        for x in (0.12, 0.5, 0.93):
            got = smoothed_safety(UNIT_1D, np.array([[[x]]]), gamma_n, order)[0]
            want, err = quad(mollifier_pdf, 0.0, 1.0, args=(x, gamma_n, order), limit=200)
            assert abs(got - want) < 1e-6 + 10 * err

    def test_boundary_point_sees_half_mass(self):
        got = smoothed_safety(UNIT_1D, np.array([[[0.0]]]), 0.05, 1)
        assert got == pytest.approx([0.5], abs=1e-9)

    def test_obstacle_mass_subtracted(self, region):
        """2D check against a plain Monte Carlo integral of the safe
        indicator under the single-component Gaussian."""
        x = np.array([0.45, 0.35])  # inside the main obstacle, near its edge
        gamma_n = 0.3
        s = gamma_n / np.sqrt(2.0)
        got = smoothed_safety(region, x[None, None], gamma_n, 1)[0]
        rng = np.random.default_rng(0)
        pts = x + s * rng.standard_normal((400_000, 2))
        from safecert import is_safe

        mc = is_safe(region, pts).mean()
        se = np.sqrt(mc * (1 - mc) / len(pts))
        assert abs(got - mc) < 4 * se

    def test_horizon_factorizes_over_steps(self):
        """Per-step smoothing multiplies along the trajectory, so a two-step
        trajectory equals the product of its one-step values."""
        joint = smoothed_safety(UNIT_1D, np.array([[[0.3], [0.7]]]), 0.1, 1)
        steps = smoothed_safety(UNIT_1D, np.array([[[0.3]], [[0.7]]]), 0.1, 1)
        assert joint == pytest.approx([steps.prod()], rel=1e-12)


class TestDirectEstimator:
    def test_single_safe_trajectory_shrinks_by_ridge(self):
        ts = make_trajset([[[-2.0, 0.0], [-1.9, 0.1]]])
        spec = KernelSpec.isotropic(0.7, 2, 0.05)
        from safecert import default_safe_region

        model = fit_direct(spec, ts, default_safe_region())
        assert model.labels.tolist() == [1.0]
        assert predict(model, np.array([[-2.0, 0.0]]))[0] == pytest.approx(1.0 / 1.05, abs=1e-12)

    def test_labels_use_whole_trajectory(self, region):
        states = [
            [[-2.0, 0.0], [-1.9, 0.1], [-1.8, 0.0]],
            [[-2.0, 0.5], [0.5, 0.3], [-1.8, 0.0]],
        ]
        model = fit_direct(KernelSpec.isotropic(0.7, 2, 0.01), make_trajset(states), region)
        assert model.labels.tolist() == [1.0, 0.0]

    def test_predictions_match_linear_solve(self, region, markov_params):
        ts = gen_dataset(markov_params, region, n=40, T=4, seed=21)
        spec = KernelSpec.from_variances((0.772, 1.572), 3.004e-8)
        model = fit_direct(spec, ts, region)
        q = np.array([[-2.0, 0.0], [1.0, 0.8]])
        K = gram_matrix(spec, ts.initial_states)
        kq = gram_matrix(spec, q, ts.initial_states)
        w = np.linalg.solve(K + 40 * spec.lam * np.eye(40), kq.T).T
        assert np.allclose(predict(model, q), w @ model.labels, atol=1e-9)

    def test_raw_predictions_are_not_clipped(self, region, markov_params):
        ts = gen_dataset(markov_params, region, n=120, T=10, seed=3)
        spec = KernelSpec.from_variances((0.986, 0.914), 4.615e-8)
        model = fit_direct(spec, ts, region)
        grid_vals = predict(model, ts.initial_states)
        assert np.min(grid_vals) < 0.0 or np.max(grid_vals) > 1.0


class TestErrorTerms:
    def test_eps1_vanishes_with_bandwidth(self, region, markov_params):
        ts = gen_dataset(markov_params, region, n=50, T=4, seed=13)
        model = fit_direct(KernelSpec.isotropic(0.8, 2, 1e-5), ts, region)
        budget = ErrorBudget(gamma_n=1e-4)
        val = eps1(model, budget, np.array([[0.0, 0.0]]))[0]
        assert 0.0 <= val < 1e-8

    def test_eps1_is_weighted_smoothing_gap(self, region, markov_params):
        ts = gen_dataset(markov_params, region, n=25, T=4, seed=14)
        model = fit_direct(KernelSpec.isotropic(0.8, 2, 1e-4), ts, region)
        budget = ErrorBudget(gamma_n=0.15, smoothing_order=2)
        q = np.array([[-1.0, 0.2]])
        rho_t = smoothed_safety(region, ts.states, 0.15, 2)
        w = model.gram.weights_at(q)
        want = np.abs(w @ (model.labels - rho_t))
        assert eps1(model, budget, q) == pytest.approx(want, abs=1e-14)

    def test_eps2_closed_form(self):
        budget = ErrorBudget(ambiguity=0.1, gamma=0.4, gamma_n=0.2, norm_bound=0.0)
        # ratio 2, exponent d (T + 1) / 2 = 1 for d = 1, T = 1
        assert eps2(budget, norm_smoothed=2.0, d=1, T=1) == pytest.approx(0.1 * 2.0 * 2.0)
        assert eps2(budget, norm_smoothed=2.0, d=2, T=4) == pytest.approx(0.1 * 2.0 * 2.0**5)

    def test_eps2_derives_bandwidth_from_sample_size(self):
        budget = ErrorBudget(ambiguity=0.05, gamma=1.0, beta_exp=0.5)
        # gamma_n = 100^-0.5 = 0.1, ratio = 10, d=1, T=0 -> sqrt(10)
        want = 0.05 * 1.0 * 10 ** 0.5
        assert eps2(budget, norm_smoothed=1.0, d=1, T=0, n=100) == pytest.approx(want)
        with pytest.raises(ValueError):
            eps2(budget, norm_smoothed=1.0, d=1, T=0)

    def test_eps3_matches_quadrature_on_deterministic_grid(self):
        """Feeding a dense deterministic grid as the sampler makes the MC
        L2 estimate a midpoint rule; compare to adaptive quadrature of
        (rho~ - 1)^2 over the safe interval."""
        states = np.array([[[0.5]]])
        model = fit_direct(KernelSpec.isotropic(1.0, 1, 1e-3), make_trajset(states), UNIT_1D)
        gamma_n = 0.2
        budget = ErrorBudget(gamma_n=gamma_n)
        m = 20001

        def sampler(n, rng):
            pts = (np.arange(n) + 0.5) / n
            return pts.reshape(n, 1, 1)

        est = eps3(model, budget, m, seed=0, sampler=sampler)

        def sq_gap(y):
            return (smoothed_safety(UNIT_1D, np.array([[[y]]]), gamma_n, 1)[0] - 1.0) ** 2

        want, err = quad(sq_gap, 0.0, 1.0, limit=200)
        assert est.value == pytest.approx(np.sqrt(want), abs=1e-5)

    def test_eps3_stderr_covers_random_sampling(self):
        states = np.array([[[0.5]]])
        model = fit_direct(KernelSpec.isotropic(1.0, 1, 1e-3), make_trajset(states), UNIT_1D)
        budget = ErrorBudget(gamma_n=0.2)

        def sampler(n, rng):
            return rng.uniform(0, 1, size=(n, 1, 1))

        a = eps3(model, budget, 4000, seed=1, sampler=sampler)
        b = eps3(model, budget, 4000, seed=2, sampler=sampler)
        assert a.stderr > 0
        assert abs(a.value - b.value) < 4 * (a.stderr + b.stderr)

    def test_lower_bound_assembles_budget(self, region, markov_params):
        ts = gen_dataset(markov_params, region, n=40, T=4, seed=17)
        model = fit_direct(KernelSpec.isotropic(0.8, 2, 1e-4), ts, region)
        q = np.array([[-2.0, 0.0]])
        budget = ErrorBudget(ambiguity=0.01, gamma=1.0, gamma_n=0.5, norm_bound=2.0)
        e1 = eps1(model, budget, q)
        e2 = eps2(budget, budget.norm_bound, d=2, T=4)
        got = lower_bound(model, q, budget, eps3_value=0.05)
        assert got == pytest.approx(predict(model, q) - e1 - e2 - 0.05, abs=1e-10)
