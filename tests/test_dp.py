from dataclasses import replace

import numpy as np
import pytest

from safecert import (
    DpModel,
    KernelSpec,
    OneStepPairs,
    SafeRegion,
    SsrParams,
    backward_value,
    build_partition,
    eval_grid,
    is_safe,
    evaluate_dp,
    fit_dp,
    spectral_decay,
    ssr_backward,
)
from safecert.kernels import KAPPA, GramSystem, gram_matrix


def chain_value_oracle(P: np.ndarray, safe: np.ndarray, T: int) -> np.ndarray:
    """Exact finite-horizon safety values by the matrix-power recursion
    V_0 = (D P)^T D 1 with D = diag(1_S)."""
    D = np.diag(safe.astype(float))
    v = D @ np.ones(len(safe))
    for _ in range(T):
        v = D @ (P @ v)
    return v


def random_fitted_model(seed: int, n: int = 20) -> DpModel:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(n, 2))
    x_next = x + 0.3 * rng.standard_normal((n, 2))
    region = SafeRegion(low=(-4.0, -4.0), high=(4.0, 4.0), obstacles=(((1.0, 1.0), (2.0, 2.0)),))
    pairs = OneStepPairs(x=x, x_next=x_next)
    return fit_dp(KernelSpec.isotropic(0.8, 2, 1e-4), pairs, region)


def dependent_pairs(seed: int, n_traj: int = 12, steps: int = 10) -> OneStepPairs:
    """Pairs sliced out of random walks the way ``data.mode = dependent``
    slices trajectories: x_i^+ is bitwise the next pair's x except at each
    walk's last step.  One more pair starts again from x_3, which x_2^+ also
    is, so the inputs hold a duplicate and that next state has two sources."""
    rng = np.random.default_rng(seed)
    start = rng.uniform(-2, 2, size=(n_traj, 1, 2))
    walks = np.concatenate([start, 0.3 * rng.standard_normal((n_traj, steps, 2))], axis=1)
    walks = np.cumsum(walks, axis=1)
    x, x_next = walks[:, :-1].reshape(-1, 2), walks[:, 1:].reshape(-1, 2)
    x = np.vstack([x, x[3]])
    x_next = np.vstack([x_next, x[3] + 0.3 * rng.standard_normal(2)])
    return OneStepPairs(x=x, x_next=x_next)


def explicit_transfer(spec: KernelSpec, pairs: OneStepPairs) -> np.ndarray:
    """K(x+, x) (K + M lam I)^{-1}, built whole."""
    m = pairs.x.shape[0]
    a = gram_matrix(spec, pairs.x) + m * spec.lam * np.eye(m)
    return np.linalg.solve(a, gram_matrix(spec, pairs.x_next, pairs.x).T).T


def explicit_backward(spec: KernelSpec, pairs: OneStepPairs, region: SafeRegion,
                      ambiguity: float, T: int) -> tuple[list[np.ndarray], tuple[float, np.ndarray]]:
    """The backward recursion through an explicitly built transfer matrix,
    with the representer norm from alpha^T K alpha: the levels, and the
    penalty and dual coefficients of V_1, which the queries take (T >= 1)."""
    m = pairs.x.shape[0]
    K = gram_matrix(spec, pairs.x)
    a = K + m * spec.lam * np.eye(m)
    transfer = explicit_transfer(spec, pairs)
    safe = is_safe(region, pairs.x_next).astype(float)
    v = safe.copy()
    levels = [v]
    for _ in range(T):
        alpha = np.linalg.solve(a, v)
        pen = ambiguity * KAPPA * np.sqrt(max(float(alpha @ K @ alpha), 0.0))
        v = safe * np.clip(transfer @ v - pen, 0.0, 1.0)
        levels.append(v)
    return levels[::-1], (pen, alpha)


def held_bytes(obj, seen: set | None = None) -> int:
    """Bytes of the arrays reachable from obj's fields; a view counts its
    whole base buffer, once."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(held_bytes(item, seen) for item in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(held_bytes(getattr(obj, name), seen) for name in obj.__dataclass_fields__)
    return 0


class TestExactChains:
    def test_two_state_chain_closed_form(self):
        p_leave = 0.23
        P = np.array([[1 - p_leave, p_leave], [0.0, 1.0]])
        safe = np.array([1.0, 0.0])
        model = DpModel.from_transfer(P, safe)
        for T in (1, 3, 8):
            stack = backward_value(model, T)
            assert stack[0].v[0] == pytest.approx((1 - p_leave) ** T, abs=1e-12)
            assert stack[0].v[1] == 0.0

    def test_four_state_chain_matches_matrix_power(self):
        P = np.array(
            [
                [0.5, 0.3, 0.1, 0.1],
                [0.0, 0.6, 0.2, 0.2],
                [0.1, 0.1, 0.7, 0.1],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        safe = np.array([1.0, 1.0, 1.0, 0.0])
        model = DpModel.from_transfer(P, safe)
        for T in (1, 5, 20):
            got = backward_value(model, T)[0].v
            want = chain_value_oracle(P, safe, T)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_stack_levels_are_indexed_by_time(self):
        P = np.eye(3)
        model = DpModel.from_transfer(P, np.ones(3))
        stack = backward_value(model, 4)
        assert [vv.level for vv in stack] == [0, 1, 2, 3, 4]
        assert np.array_equal(stack[4].v, np.ones(3))

    def test_horizon_zero_stack_is_the_safety_mask(self):
        model = DpModel.from_transfer(np.eye(2), np.array([1.0, 0.0]))
        stack = backward_value(model, 0)
        assert len(stack) == 1
        assert np.array_equal(stack[0].v, np.array([1.0, 0.0]))


class TestKernelChainEncoding:
    """A finite chain pushed through the full kernel pipeline by duplicating
    transition samples; well-separated states make the Gram matrix block
    diagonal, so the transfer matrix recovers empirical frequencies."""

    region = SafeRegion(
        low=(-1.0, -1.0), high=(9.0, 9.0), obstacles=(((-0.5, 7.5), (0.5, 8.5)),)
    )
    s0 = np.array([0.0, 0.0])
    s1 = np.array([8.0, 0.0])
    s2 = np.array([0.0, 8.0])  # inside the obstacle

    def build_pairs(self) -> OneStepPairs:
        x = np.array([self.s0] * 10 + [self.s1] * 10 + [self.s2] * 10)
        x_next = np.array(
            [self.s1] * 7 + [self.s2] * 3 + [self.s1] * 10 + [self.s2] * 10
        )
        return OneStepPairs(x=x, x_next=x_next)

    def fit(self) -> DpModel:
        return fit_dp(KernelSpec.isotropic(0.5, 2, 1e-7), self.build_pairs(), self.region)

    def test_transfer_rows_are_nearly_stochastic(self):
        model = self.fit()
        row_sums = model.transfer.sum(axis=1)
        assert np.max(np.abs(row_sums - 1.0)) < 1e-3

    def test_recovers_chain_probabilities(self):
        model = self.fit()
        for T in (1, 4, 9):
            stack = backward_value(model, T)
            v0, v2 = evaluate_dp(model, stack, np.array([self.s0, self.s2]))
            assert v0 == pytest.approx(0.7, abs=1e-3)
            assert v2 == 0.0

    def test_horizon_zero_is_membership(self):
        model = self.fit()
        stack = backward_value(model, 0)
        assert evaluate_dp(model, stack, np.array([self.s0, self.s2])).tolist() == [1.0, 0.0]


class TestFittedModels:
    def test_values_stay_in_unit_interval(self):
        model = random_fitted_model(1)
        for vv in backward_value(model, 12):
            assert np.all(vv.v >= 0.0) and np.all(vv.v <= 1.0)

    def test_ambiguity_never_increases_a_single_step(self):
        """One backward step from a shared terminal vector: the penalty only
        subtracts, so values cannot rise.  (Deeper horizons lose this
        pointwise guarantee because the kernel weights carry signs: a
        penalized, hence smaller, v_{l+1} can raise entries of M v_{l+1}
        where the weights are negative.)"""
        rng = np.random.default_rng(2)
        x = rng.uniform(-2, 2, size=(30, 2))
        x_next = x + 0.3 * rng.standard_normal((30, 2))
        region = SafeRegion(low=(-4.0, -4.0), high=(4.0, 4.0), obstacles=(((1.0, 1.0), (2.0, 2.0)),))
        pairs = OneStepPairs(x=x, x_next=x_next)
        spec = KernelSpec.isotropic(0.8, 2, 1e-4)
        plain = fit_dp(spec, pairs, region)
        mild = fit_dp(spec, pairs, region, ambiguity=0.02)
        harsh = fit_dp(spec, pairs, region, ambiguity=0.2)
        grid = rng.uniform(-3, 3, size=(50, 2))
        stacks = {m.ambiguity: backward_value(m, 1) for m in (plain, mild, harsh)}
        v0 = {eps: s[0].v for eps, s in stacks.items()}
        assert np.all(v0[0.02] <= v0[0.0] + 1e-12)
        assert np.all(v0[0.2] <= v0[0.02] + 1e-12)
        q = {m.ambiguity: evaluate_dp(m, stacks[m.ambiguity], grid) for m in (plain, mild, harsh)}
        assert np.all(q[0.02] <= q[0.0] + 1e-12)
        assert np.all(q[0.2] <= q[0.02] + 1e-12)

    def test_unsafe_queries_are_zero(self):
        model = random_fitted_model(3)
        stack = backward_value(model, 4)
        assert evaluate_dp(model, stack, np.array([[1.5, 1.5], [5.0, 0.0]])).tolist() == [0.0, 0.0]

    def test_batch_evaluation_shape(self):
        model = random_fitted_model(4)
        stack = backward_value(model, 3)
        out = evaluate_dp(model, stack, np.zeros((7, 2)))
        assert out.shape == (7,)
        assert np.all((out >= 0) & (out <= 1))

    def test_chain_model_rejects_query_evaluation(self):
        model = DpModel.from_transfer(np.eye(2), np.ones(2))
        stack = backward_value(model, 1)
        with pytest.raises(ValueError):
            evaluate_dp(model, stack, np.zeros((1, 2)))

    @pytest.mark.parametrize("ambiguity, dependent", [
        (0.0, False), (0.002, False), (0.0, True), (0.002, True),
    ], ids=["0.0", "0.002", "dependent-0.0", "dependent-0.002"])
    def test_matrix_free_stack_matches_explicit_transfer(self, ambiguity, dependent):
        """The stack, the query values, the transfer diagnostic and the
        spectral radius against an explicit transfer matrix; on dependent
        pairs most rows of K(x+, x) come off the ridge system instead."""
        rng = np.random.default_rng(5)
        if dependent:
            pairs = dependent_pairs(5)
        else:
            x = rng.uniform(-2, 2, size=(120, 2))
            pairs = OneStepPairs(x=x, x_next=x + 0.3 * rng.standard_normal((120, 2)))
        region = SafeRegion(low=(-4.0, -4.0), high=(4.0, 4.0), obstacles=(((1.0, 1.0), (2.0, 2.0)),))
        spec = KernelSpec.isotropic(0.8, 2, 1e-4)
        T = 8
        model = fit_dp(spec, pairs, region, ambiguity=ambiguity)
        matched = np.count_nonzero(model.gram._source >= 0)
        assert (matched > 100) if dependent else (matched == 0)
        got = backward_value(model, T)
        want, (pen, alpha) = explicit_backward(spec, pairs, region, ambiguity, T)
        assert np.any((got[0].v > 0.0) & (got[0].v < 1.0))
        for vv in got:
            assert np.max(np.abs(vv.v - want[vv.level])) <= 1e-10
        grid = np.random.default_rng(8).uniform(-3, 3, size=(40, 2))
        want_q = is_safe(region, grid) * np.clip(gram_matrix(spec, grid, pairs.x) @ alpha - pen, 0, 1)
        assert np.max(np.abs(evaluate_dp(model, got, grid) - want_q)) <= 1e-10
        transfer = explicit_transfer(spec, pairs)
        # the diagnostic rebuilds K(x+, x) whole, matched rows included
        assert np.max(np.abs(model.transfer - transfer)) <= 1e-10 * np.max(np.abs(transfer))
        dense = model.safe_mask_next[:, None] * transfer
        assert abs(spectral_decay(model, T).rho - np.max(np.abs(np.linalg.eigvals(dense)))) <= 1e-10

    def test_iid_apply_is_the_full_product(self, one_blas_thread):
        """With no next state among the inputs every row is a stored kernel
        row, and apply keeps the bytes of K(x+, x) @ (K + M lam I)^{-1} v."""
        rng = np.random.default_rng(10)
        x = rng.uniform(-2, 2, size=(300, 2))
        pairs = OneStepPairs(x=x, x_next=x + 0.3 * rng.standard_normal((300, 2)))
        region = SafeRegion(low=(-4.0, -4.0), high=(4.0, 4.0), obstacles=())
        spec = KernelSpec.isotropic(0.8, 2, 1e-4)
        model = fit_dp(spec, pairs, region)
        assert not np.any(model.gram._source >= 0)
        v = rng.uniform(0, 1, size=300)
        want = gram_matrix(spec, pairs.x_next, pairs.x) @ model.gram.solve(v)
        assert model.apply(v).tobytes() == want.tobytes()

    def test_matched_next_states_are_found_by_their_bytes(self):
        """The first bitwise-equal input is the source; a next state within
        rounding of an input, or -0.0 against +0.0, is not matched."""
        x = np.array([[0.5, 1.0], [0.0, 2.0], [0.5, 1.0], [0.1, 0.2]])
        x_next = np.array([[0.5, 1.0], [np.nextafter(0.1, 1.0), 0.2], [-0.0, 2.0],
                           [0.1, 0.2]])
        region = SafeRegion(low=(-4.0, -4.0), high=(4.0, 4.0), obstacles=())
        model = fit_dp(KernelSpec.isotropic(0.8, 2, 1e-2), OneStepPairs(x=x, x_next=x_next), region)
        assert model.gram._source.tolist() == [0, -1, -1, 3]
        assert model.gram.rank is None and model.gram._extra.shape == (2, 4)

    def test_penalized_pass_solves_once_per_level(self, monkeypatch):
        model = random_fitted_model(3, n=60)
        model.ambiguity = 0.002
        T = 6
        # the recursion as two separate solves per level: norm, then transfer
        v = model.safe_mask_next.copy()
        want = {T: v}
        for level in range(T - 1, -1, -1):
            pen = model.ambiguity * KAPPA * model.gram.representer_norm(v, model.gram.solve(v))
            v = model.safe_mask_next * np.clip(model.apply(v) - pen, 0.0, 1.0)
            want[level] = v
        calls = []
        solve = GramSystem.solve
        monkeypatch.setattr(GramSystem, "solve", lambda self, b: calls.append(1) or solve(self, b))
        stack = backward_value(model, T)
        assert len(calls) == T
        for vv in stack:
            assert np.array_equal(vv.v, want[vv.level])

    def test_penalized_query_reuses_the_norm_of_v1(self, monkeypatch):
        """One solve for v1 gives both the estimate and the norm in the
        penalty; the result matches the weight-matrix form to rounding."""
        model = random_fitted_model(3, n=60)
        model.ambiguity = 0.002
        stack = backward_value(model, 4)
        grid = np.random.default_rng(7).uniform(-3, 3, size=(25, 2))
        v1 = stack[1].v
        pen = model.ambiguity * KAPPA * model.gram.representer_norm(v1, model.gram.solve(v1))
        want = is_safe(model.region, grid) * np.clip(model.gram.weights_at(grid) @ v1 - pen, 0.0, 1.0)
        calls = []
        solve = GramSystem.solve
        monkeypatch.setattr(GramSystem, "solve", lambda self, b: calls.append(1) or solve(self, b))
        got = evaluate_dp(model, stack, grid)
        assert len(calls) == 1
        assert np.any((got > 0.0) & (got < 1.0))
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_fitted_model_holds_a_packed_factor_and_k_next(self):
        """The packed Cholesky factor (n(n+1)/2 doubles, n = M rounded up to
        16) and K(x+, x): 4 n(n+1) + 8 M^2, which is 1.5 * 8 M^2 + O(M)
        bytes; no Gram matrix, no transfer."""
        rng = np.random.default_rng(6)
        m = 300
        n = -(-m // 16) * 16
        x = rng.uniform(-2, 2, size=(m, 2))
        x_next = x + 0.3 * rng.standard_normal((m, 2))
        region = SafeRegion(low=(-4.0, -4.0), high=(4.0, 4.0), obstacles=())
        pairs = OneStepPairs(x=x, x_next=x_next)
        model = fit_dp(KernelSpec.isotropic(0.8, 2, 1e-4), pairs, region)
        assert held_bytes(model) <= 4 * n * (n + 1) + 8 * m * m + 64 * m

    def test_dependent_model_holds_k_next_at_unmatched_rows_only(self):
        """The packed Cholesky factor and the rows of K(x+, x) whose next
        state is not a training input: 4 n(n+1) + 8 M n_unmatched bytes for
        n = M rounded up to 16, not 16 M^2."""
        pairs = dependent_pairs(6, n_traj=30, steps=10)
        m = pairs.x.shape[0]
        n = -(-m // 16) * 16
        region = SafeRegion(low=(-4.0, -4.0), high=(4.0, 4.0), obstacles=())
        model = fit_dp(KernelSpec.isotropic(0.8, 2, 1e-4), pairs, region)
        unmatched = int(np.count_nonzero(model.gram._source < 0))
        assert unmatched == 31
        assert held_bytes(model) <= 4 * n * (n + 1) + 8 * m * unmatched + 64 * m

    @pytest.mark.parametrize("x_next, named", [
        (np.array([[0.0, 0.0], [np.nan, 0.0], [0.0, np.inf]]), "row 1 "),
        (np.zeros((2, 2)), r"shape \(2, 2\), but pairs.x has \(3, 2\)"),
        (np.zeros((3, 1)), r"shape \(3, 1\), but pairs.x has \(3, 2\)"),
    ], ids=["nan", "row-count", "dimension"])
    def test_bad_next_states_are_refused_before_the_fit(self, x_next, named, monkeypatch):
        """A NaN next state used to fit and then fail in the first backward
        solve as "right-hand side must not contain infs or NaNs"."""
        pairs = OneStepPairs(x=np.zeros((3, 2)), x_next=x_next)
        region = SafeRegion(low=(-1.0, -1.0), high=(1.0, 1.0), obstacles=())
        monkeypatch.setattr("safecert.dp.fit_system", lambda *a: pytest.fail("fitted"))
        with pytest.raises(ValueError, match=named):
            fit_dp(KernelSpec.isotropic(1.0, 2, 1e-2), pairs, region)

    def test_negative_ambiguity_rejected(self):
        pairs = OneStepPairs(x=np.zeros((3, 2)), x_next=np.zeros((3, 2)))
        region = SafeRegion(low=(-1.0, -1.0), high=(1.0, 1.0), obstacles=())
        with pytest.raises(ValueError):
            fit_dp(KernelSpec.isotropic(1.0, 2, 1e-2), pairs, region, ambiguity=-0.1)


@pytest.fixture(scope="module")
def desk_models(desk_pairs, desk_spec, region) -> tuple[DpModel, DpModel]:
    """(low rank, dense) dp models of the desk pairs, the dense one fitted
    with the rank cap at zero."""
    low = fit_dp(desk_spec, desk_pairs, region)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("safecert.kernels._RANK_SHARE", desk_pairs.x.shape[0] + 1)
        dense = fit_dp(desk_spec, desk_pairs, region)
    return low, dense


class TestLowRankModels:
    @pytest.mark.parametrize("ambiguity", [0.0, 1e-5])
    def test_backward_pass_and_queries_match_the_dense_core(self, desk_models, region, ambiguity):
        """The low-rank transfer L+^T (Lx alpha) and Woodbury solves give the
        value stack and V0 on a 20 x 20 grid of the dense core within 1e-8,
        with and without the norm penalty."""
        low, dense = (replace(model, ambiguity=ambiguity) for model in desk_models)
        assert low.gram.rank is not None and dense.gram.rank is None
        got, want = backward_value(low, 15), backward_value(dense, 15)
        assert max(np.max(np.abs(g.v - w.v)) for g, w in zip(got, want)) <= 1e-8
        grid = eval_grid(region, (20, 20))
        v0 = evaluate_dp(low, got, grid)
        assert np.any((v0 > 0.0) & (v0 < 1.0))
        assert np.max(np.abs(v0 - evaluate_dp(dense, want, grid))) <= 1e-8

    def test_low_rank_model_holds_its_rows_and_core(self, desk_models):
        """Lx and L+ (m x M and m x n_unmatched) and the m x m core:
        8 m (M + n_unmatched) + 8 m^2 + O(M) bytes, with no packed factor
        and no rows of K(x+, x)."""
        low, dense = desk_models
        m, M = low.gram.rank, low.n
        unmatched = int(np.count_nonzero(low.gram._source < 0))
        assert unmatched == M
        assert held_bytes(low) <= 8 * m * (M + unmatched) + 8 * m * m + 64 * M
        assert 5 * held_bytes(low) < held_bytes(dense)

    def test_tiny_lengthscale_model_stays_dense(self):
        """At a lengthscale far below the spacing of the pairs the pivoted
        build's residual hardly falls and its rows are dropped: the model
        holds the packed factor and K(x+, x) as before, and applies the
        transfer with the bytes of K(x+, x) @ (K + M lam I)^{-1} v."""
        rng = np.random.default_rng(44)
        m = 400
        n = -(-m // 16) * 16
        x = rng.uniform(-2, 2, size=(m, 2))
        pairs = OneStepPairs(x=x, x_next=x + 0.3 * rng.standard_normal((m, 2)))
        region = SafeRegion(low=(-4.0, -4.0), high=(4.0, 4.0), obstacles=())
        spec = KernelSpec.isotropic(0.02, 2, 1e-4)
        model = fit_dp(spec, pairs, region)
        assert model.gram.rank is None
        assert held_bytes(model) <= 4 * n * (n + 1) + 8 * m * m + 64 * m
        v = rng.uniform(0, 1, size=m)
        want = gram_matrix(spec, pairs.x_next, pairs.x) @ model.gram.solve(v)
        assert model.apply(v).tobytes() == want.tobytes()


def _ssr_with_slack(delta) -> np.ndarray:
    part = build_partition(SafeRegion(low=(0.0, 0.0), high=(1.0, 1.0)), (2, 2))
    return ssr_backward(np.full((4, 4), 0.25), part, SsrParams(delta=delta), 2)


def _fit_with_ambiguity(ambiguity: float) -> DpModel:
    pairs = OneStepPairs(x=np.zeros((3, 2)), x_next=np.zeros((3, 2)))
    region = SafeRegion(low=(-1.0, -1.0), high=(1.0, 1.0))
    return fit_dp(KernelSpec.isotropic(1.0, 2, 1e-2), pairs, region, ambiguity=ambiguity)


@pytest.mark.parametrize("build, named", [
    # NaN slack used to pass the range check and turn every ssr value into NaN
    (lambda: _ssr_with_slack(np.nan), "delta"),
    # one slack per cell is refused as an array, NaN entries or not
    (lambda: _ssr_with_slack(np.array([0.0, np.nan, 0.1, 0.1])), "delta"),
    # a NaN ambiguity used to fail only at the first backward step's solve
    (lambda: _fit_with_ambiguity(np.nan), "ambiguity"),
    (lambda: _fit_with_ambiguity(np.inf), "ambiguity"),
], ids=["ssr-nan", "ssr-nan-cell", "fit-nan", "fit-inf"])
def test_non_finite_slack_or_ambiguity_is_refused(build, named):
    with pytest.raises(ValueError, match=named):
        build()


class TestSpectralDecay:
    def test_diagonal_matrix(self):
        model = DpModel.from_transfer(np.diag([0.5, 0.25]), np.ones(2))
        dec = spectral_decay(model, T=4)
        assert dec.rho == pytest.approx(0.5, abs=1e-10)
        assert dec.rho_pow_T == pytest.approx(0.5**4, abs=1e-10)

    def test_rotation_pair_handled(self):
        """A pure rotation never settles under plain power iteration; the
        two-dimensional Ritz step reads the magnitude off the invariant
        plane."""
        model = DpModel.from_transfer(np.array([[0.0, -0.8], [0.8, 0.0]]), np.ones(2))
        dec = spectral_decay(model, T=2)
        assert dec.rho == pytest.approx(0.8, abs=1e-10)

    def test_zero_operator(self):
        model = DpModel.from_transfer(np.zeros((3, 3)), np.ones(3))
        assert spectral_decay(model, T=5).rho == 0.0

    def test_mask_enters_the_operator(self):
        transfer = np.array([[0.9, 0.0], [0.0, 0.4]])
        model = DpModel.from_transfer(transfer, np.array([0.0, 1.0]))
        dec = spectral_decay(model, T=1)
        assert dec.rho == pytest.approx(0.4, abs=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_eigensolver_on_fitted_models(self, seed):
        model = random_fitted_model(seed)
        a = model.safe_mask_next[:, None] * model.transfer
        want = float(np.max(np.abs(np.linalg.eigvals(a))))
        dec = spectral_decay(model, T=10)
        assert abs(dec.rho - want) < 1e-8


    def test_matches_dense_eigensolver_on_a_large_fitted_model(self):
        """Past ARPACK's 20-vector Krylov space, so restarts are exercised."""
        model = random_fitted_model(3, n=250)
        want = float(np.max(np.abs(np.linalg.eigvals(model.safe_mask_next[:, None] * model.transfer))))
        dec = spectral_decay(model, T=10)
        assert abs(dec.rho - want) <= 1e-8
        assert dec.iterations > 0

    def test_zero_kernel_operator(self):
        """Every sampled next state unsafe: the masked operator is zero."""
        rng = np.random.default_rng(7)
        x = rng.uniform(-2, 2, size=(30, 2))
        pairs = OneStepPairs(x=x, x_next=x + 0.1)
        region = SafeRegion(low=(5.0, 5.0), high=(6.0, 6.0), obstacles=())
        model = fit_dp(KernelSpec.isotropic(0.8, 2, 1e-4), pairs, region)
        dec = spectral_decay(model, T=3)
        assert dec.rho == 0.0 and dec.rho_pow_T == 0.0
