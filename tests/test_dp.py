from dataclasses import replace

import numpy as np
import pytest

import safecert.dp
from safecert import (
    DpModel,
    KernelSpec,
    OneStepPairs,
    SafeRegion,
    SpectralConvergenceError,
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
from safecert.kernels import KAPPA, GramSystem, fit_system, gram_matrix


def chain_value_oracle(P: np.ndarray, safe: np.ndarray, T: int) -> np.ndarray:
    """Exact finite-horizon safety values by the matrix-power recursion
    V_0 = (D P)^T D 1 with D = diag(1_S)."""
    D = np.diag(safe.astype(float))
    v = D @ np.ones(len(safe))
    for _ in range(T):
        v = D @ (P @ v)
    return v


def chain_pairs(P: np.ndarray, states: np.ndarray, copies: int) -> tuple[OneStepPairs, np.ndarray]:
    """A finite chain as transition samples: ``copies`` source samples at
    each state, whose next states follow the state's row of P (each row a
    multiple of 1 / copies); returns the pairs and the state index of each
    next state."""
    counts = np.rint(np.asarray(P) * copies).astype(int)
    src = np.repeat(np.arange(len(P)), copies)
    nxt = np.concatenate([np.repeat(np.arange(len(P)), row) for row in counts])
    return OneStepPairs(x=states[src], x_next=states[nxt]), nxt


# chain states far apart against a lengthscale of 0.5, so the Gram matrix is
# block diagonal to rounding; the obstacle makes (8, 8) the unsafe state
CHAIN_STATES = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0], [8.0, 8.0]])
CHAIN_REGION = SafeRegion(low=(-1.0, -1.0), high=(9.0, 9.0), obstacles=(((7.5, 7.5), (8.5, 8.5)),))


def fit_chain(P: np.ndarray, copies: int,
              states: np.ndarray = CHAIN_STATES) -> tuple[DpModel, np.ndarray]:
    """``fit_dp`` on the chain P over ``states``, and the state index of
    each next state.  Each backward step loses a share M lam / copies of
    the value, so lam = 1e-14 keeps the values within rounding of the
    chain's.  The Gram matrix has rank len(P), and with at least 8 copies
    the pivoted build takes one row per state; a dense factor at this lam
    would be ill-conditioned."""
    pairs, nxt = chain_pairs(P, states, copies)
    model = fit_dp(KernelSpec.isotropic(0.5, 2, 1e-14), pairs, CHAIN_REGION)
    assert model.gram.rank == len(P)
    return model, nxt


def dense_rho(model: DpModel) -> float:
    """Spectral radius of diag(1_S(x+)) @ transfer, the transfer built whole
    from the model's pairs by ``explicit_transfer``."""
    pairs = OneStepPairs(x=model.gram.inputs, x_next=model.x_next)
    transfer = explicit_transfer(model.gram.spec, pairs)
    masked = is_safe(model.region, model.x_next)[:, None] * transfer
    return float(np.max(np.abs(np.linalg.eigvals(masked))))


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
    """Chains encoded as duplicated samples (``fit_chain``): the stack at
    each sampled next state is the chain's value at its state."""

    def test_two_state_chain_closed_form(self):
        p_leave = 0.23
        P = np.array([[1 - p_leave, p_leave], [0.0, 1.0]])
        model, nxt = fit_chain(P, 100, CHAIN_STATES[[0, 3]])
        for T in (1, 3, 8):
            v = backward_value(model, T)[0].v
            assert np.max(np.abs(v[nxt == 0] - (1 - p_leave) ** T)) <= 1e-12
            assert np.all(v[nxt == 1] == 0.0)

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
        model, nxt = fit_chain(P, 10)
        for T in (1, 5, 20):
            got = backward_value(model, T)[0].v
            want = chain_value_oracle(P, safe, T)[nxt]
            assert np.max(np.abs(got - want)) < 1e-10

    def test_stack_levels_are_indexed_by_time(self):
        """stack[l] is V_l, whose horizon has T - l steps left."""
        P = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.5, 0.5, 0.0], [0.0, 0.0, 0.5, 0.5],
                      [0.0, 0.0, 0.0, 1.0]])
        safe = np.array([1.0, 1.0, 1.0, 0.0])
        model, nxt = fit_chain(P, 10)
        stack = backward_value(model, 4)
        assert len(stack) == 5
        assert np.array_equal(stack[4].v, safe[nxt])
        for level, vv in enumerate(stack):
            assert np.max(np.abs(vv.v - chain_value_oracle(P, safe, 4 - level)[nxt])) < 1e-12

    def test_horizon_zero_stack_is_the_safety_mask(self):
        model, nxt = fit_chain(np.array([[0.5, 0.0, 0.0, 0.5]] * 4), 10)
        stack = backward_value(model, 0)
        assert len(stack) == 1
        assert np.array_equal(stack[0].v, (nxt == 0).astype(float))


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
        row_sums = model.apply(np.ones(model.n))
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

    @pytest.mark.parametrize("ambiguity, dependent", [
        (0.0, False), (0.002, False), (0.0, True), (0.002, True),
    ], ids=["0.0", "0.002", "dependent-0.0", "dependent-0.002"])
    def test_matrix_free_stack_matches_explicit_transfer(self, ambiguity, dependent):
        """The stack, the query values, the operator applied to the identity
        and the spectral radius against an explicit transfer matrix; on dependent
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
        for level, vv in enumerate(got):
            assert np.max(np.abs(vv.v - want[level])) <= 1e-10
        grid = np.random.default_rng(8).uniform(-3, 3, size=(40, 2))
        want_q = is_safe(region, grid) * np.clip(gram_matrix(spec, grid, pairs.x) @ alpha - pen, 0, 1)
        assert np.max(np.abs(evaluate_dp(model, got, grid) - want_q)) <= 1e-10
        transfer = explicit_transfer(spec, pairs)
        # applied to the identity, the operator rebuilds K(x+, x) whole, matched rows included
        applied = model.apply(np.eye(model.n))
        assert np.max(np.abs(applied - transfer)) <= 1e-10 * np.max(np.abs(transfer))
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

    @pytest.mark.parametrize("ambiguity", [0.0, 0.002])
    @pytest.mark.parametrize("dependent", [False, True], ids=["iid", "dependent"])
    def test_queries_at_the_next_states_give_the_stack(self, one_blas_thread, ambiguity,
                                                       dependent):
        """The step evaluated at the sampled next states as queries gives
        V_0 there: bitwise on iid pairs, whose rows of K(x+, x) are all
        kernel rows, and within 1e-12 on dependent pairs, whose matched rows
        come off the ridge system."""
        if dependent:
            pairs = dependent_pairs(6, n_traj=30)
        else:
            rng = np.random.default_rng(6)
            x = rng.uniform(-2, 2, size=(240, 2))
            pairs = OneStepPairs(x=x, x_next=x + 0.3 * rng.standard_normal((240, 2)))
        region = SafeRegion(low=(-4.0, -4.0), high=(4.0, 4.0), obstacles=(((1.0, 1.0), (2.0, 2.0)),))
        model = fit_dp(KernelSpec.isotropic(0.8, 2, 1e-4), pairs, region, ambiguity=ambiguity)
        assert model.gram.rank is None
        stack = backward_value(model, 6)
        got = evaluate_dp(model, stack, model.x_next)
        assert np.any((got > 0.0) & (got < 1.0))
        if dependent:
            assert np.count_nonzero(model.gram._source >= 0) > 250
            assert np.max(np.abs(got - stack[0].v)) <= 1e-12
        else:
            assert got.tobytes() == stack[0].v.tobytes()

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
        model = replace(random_fitted_model(3, n=60), ambiguity=0.002)
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
        for level, vv in enumerate(stack):
            assert np.array_equal(vv.v, want[level])

    def test_penalized_query_reuses_the_norm_of_v1(self, monkeypatch):
        """One solve for v1 gives both the estimate and the norm in the
        penalty; the result matches the weight-matrix form to rounding."""
        model = replace(random_fitted_model(3, n=60), ambiguity=0.002)
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


class TestBoxFilter:
    """fit_dp fits the pairs whose start lies in the region's closed box."""

    spec = KernelSpec.isotropic(0.8, 2, 1e-4)
    region = SafeRegion(low=(-2.0, -2.0), high=(2.0, 2.0), obstacles=(((1.0, 1.0), (1.5, 1.5)),))

    def stack_bytes(self, model: DpModel) -> list[bytes]:
        return [level.v.tobytes() for level in backward_value(model, 5)]

    def test_pairs_starting_in_the_box_are_the_callers_arrays(self, one_blas_thread):
        """Starts drawn uniform on the box: nothing is dropped, the model
        holds the caller's arrays, and its values are those of the ridge
        system over every pair."""
        rng = np.random.default_rng(4)
        x = rng.uniform(-2, 2, size=(200, 2))
        pairs = OneStepPairs(x=x, x_next=x + 0.3 * rng.standard_normal((200, 2)))
        model = fit_dp(self.spec, pairs, self.region)
        assert model.x_next is pairs.x_next and model.gram.inputs is pairs.x
        whole = DpModel(gram=fit_system(self.spec, pairs.x, pairs.x_next), x_next=pairs.x_next,
                        region=self.region)
        assert self.stack_bytes(model) == self.stack_bytes(whole)

    def test_pairs_starting_outside_the_box_are_dropped(self, one_blas_thread):
        """Dependent pairs whose walks leave the box: the model is, byte for
        byte, the fit of the pairs that start inside it."""
        pairs = dependent_pairs(6, n_traj=30)
        lo, hi = self.region.box_array()
        keep = np.all((pairs.x >= lo) & (pairs.x <= hi), axis=1)
        assert 0 < np.count_nonzero(keep) < keep.size
        model = fit_dp(self.spec, pairs, self.region, ambiguity=0.002)
        kept = fit_dp(self.spec, OneStepPairs(x=pairs.x[keep], x_next=pairs.x_next[keep]),
                      self.region, ambiguity=0.002)
        assert model.gram.inputs.tobytes() == kept.gram.inputs.tobytes()
        assert model.x_next.tobytes() == kept.x_next.tobytes()
        assert self.stack_bytes(model) == self.stack_bytes(kept)
        grid = eval_grid(self.region, (7, 7))
        assert (evaluate_dp(model, backward_value(model, 5), grid).tobytes()
                == evaluate_dp(kept, backward_value(kept, 5), grid).tobytes())

    def test_the_box_is_closed(self):
        """A start on the box's upper corner is kept; one a rounding step
        past it is dropped."""
        hi = np.array([2.0, 2.0])
        x = np.array([[0.0, 0.0], [-2.0, 0.5], hi, [np.nextafter(2.0, 3.0), 0.0]])
        pairs = OneStepPairs(x=x, x_next=0.5 * x)
        model = fit_dp(self.spec, pairs, self.region)
        assert model.gram.inputs.tolist() == x[:3].tolist()
        assert model.x_next.tolist() == (0.5 * x[:3]).tolist()

    def test_no_pair_in_the_box_is_refused_before_the_fit(self, monkeypatch):
        """Every start outside the box: the error names the box and M, where
        the ridge system would only say that its training set is empty."""
        pairs = OneStepPairs(x=np.full((30, 2), 3.0), x_next=np.zeros((30, 2)))
        monkeypatch.setattr("safecert.dp.fit_system", lambda *a: pytest.fail("fitted"))
        with pytest.raises(ValueError, match=r"no pair of M = 30 starts inside the region's box "
                                             r"\[\[-2.0, -2.0\], \[2.0, 2.0\]\]"):
            fit_dp(self.spec, pairs, self.region)

    @pytest.mark.parametrize("x, named", [
        (np.array([[0.0, 0.0], [np.nan, 0.0]]), "pairs.x row 1 is not finite"),
        (np.zeros((2, 3)), "pairs of dimension 3, but a region of dimension 2"),
    ], ids=["nan", "dimension"])
    def test_starts_are_refused_not_dropped(self, x, named):
        """A NaN start or one of another dimension is an error, not a start
        outside the box."""
        with pytest.raises(ValueError, match=named):
            fit_dp(self.spec, OneStepPairs(x=x, x_next=np.zeros_like(x)), self.region)


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
        """Two safe states that stay put with probabilities 0.5 and 0.25
        and otherwise fall into the unsafe one: diag(1_S) P is diagonal on
        the safe states, and rho is its larger entry."""
        P = np.array([[0.5, 0.0, 0.0, 0.5], [0.0, 0.25, 0.0, 0.75], [0.0, 0.0, 0.0, 1.0],
                      [0.0, 0.0, 0.0, 1.0]])
        model, _ = fit_chain(P, 20)
        dec = spectral_decay(model, T=4)
        assert dec.iterations > 0
        assert dec.rho == pytest.approx(0.5, abs=1e-10)
        assert dec.rho_pow_T == pytest.approx(0.5**4, abs=1e-10)

    def test_mask_enters_the_operator(self):
        """The chain's P has rho 1; masking the unsafe state (8, 8) leaves
        the safe state's stay probability 0.4."""
        P = np.array([[0.0, 0.0, 0.0, 1.0]] * 4)
        P[1] = [0.0, 0.4, 0.0, 0.6]
        P[3] = [0.0, 0.1, 0.0, 0.9]
        model, _ = fit_chain(P, 10)
        dec = spectral_decay(model, T=1)
        assert dec.rho == pytest.approx(0.4, abs=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_eigensolver_on_fitted_models(self, seed):
        model = random_fitted_model(seed)
        dec = spectral_decay(model, T=10)
        assert abs(dec.rho - dense_rho(model)) < 1e-8

    def test_matches_dense_eigensolver_on_a_large_fitted_model(self):
        """Past ARPACK's 20-vector Krylov space, so restarts are exercised."""
        model = random_fitted_model(3, n=250)
        dec = spectral_decay(model, T=10)
        assert abs(dec.rho - dense_rho(model)) <= 1e-8
        assert dec.iterations > 0

    @pytest.mark.parametrize("x_next", [
        [[0.3, 0.1]],
        [[0.3, 0.1], [-0.4, 0.5]],
        [[0.3, 0.1], [1.5, 1.5]],  # inside the obstacle
    ], ids=["one-pair", "two-pairs", "two-pairs-one-unsafe"])
    def test_fewer_than_three_pairs_take_the_dense_path(self, x_next):
        """ARPACK cannot run on fewer than 3 states: the operator applied to
        the identity goes to a dense eigensolver."""
        x_next = np.array(x_next)
        x = np.array([[0.0, 0.0], [0.5, 0.2]])[:len(x_next)]
        region = SafeRegion(low=(-4.0, -4.0), high=(4.0, 4.0), obstacles=(((1.0, 1.0), (2.0, 2.0)),))
        model = fit_dp(KernelSpec.isotropic(0.8, 2, 1e-2), OneStepPairs(x=x, x_next=x_next), region)
        dec = spectral_decay(model, T=3)
        assert dec.iterations == 0 and dec.rho > 0.0
        assert abs(dec.rho - dense_rho(model)) <= 1e-12
        assert dec.rho_pow_T == dec.rho ** 3

    def test_restart_limit_raises_with_the_last_estimate(self, monkeypatch):
        """A 200-pair operator takes 41 applications at the default limit;
        one restart is too few, and no eigenvalue has converged by then."""
        model = random_fitted_model(0, n=200)
        monkeypatch.setattr(safecert.dp, "_ARPACK_MAX_RESTARTS", 1)
        with pytest.raises(SpectralConvergenceError, match="within 1 restarts") as exc:
            spectral_decay(model, T=5)
        assert np.isnan(exc.value.last_estimate)

    def test_zero_kernel_operator(self):
        """Every start in the box and every next state past it, so unsafe:
        the masked operator is zero."""
        rng = np.random.default_rng(7)
        x = rng.uniform(-2, 2, size=(30, 2))
        pairs = OneStepPairs(x=x, x_next=x + 5.0)
        region = SafeRegion(low=(-2.0, -2.0), high=(2.0, 2.0), obstacles=())
        model = fit_dp(KernelSpec.isotropic(0.8, 2, 1e-4), pairs, region)
        dec = spectral_decay(model, T=3)
        assert dec.rho == 0.0 and dec.rho_pow_T == 0.0
