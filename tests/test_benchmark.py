import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

import safecert.benchmark as bm
from safecert import (
    KernelSpec,
    OneStepPairs,
    SafeRegion,
    SynthSystemParams,
    TrajectorySet,
    build_partition,
    default_safe_region,
    eval_grid,
    extract_onestep_pairs,
    fit_dp,
    gen_dataset,
    is_safe,
    mc_ground_truth,
    simulate_batch,
    trajectory_safe,
)
from safecert.benchmark import _MC_BLOCK, SATURATION, _drift
from safecert.rng import stream


def recover_noise(params: SynthSystemParams, states: np.ndarray) -> np.ndarray:
    """Invert the Euler step to read the latent disturbance off a batch
    of trajectories: z_t = x_{t+1} - x_t - h * f(x_t)."""
    x, x_next = states[:, :-1], states[:, 1:]
    return x_next - x - params.h * np.stack(_drift(x[..., 0], x[..., 1]), axis=-1)


def stepwise_rollout(params: SynthSystemParams, x0s: np.ndarray, T: int,
                     rng: np.random.Generator) -> np.ndarray:
    """The Euler-Maruyama recursion with its noise drawn step by step: (n, 2)
    standard normals for z_0, then (n, 2) more after each step.  The drift is
    the library's own, so the comparison tests the batching, not the cube."""
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    n = x0s.shape[0]
    out = np.empty((n, T + 1, 2))
    out[:, 0] = np.clip(x0s, -SATURATION, SATURATION)
    z = params.sigma * rng.standard_normal((n, 2))
    w_scale = params.sigma * np.sqrt(1.0 - params.alpha ** 2)
    for t in range(T):
        x = out[:, t]
        drift = np.stack(_drift(x[:, 0], x[:, 1]), axis=-1)
        out[:, t + 1] = np.clip(x + params.h * drift + z, -SATURATION, SATURATION)
        fb = params.beta_c * np.tanh(params.gamma_c * x[:, 0])
        z = params.alpha * (z + fb[:, None]) + w_scale * rng.standard_normal((n, 2))
    return out


class PointStreams:
    """A generator's ``standard_normal`` over the streams of several points:
    each (n, 2) draw takes ``rows`` consecutive rows from each stream in
    turn, so each point's rows are its own step-by-step draws."""

    def __init__(self, rngs: list[np.random.Generator], rows: int):
        self.rngs, self.rows = rngs, rows

    def standard_normal(self, shape: tuple[int, int]) -> np.ndarray:
        return np.concatenate([rng.standard_normal((self.rows, shape[1])) for rng in self.rngs])


def stepwise_safety(params: SynthSystemParams, region: SafeRegion, points: np.ndarray,
                    horizons: tuple[int, ...], n_mc: int,
                    rngs: list[np.random.Generator]) -> np.ndarray:
    """The share of each point's ``n_mc`` step-by-step rollouts, drawn from
    its own stream, that stay safe through each horizon: (len(horizons),
    len(points))."""
    rolls = stepwise_rollout(params, np.repeat(points, n_mc, axis=0), max(horizons),
                             PointStreams(rngs, n_mc))
    safe = broadcast_safe(region, rolls.reshape(-1, 2)).reshape(len(points), n_mc, -1)
    return np.array([safe[..., :T + 1].all(axis=2).mean(axis=1) for T in horizons])


# systems that differ in every value the rollout reads
SYSTEMS = (
    SynthSystemParams(alpha=0.0),
    SynthSystemParams(alpha=0.95),
    SynthSystemParams(alpha=0.5, sigma=0.3, h=0.05, beta_c=0.4, gamma_c=2.0),
)


def broadcast_safe(region: SafeRegion, pts: np.ndarray) -> np.ndarray:
    """Safe-set membership of the rows of ``pts`` by broadcasting each box."""
    lo, hi = region.box_array()
    ok = np.all((pts >= lo) & (pts <= hi), axis=1)
    for olow, ohigh in region.obstacles:
        ok &= ~np.all((pts >= np.asarray(olow)) & (pts <= np.asarray(ohigh)), axis=1)
    return ok


def face_points(box: SafeRegion) -> np.ndarray:
    """Every face coordinate, a point between each pair and a point just past
    each end, in every combination across the axes: (m, d), C-ordered."""
    faces = sorted({*box.low, *box.high, *(v for ob in box.obstacles for b in ob for v in b)})
    values = sorted({*faces, *np.convolve(faces, [0.5, 0.5], "valid"),
                     faces[0] - 1e-12, faces[-1] + 1e-12})
    mesh = np.meshgrid(*[values] * box.dim, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, box.dim)


class TestRegion:
    def test_default_geometry(self, region):
        assert region.dim == 2
        lo, hi = region.box_array()
        assert np.array_equal(lo, [-3.0, -2.0])
        assert np.array_equal(hi, [2.5, 1.0])
        assert len(region.obstacles) == 3

    def test_box_interior_and_boundary_are_safe(self, region):
        pts = np.array([[-2.0, 0.5], [-3.0, -2.0], [2.5, 1.0]])
        assert is_safe(region, pts).tolist() == [True, True, True]

    def test_every_reader_applies_one_closed_box(self, region):
        """The box's corners and face midpoints, away from the obstacles, are
        in it and a rounding step past any face they lie on is out of it, for
        ``in_box``, ``is_safe``, the pairs ``fit_dp`` keeps and the in-box
        flag of ``Partition.locate`` alike."""
        lo, hi = region.box_array()
        levels = np.stack([lo, 0.5 * (lo + hi), hi], axis=1)
        picks = [(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)]
        inside = np.array([[levels[0, i], levels[1, j]] for i, j in picks])
        outside = []
        for p, k in itertools.product(inside, range(2)):
            for face, away in ((lo[k], -np.inf), (hi[k], np.inf)):
                if p[k] == face:
                    outside.append(p.copy())
                    outside[-1][k] = np.nextafter(face, away)
        pts = np.vstack([inside, outside])
        verdict = [True] * len(inside) + [False] * len(outside)
        assert len(inside) == 8 and len(outside) == 12
        assert region.in_box(pts).tolist() == verdict
        assert is_safe(region, pts).tolist() == verdict
        model = fit_dp(KernelSpec.isotropic(0.8, 2, 1e-4), OneStepPairs(x=pts, x_next=0.5 * pts),
                       region)
        assert model.gram.inputs.tolist() == inside.tolist()
        assert build_partition(region, (4, 4)).locate(pts)[1].tolist() == verdict

    def test_outside_box_unsafe(self, region):
        pts = np.array([[2.51, 0.0], [0.0, -2.01]])
        assert is_safe(region, pts).tolist() == [False, False]

    def test_obstacle_boundary_unsafe(self, region):
        # obstacles are closed boxes, so their edges count as collisions
        pts = np.array([[0.4, 0.2], [0.6, 0.6], [-1.5, -1.5], [0.39999, 0.2], [0.5, 0.19999]])
        assert is_safe(region, pts).tolist() == [False, False, False, True, True]

    def test_batch_shape(self, region):
        pts = np.array([[0.0, 0.0], [0.5, 0.3], [9.0, 9.0]])
        flags = is_safe(region, pts)
        assert flags.tolist() == [True, False, False]

    @pytest.mark.parametrize("box", [
        SafeRegion(low=(-1.0,), high=(2.0,), obstacles=(((0.0,), (0.5,)), ((1.0,), (1.0,)))),
        SafeRegion(low=(-1.0, -1.0, -1.0), high=(1.0, 1.0, 1.0),
                   obstacles=(((0.0, 0.0, 0.0), (0.5, 0.5, 0.5)),
                              ((-0.5, -1.0, -0.2), (-0.1, -0.4, 0.3)))),
    ])
    def test_columnwise_predicate_on_faces(self, box):
        pts = face_points(box)
        want = broadcast_safe(box, pts)
        assert np.array_equal(is_safe(box, pts), want)
        assert 0 < want.sum() < want.size
        # both boxes are closed: faces of the box are safe, faces of an obstacle are not
        assert is_safe(box, np.array([box.low, box.high])).all()
        for olow, ohigh in box.obstacles:
            assert not is_safe(box, np.array([olow, ohigh])).any()
        steps = pts.shape[0] // 4 * 4
        trajs = pts[:steps].reshape(-1, 4, box.dim)
        assert np.array_equal(trajectory_safe(box, trajs), want[:steps].reshape(-1, 4).all(axis=1))

    @pytest.mark.parametrize("layout", ["fortran", "strided", "empty"])
    def test_predicate_on_any_memory_layout(self, region, layout):
        """The columns are copied before they are compared, so Fortran-ordered
        and strided inputs and no points give the broadcast flags."""
        pts = face_points(region)
        trajs = pts[:pts.shape[0] // 6 * 6].reshape(-1, 6, 2)
        pts, trajs = {
            "fortran": (np.asfortranarray(pts), np.asfortranarray(trajs)),
            "strided": (np.repeat(pts, 2, axis=1)[:, ::2], trajs[:, ::2]),
            "empty": (pts[:0], trajs[:0]),
        }[layout]
        assert np.array_equal(is_safe(region, pts), broadcast_safe(region, pts))
        want = broadcast_safe(region, trajs.reshape(-1, 2)).reshape(trajs.shape[:2]).all(axis=1)
        got = trajectory_safe(region, trajs)
        assert got.shape == (trajs.shape[0],) and np.array_equal(got, want)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            SafeRegion(low=(1.0,), high=(0.0,), obstacles=())


class TestTrajectorySafety:
    def test_initial_state_counts(self, region):
        traj = np.array([[[0.5, 0.3], [-2.0, 0.0]]])
        assert trajectory_safe(region, traj).tolist() == [False]

    def test_all_steps_safe(self, region):
        traj = np.array([[[-2.0, 0.0], [-1.9, 0.1], [-1.8, 0.0]]])
        assert trajectory_safe(region, traj).tolist() == [True]

    def test_batch(self, region):
        trajs = np.array(
            [
                [[-2.0, 0.0], [-1.9, 0.1]],
                [[-2.0, 0.0], [0.5, 0.3]],
            ]
        )
        assert trajectory_safe(region, trajs).tolist() == [True, False]


class TestSimulation:
    def test_deterministic_given_seed(self, markov_params, region):
        a = gen_dataset(markov_params, region, n=7, T=4, seed=42)
        b = gen_dataset(markov_params, region, n=7, T=4, seed=42)
        assert np.array_equal(a.states, b.states)

    def test_seed_past_64_bits_names_its_own_stream(self):
        """Masking the seed to 64 bits gave seed 2**64 + 3 the draws of seed 3."""
        assert not np.array_equal(stream(2**64 + 3, "x").random(4), stream(3, "x").random(4))

    def test_negative_seed_raises(self):
        """Masked, seed -1 used to run the streams of seed 2**64 - 1."""
        with pytest.raises(ValueError):
            stream(-1, "x")

    def test_trajectory_streams_independent_of_batch_size(self, markov_params, region):
        big = gen_dataset(markov_params, region, n=9, T=4, seed=42)
        small = gen_dataset(markov_params, region, n=3, T=4, seed=42)
        assert np.array_equal(big.states[:3], small.states)

    def test_purpose_separates_noise(self, markov_params, region):
        train = gen_dataset(markov_params, region, n=4, T=4, seed=42)
        cal = gen_dataset(markov_params, region, n=4, T=4, seed=42, purpose="cal-traj")
        assert not np.allclose(train.states, cal.states)

    def test_initial_disturbance_at_stationary_variance(self, region):
        params = SynthSystemParams(alpha=0.8)
        ts = gen_dataset(params, region, n=20000, T=1, seed=5)
        var0 = recover_noise(params, ts.states)[:, 0].var(axis=0)
        target = params.sigma**2
        assert np.all(np.abs(var0 - target) < 0.05 * target)

    def test_alpha_zero_disturbance_stationary_at_every_step(self, markov_params, region):
        """Without memory there is no state feedback into the disturbance,
        so its variance stays at sigma^2 along the whole horizon."""
        ts = gen_dataset(markov_params, region, n=20000, T=5, seed=5)
        z = recover_noise(markov_params, ts.states)
        target = markov_params.sigma**2
        ratios = z.var(axis=0) / target
        assert np.all(np.abs(ratios - 1.0) < 0.06)

    def test_memory_inflates_disturbance_over_time(self, region):
        """With alpha > 0 the tanh coupling feeds the state back into the
        disturbance, pumping its variance above sigma^2 as t grows."""
        params = SynthSystemParams(alpha=0.8)
        ts = gen_dataset(params, region, n=6000, T=5, seed=5)
        z = recover_noise(params, ts.states)
        ratios = z.var(axis=0).mean(axis=1) / params.sigma**2
        assert ratios[-1] > ratios[0] + 0.5

    def test_memoryless_noise_at_alpha_zero(self, markov_params, region):
        ts = gen_dataset(markov_params, region, n=6000, T=3, seed=6)
        z = recover_noise(markov_params, ts.states)
        r = np.corrcoef(z[:, 0, 0], z[:, 1, 0])[0, 1]
        assert abs(r) < 0.05

    def test_persistent_noise_at_high_alpha(self, region):
        params = SynthSystemParams(alpha=0.9)
        ts = gen_dataset(params, region, n=6000, T=3, seed=6)
        z = recover_noise(params, ts.states)
        r = np.corrcoef(z[:, 0, 0], z[:, 1, 0])[0, 1]
        assert r > 0.5

    def test_states_saturate_instead_of_overflowing(self, markov_params):
        x0 = np.array([8e5, -8e5])
        traj = simulate_batch(markov_params, x0, 400, stream(0, "traj", 0))[0]
        assert np.all(np.isfinite(traj))
        assert np.max(np.abs(traj)) <= SATURATION

    def test_simulate_batch_matches_single(self, markov_params):
        x0s = np.array([[0.1, 0.2], [-1.0, 0.5]])
        rng_a = stream(1, "x")
        batch = simulate_batch(markov_params, x0s, 3, rng_a)
        assert batch.shape == (2, 4, 2)
        assert np.array_equal(batch[:, 0], x0s)

    @pytest.mark.parametrize("alpha", [0.0, 0.95])
    @pytest.mark.parametrize("T", [0, 1, 7])
    @pytest.mark.parametrize("n", [1, 5, 300])
    def test_simulate_batch_is_the_stepwise_recursion(self, alpha, T, n):
        params = SynthSystemParams(alpha=alpha)
        x0s = stream(3, "x0").uniform(-3.0, 2.5, size=(n, 2))
        rng_a, rng_b = stream(1, "x"), stream(1, "x")
        assert np.array_equal(simulate_batch(params, x0s, T, rng_a),
                              stepwise_rollout(params, x0s, T, rng_b))
        # the same number of draws: both generators go on identically
        assert rng_a.random() == rng_b.random()
        assert np.array_equal(simulate_batch(params, x0s[0], T, stream(2, "y"))[0],
                              stepwise_rollout(params, x0s[:1], T, stream(2, "y"))[0])

    @pytest.mark.parametrize("purpose", ["traj", "cal-traj"])
    @pytest.mark.parametrize("T", [0, 6])
    def test_gen_dataset_is_the_stepwise_recursion_per_trajectory(self, region, purpose, T):
        params = SynthSystemParams(alpha=0.95)
        ts = gen_dataset(params, region, n=200, T=T, seed=8, purpose=purpose)
        lo, hi = region.box_array()
        for i in range(len(ts.states)):
            rng = stream(8, purpose, i)
            x0 = rng.uniform(lo, hi)
            assert np.array_equal(ts.states[i], stepwise_rollout(params, x0, T, rng)[0])

    @pytest.mark.parametrize("purpose", ["traj", "cal-traj"])
    def test_shorter_horizon_is_a_prefix(self, region, purpose):
        """A trajectory's draws at T = 3 are the first of its draws at T = 7,
        so the shorter set is the first four states of the longer one."""
        params = SynthSystemParams(alpha=0.95)
        short = gen_dataset(params, region, n=150, T=3, seed=5, purpose=purpose)
        long = gen_dataset(params, region, n=150, T=7, seed=5, purpose=purpose)
        assert np.array_equal(short.states, long.states[:, :4])

    def test_gen_dataset_x0_is_uniform_on_the_box(self, markov_params, region):
        """x0 is lo + (hi - lo) * random(d): the draws and roundings of
        ``uniform(lo, hi)`` on the trajectory's own stream."""
        ts = gen_dataset(markov_params, region, n=2000, T=0, seed=13, purpose="cal-traj")
        lo, hi = region.box_array()
        want = np.array([stream(13, "cal-traj", i).uniform(lo, hi) for i in range(len(ts.states))])
        assert np.array_equal(ts.initial_states, want)

    @pytest.mark.parametrize("purpose", ["traj", "cal-traj"])
    def test_params_sequence_is_one_call_per_params(self, region, purpose):
        """The draws never read params, so systems that differ in every value
        share them and each gets, bit for bit, its own call's set."""
        sets = gen_dataset(SYSTEMS, region, n=120, T=6, seed=4, purpose=purpose)
        assert isinstance(sets, list) and len(sets) == len(SYSTEMS)
        for params, ts in zip(SYSTEMS, sets):
            assert np.array_equal(ts.states, gen_dataset(params, region, 120, 6, 4, purpose).states)
        assert not np.array_equal(sets[0].states, sets[1].states)

    def test_empty_params_sequence_rejected(self, region):
        with pytest.raises(ValueError, match="at least one system"):
            gen_dataset([], region, n=5, T=2, seed=1)
        with pytest.raises(ValueError, match="at least one system"):
            mc_ground_truth((), region, eval_grid(region, (2, 2)), 2, 4, seed=1)

    @pytest.mark.parametrize("name", ["sigma", "h", "beta_c", "gamma_c"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_params_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SynthSystemParams(alpha=0.5, **{name: value})

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SynthSystemParams(alpha=1.0)
        with pytest.raises(ValueError):
            SynthSystemParams(alpha=-0.1)
        with pytest.raises(ValueError):
            SynthSystemParams(alpha=0.5, sigma=0.0)


class TestPairs:
    def test_iid_pairs_shapes_and_support(self, markov_params, region):
        pairs = extract_onestep_pairs(None, 50, "iid", 3, params=markov_params, region=region)
        assert pairs.x.shape == (50, 2)
        assert pairs.x_next.shape == (50, 2)
        lo, hi = region.box_array()
        assert np.all(pairs.x >= lo) and np.all(pairs.x <= hi)

    def test_dependent_pairs_slice_trajectories(self, small_trajs):
        n, steps, d = small_trajs.states.shape
        pairs = extract_onestep_pairs(small_trajs, n * (steps - 1), "dependent", 3)
        assert np.array_equal(pairs.x, small_trajs.states[:, :-1].reshape(-1, d))
        assert np.array_equal(pairs.x_next, small_trajs.states[:, 1:].reshape(-1, d))

    def test_dependent_subsample_is_a_sorted_subset(self, small_trajs):
        full = extract_onestep_pairs(small_trajs, 400, "dependent", 3)
        sub = extract_onestep_pairs(small_trajs, 60, "dependent", 3)
        full_rows = {tuple(r) for r in np.hstack([full.x, full.x_next])}
        sub_rows = [tuple(r) for r in np.hstack([sub.x, sub.x_next])]
        assert len(sub_rows) == 60
        assert all(r in full_rows for r in sub_rows)

    def test_dependent_overdraw_rejected(self, small_trajs):
        with pytest.raises(ValueError):
            extract_onestep_pairs(small_trajs, 10_000, "dependent", 3)

    def test_unknown_mode_rejected(self, small_trajs):
        with pytest.raises(ValueError):
            extract_onestep_pairs(small_trajs, 10, "bootstrap", 3)


class TestGroundTruth:
    def test_grid_layout(self, region):
        grid = eval_grid(region, (4, 5))
        assert grid.shape == (20, 2)
        lo, hi = region.box_array()
        assert grid[0, 0] == pytest.approx(lo[0] + (hi[0] - lo[0]) / 8)
        assert grid[0, 1] == pytest.approx(lo[1] + (hi[1] - lo[1]) / 10)

    def test_probabilities_and_unsafe_starts(self, markov_params, region):
        grid = np.array([[-2.0, 0.0], [0.5, 0.3]])
        gt = mc_ground_truth(markov_params, region, grid, 5, 64, seed=2)
        assert 0.0 <= gt.p_mc[0] <= 1.0
        assert gt.p_mc[1] == 0.0
        again = mc_ground_truth(markov_params, region, grid, 5, 64, seed=2)
        assert np.array_equal(gt.p_mc, again.p_mc)

    def test_longer_horizon_never_safer(self, markov_params, region):
        """Rollout prefixes are shared between horizons at a fixed seed: one
        call at several horizons scores, bit for bit, what one call per
        horizon does, so the per-point estimate is monotone in T.  1000
        rollouts do not divide a block, the safe starts fill three blocks,
        the last partial, and the grid has unsafe starts."""
        grid = np.vstack([eval_grid(region, (6, 6)), [[0.5, 0.3], [9.0, 9.0]]])
        n_mc = 1000
        start_safe = broadcast_safe(region, grid)
        assert _MC_BLOCK % n_mc and not start_safe.all()
        assert start_safe.sum() > 2 * (_MC_BLOCK // n_mc) and start_safe.sum() % (_MC_BLOCK // n_mc)
        grids = mc_ground_truth(markov_params, region, grid, (2, 5, 9), n_mc, seed=7)
        assert len(grids) == 3
        for T, gt in zip((2, 5, 9), grids):
            one = mc_ground_truth(markov_params, region, grid, T, n_mc, seed=7)
            assert np.array_equal(gt.grid, one.grid)
            assert np.array_equal(gt.p_mc, one.p_mc)
        assert np.all(grids[2].p_mc <= grids[1].p_mc) and np.all(grids[1].p_mc <= grids[0].p_mc)
        # the horizons come back in the order given
        shuffled = mc_ground_truth(markov_params, region, grid, [9, 2], n_mc, seed=7)
        assert np.array_equal(shuffled[0].p_mc, grids[2].p_mc)
        assert np.array_equal(shuffled[1].p_mc, grids[0].p_mc)

    def test_params_sequence_is_one_call_per_params(self, region):
        """Systems that differ in every param share each block's draws; each
        scores, bit for bit, what its own call scores at several horizons.
        1000 rollouts do not divide a block, the safe starts fill three
        blocks, the last partial, and unsafe starts sit between safe ones."""
        grid = np.vstack([[[0.5, 0.3]], eval_grid(region, (6, 6)), [[9.0, 9.0], [-2.0, 0.0]]])
        n_mc = 1000
        start_safe = broadcast_safe(region, grid)
        assert _MC_BLOCK % n_mc and not start_safe[0] and not start_safe[-2] and start_safe[-1]
        assert start_safe.sum() > 2 * (_MC_BLOCK // n_mc) and start_safe.sum() % (_MC_BLOCK // n_mc)
        got = mc_ground_truth(SYSTEMS, region, grid, (2, 5), n_mc, seed=3)
        assert len(got) == len(SYSTEMS)
        for params, grids in zip(SYSTEMS, got):
            one = mc_ground_truth(params, region, grid, (2, 5), n_mc, seed=3)
            assert len(grids) == 2
            for gt, want in zip(grids, one):
                assert np.array_equal(gt.grid, want.grid)
                assert np.array_equal(gt.p_mc, want.p_mc)
        # one horizon gives one grid per system
        single = mc_ground_truth(SYSTEMS, region, grid, 5, n_mc, seed=3)
        assert [gt.p_mc.tolist() for gt in single] == [grids[1].p_mc.tolist() for grids in got]
        assert not np.array_equal(got[0][1].p_mc, got[1][1].p_mc)

    def test_each_stream_is_built_once_per_seed(self, region, monkeypatch):
        """Every (seed, purpose, index) stream is built once for a sequence
        of systems, whatever their number; unsafe starts build none."""
        keys = []
        monkeypatch.setattr(bm, "stream", lambda *key: keys.append(key) or stream(*key))
        grid = np.vstack([eval_grid(region, (5, 5)), [[9.0, 9.0]]])
        gen_dataset(SYSTEMS, region, n=30, T=4, seed=2)
        gen_dataset(SYSTEMS, region, n=20, T=4, seed=2, purpose="cal-traj")
        mc_ground_truth(SYSTEMS, region, grid, (2, 4), 40, seed=2)
        safe_points = np.flatnonzero(broadcast_safe(region, grid))
        assert sorted(keys) == sorted([(2, "traj", i) for i in range(30)]
                                      + [(2, "cal-traj", i) for i in range(20)]
                                      + [(2, "mc", g) for g in safe_points])

    @pytest.mark.parametrize("horizons", [(), (3, -1)])
    def test_bad_horizon_lists_rejected(self, markov_params, region, horizons):
        with pytest.raises(ValueError):
            mc_ground_truth(markov_params, region, eval_grid(region, (2, 2)), horizons, 4, seed=1)

    @pytest.mark.parametrize("T, n_mc, grid", [
        (2, 1, "fine"),
        (0, 2048, "mixed"),
        (3, 2048, "mixed"),
        (1, 4097, "mixed"),
        (1, _MC_BLOCK + 1, "mixed"),
    ])
    def test_mc_is_the_stepwise_recursion_per_point(self, region, T, n_mc, grid):
        """Blocks of rollouts from several points' streams score each point as
        its own step-by-step rollouts would; unsafe starts sit between them.
        Every case spans more than one block, the last partial; a point's
        rollouts fill more than a block at ``_MC_BLOCK + 1``."""
        params = SynthSystemParams(alpha=0.95)
        if grid == "fine":
            grid = eval_grid(region, (150, 130))
        else:
            grid = np.vstack([[[-2.0, 0.0], [0.5, 0.3], [-2.5, -1.8], [9.0, 9.0],
                               [1.0, -0.5], [-1.0, -1.2], [2.0, 0.5], [0.0, 0.0]],
                              eval_grid(region, (5, 4))])
        start_safe = broadcast_safe(region, grid)
        per_block = max(1, _MC_BLOCK // n_mc)
        assert start_safe.sum() > per_block and not start_safe.all()
        assert per_block == 1 or start_safe.sum() % per_block
        got = mc_ground_truth(params, region, grid, T, n_mc, seed=6).p_mc
        want = np.zeros(grid.shape[0])
        want[start_safe] = stepwise_safety(params, region, grid[start_safe], (T,), n_mc,
                                           [stream(6, "mc", g) for g in np.flatnonzero(start_safe)])[0]
        assert np.array_equal(got, want)

    def test_saturating_rollouts_score_as_the_stepwise_recursion(self, region):
        """A system whose rollouts reach SATURATION within a few steps scores,
        at horizons from 0 through the longest, what each point's
        step-by-step rollouts score, over several blocks and with no
        overflow or invalid-value warning."""
        params = SynthSystemParams(alpha=0.5, sigma=2.0, h=5.0)
        grid = np.array([[-2.0, 0.0], [0.5, 0.3], [-2.5, -1.8], [1.0, -0.5],
                         [2.0, 0.5], [0.0, 0.0], [-0.2, 0.6], [1.8, -1.5]])
        horizons, n_mc = (0, 2, 6), _MC_BLOCK // 3 + 1
        start_safe = broadcast_safe(region, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mc_ground_truth(params, region, grid, horizons, n_mc, seed=8)
        want = np.zeros((len(horizons), grid.shape[0]))
        want[:, start_safe] = stepwise_safety(params, region, grid[start_safe], horizons, n_mc,
                                              [stream(8, "mc", g) for g in np.flatnonzero(start_safe)])
        assert np.array_equal([gt.p_mc for gt in got], want)
        assert start_safe.sum() > _MC_BLOCK // n_mc and not start_safe.all()
        rolls = stepwise_rollout(params, grid[start_safe], horizons[-1], stream(8, "x"))
        assert np.any(np.abs(rolls) == SATURATION)

    def test_a_block_holds_its_noise_and_no_states(self, region):
        """The peak memory of one call stays under one block's noise plus
        scratch of a few values per rollout: the (T+1)·2 states of each
        rollout are scored as they are stepped, never stored."""
        grid = eval_grid(region, (5, 4))
        T, n_mc = 30, _MC_BLOCK // 16
        assert broadcast_safe(region, grid).sum() > 16
        noise_bytes = (T + 1) * 2 * _MC_BLOCK * 8
        tracemalloc.start()
        try:
            mc_ground_truth(SynthSystemParams(alpha=0.95), region, grid, (5, T), n_mc, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a state history alone would add another noise_bytes, 62 floats
        # per rollout; scoring as it steps needs about 20
        assert peak < noise_bytes + 32 * 8 * _MC_BLOCK


class TestCsvRoundTrips:
    def test_trajectory_set(self, small_trajs):
        text = small_trajs.to_csv("# config=abc seed=11")
        back = TrajectorySet.from_csv(text)
        assert np.array_equal(back.states, small_trajs.states)

    @pytest.mark.parametrize("edit, message", [
        ("drop", "row 7: expected trajectory 1 at t = 1, found trajectory 1 at t = 2"),
        ("duplicate", "row 8: expected trajectory 1 at t = 2, found trajectory 1 at t = 1"),
        ("swap", "row 7: expected trajectory 1 at t = 1, found trajectory 1 at t = 2"),
        ("drop last", "row 479: expected trajectory 79 at t = 5, found the end of the table"),
        ("move trajectory", "row 0: expected trajectory 0 at t = 0, found trajectory 1 at t = 0"),
    ])
    def test_trajectory_rows_out_of_writer_order_are_refused(self, small_trajs, edit, message):
        """Rows used to be scattered into an uninitialised array by their ids,
        so a dropped row left garbage as a state and exited 0."""
        lines = small_trajs.to_csv().splitlines(keepends=True)
        head, rows = lines[:1], lines[1:]  # small_trajs: 80 trajectories at t = 0..5
        if edit == "drop":
            del rows[7]
        elif edit == "duplicate":
            rows.insert(7, rows[7])
        elif edit == "swap":
            rows[7], rows[8] = rows[8], rows[7]
        elif edit == "drop last":
            del rows[-1]
        else:
            rows = rows[6:12] + rows[:6] + rows[12:]
        with pytest.raises(ValueError) as exc:
            TrajectorySet.from_csv("".join(head + rows))
        assert str(exc.value) == message

    def test_onestep_pairs(self, small_pairs):
        from safecert import OneStepPairs

        text = small_pairs.to_csv()
        back = OneStepPairs.from_csv(text)
        assert np.array_equal(back.x, small_pairs.x)
        assert np.array_equal(back.x_next, small_pairs.x_next)

    def test_ground_truth(self, markov_params, region):
        grid = eval_grid(region, (3, 3))
        gt = mc_ground_truth(markov_params, region, grid, 3, 16, seed=4)
        from safecert import GroundTruthGrid

        back = GroundTruthGrid.from_csv(gt.to_csv())
        assert np.array_equal(back.grid, gt.grid)
        assert np.array_equal(back.p_mc, gt.p_mc)
