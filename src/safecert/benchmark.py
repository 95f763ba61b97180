"""Synthetic nonlinear benchmark with a tunable non-Markovian latent channel.

State x = (x1, x2) follows an Euler step of a cubic oscillator driven by a
latent AR(1) disturbance z in R^2:

    x_{t+1} = x_t + h * (x2_t, x1_t^3 / 3 - x1_t - x2_t) + z_t
    z_{t+1} = alpha * (z_t + beta_c * tanh(gamma_c * x1_t)) + w_t

with w_t ~ N(0, sigma^2 (1 - alpha^2) I) and z_0 ~ N(0, sigma^2 I), so the
marginal variance of each latent component is sigma^2 at every alpha.  The
scalar feedback beta_c * tanh(gamma_c * x1) enters both latent components.
alpha = 0 makes the process Markovian in x; alpha near 1 produces strongly
correlated disturbances that one-step models cannot see.  The cube is
computed as x1·x1·x1: two roundings, at most 1 ulp from numpy's float power.

Only x is observed.  Safety is membership of x in a box minus a set of
axis-aligned obstacle boxes; a trajectory is safe iff every state from t = 0
through t = T is safe.

One stepping kernel, ``_states``, advances a batch of rollouts in place and
hands each state to its caller: ``gen_dataset`` and ``simulate_batch`` store
every state, and ``mc_ground_truth`` scores each one as it is stepped, so it
holds no state history.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .io import format_table, parse_table
from .rng import stream

__all__ = [
    "SynthSystemParams",
    "SafeRegion",
    "TrajectorySet",
    "OneStepPairs",
    "GroundTruthGrid",
    "default_safe_region",
    "simulate_batch",
    "is_safe",
    "trajectory_safe",
    "gen_dataset",
    "extract_onestep_pairs",
    "eval_grid",
    "mc_ground_truth",
]

# states are saturated here to keep diverging rollouts finite
SATURATION = 1.0e6

# rollouts mc_ground_truth simulates at once: enough to spread the per-step
# numpy calls over many rollouts; a block holds its noise, (T+1)·2·block
# floats (4 MB at T = 15), and a handful of (block,) arrays, but no states
_MC_BLOCK = 16384


@dataclass(frozen=True)
class SynthSystemParams:
    """Benchmark dynamics parameters.

    alpha in [0, 1) interpolates from independent to strongly correlated
    disturbances; the remaining values are the standard configuration.
    """

    alpha: float = 0.0
    sigma: float = 0.15
    h: float = 0.1
    beta_c: float = 0.12
    gamma_c: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("alpha must lie in [0, 1)")
        for name in ("sigma", "h", "beta_c", "gamma_c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.h <= 0:
            raise ValueError("h must be positive")


@dataclass(frozen=True)
class SafeRegion:
    """Axis-aligned safe set: a bounding box minus closed obstacle boxes.

    The box is closed; obstacles are closed as well, so points on an obstacle
    boundary are unsafe.  ``low``/``high`` have shape (d,); each obstacle is a
    pair (olow, ohigh) of shape-(d,) arrays.
    """

    low: tuple[float, ...]
    high: tuple[float, ...]
    obstacles: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...] = ()

    def __post_init__(self) -> None:
        lo = tuple(float(v) for v in self.low)
        hi = tuple(float(v) for v in self.high)
        object.__setattr__(self, "low", lo)
        object.__setattr__(self, "high", hi)
        if len(lo) != len(hi) or any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("box must satisfy low < high componentwise")
        obs = []
        for olow, ohigh in self.obstacles:
            ol = tuple(float(v) for v in olow)
            oh = tuple(float(v) for v in ohigh)
            if len(ol) != len(lo) or len(oh) != len(lo) or any(a > b for a, b in zip(ol, oh)):
                raise ValueError("obstacle boxes must satisfy olow <= ohigh and match dimension")
            obs.append((ol, oh))
        object.__setattr__(self, "obstacles", tuple(obs))

    @property
    def dim(self) -> int:
        return len(self.low)

    def box_array(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.low), np.asarray(self.high)

    def in_box(self, x: np.ndarray) -> np.ndarray:
        """Closed-box membership, obstacles aside, of each point of a batch
        (n, d); d must be the region's dimension (ValueError)."""
        pts = np.asarray(x, dtype=float)
        return _in_box([pts[:, k] for k in range(pts.shape[1])], self.low, self.high)


def default_safe_region() -> SafeRegion:
    """Standard benchmark geometry: box [-3, 2.5] x [-2, 1] minus three obstacles."""
    return SafeRegion(
        low=(-3.0, -2.0),
        high=(2.5, 1.0),
        obstacles=(
            ((0.4, 0.2), (0.6, 0.6)),
            ((0.6, 0.2), (0.7, 0.4)),
            ((-1.5, -1.5), (-0.5, -1.0)),
        ),
    )


def _in_box(cols: list[np.ndarray], low: tuple[float, ...], high: tuple[float, ...]) -> np.ndarray:
    """Closed-box membership, elementwise over equally shaped coordinate
    arrays, one per dimension of the box; ValueError for another number."""
    if len(cols) != len(low):
        raise ValueError(f"points of dimension {len(cols)}, but a region of dimension {len(low)}")
    inside = cols[0] >= low[0]
    inside &= cols[0] <= high[0]
    for k in range(1, len(low)):
        inside &= cols[k] >= low[k]
        inside &= cols[k] <= high[k]
    return inside


def _safe_columns(region: SafeRegion, cols: list[np.ndarray]) -> np.ndarray:
    """Safe-set membership, elementwise over one array per coordinate of
    the region (ValueError for another number).

    Each array is compared as a contiguous copy: a column of an (n, d) batch
    is a stride-d view, and every box reads it twice.
    """
    cols = [np.ascontiguousarray(c) for c in cols]
    ok = _in_box(cols, region.low, region.high)
    for olow, ohigh in region.obstacles:
        hit = _in_box(cols, olow, ohigh)
        ok &= np.logical_not(hit, out=hit)
    return ok


def is_safe(region: SafeRegion, x: np.ndarray) -> np.ndarray:
    """Membership in the safe set for each point of a batch (n, d); d must
    be the region's dimension (ValueError)."""
    pts = np.asarray(x, dtype=float)
    return _safe_columns(region, [pts[:, k] for k in range(pts.shape[1])])


def trajectory_safe(region: SafeRegion, traj: np.ndarray) -> np.ndarray:
    """Whole-trajectory safety of each trajectory of a batch (n, T+1, d): min
    over t in {0..T} of the state indicator; d must be the region's
    dimension (ValueError)."""
    arr = np.asarray(traj, dtype=float)
    return _safe_columns(region, [arr[..., k] for k in range(arr.shape[2])]).all(axis=1)


def _drift(x1: np.ndarray, x2: np.ndarray, out: np.ndarray | None = None):
    """Drift f(x) = (x2, x1^3 / 3 - x1 - x2) of the cubic oscillator, per component.

    The one definition of the drift: the rollout kernel and its reference
    implementations call it.  The cube is computed as ``x1·x1·x1``, two
    roundings, at most 1 ulp from ``x1 ** 3`` (numpy's float power, which
    costs ~40x more per element); about a quarter of values differ from it
    in the last bit.  The rest is evaluated left to right,
    ((x1·x1·x1) / 3 - x1) - x2.  Returns (x2, f2) with f2 written into
    ``out`` when given (the shape of x1).
    """
    f2 = np.multiply(x1, x1, out=out)
    f2 *= x1
    f2 /= 3.0
    f2 -= x1
    f2 -= x2
    return x2, f2


def _states(params: SynthSystemParams, x0s: np.ndarray, noise: np.ndarray):
    """Euler-Maruyama rollouts of every row of ``x0s`` (n, 2) at once, one
    state at a time: yields (x1, x2), the (n,) coordinates of state t, for
    t = 0..T.

    The one stepping kernel: ``_rollout`` stores the states it yields and
    ``mc_ground_truth`` scores them.  ``noise`` holds the standard normals
    drawn in advance, (T+1, 2, n), so each step reads contiguous (n,) rows:
    ``noise[0]`` sets z_0 and ``noise[t + 1]`` is the innovation w_t after
    step t.  ``noise[T]`` is drawn but not read: it would only move z_T,
    which no state reads.  Every operation is elementwise, so rollout i
    depends only on ``x0s[i]`` and ``noise[:, :, i]``, and state t + 1
    reads only ``noise[:t + 1]``.

    x1, x2, z1 and z2 are stepped as contiguous (n,) arrays in place, in the
    order of x_{t+1} = clip((x_t + h·f(x_t)) + z_t) and
    z_{t+1} = alpha·(z_t + fb) + (w_scale·w_t), so each value is rounded as
    in that formula; the cube in ``_drift`` is x1·x1·x1.  The yielded arrays
    are the ones stepped: read them before asking for the next state.
    """
    T = noise.shape[0] - 1
    n = noise.shape[2]
    x1, x2 = (np.clip(x0s[:, k], -SATURATION, SATURATION) for k in (0, 1))
    z1, z2 = params.sigma * noise[0, 0], params.sigma * noise[0, 1]
    w_scale = params.sigma * np.sqrt(1.0 - params.alpha ** 2)
    f2, fb, tmp = np.empty(n), np.empty(n), np.empty(n)
    yield x1, x2
    for t in range(T):
        # the feedback and both drift terms read x_t before it is overwritten
        f1, f2 = _drift(x1, x2, out=f2)
        np.multiply(params.gamma_c, x1, out=fb)
        np.tanh(fb, out=fb)
        fb *= params.beta_c
        np.multiply(params.h, f1, out=tmp)
        x1 += tmp
        x1 += z1
        np.clip(x1, -SATURATION, SATURATION, out=x1)
        f2 *= params.h
        x2 += f2
        x2 += z2
        np.clip(x2, -SATURATION, SATURATION, out=x2)
        yield x1, x2
        if t + 1 < T:
            for z, k in ((z1, 0), (z2, 1)):
                z += fb
                z *= params.alpha
                np.multiply(w_scale, noise[t + 1, k], out=tmp)
                z += tmp


def _rollout(params: SynthSystemParams, x0s: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """The states ``_states(params, x0s, noise)`` yields, stored as (n, T+1, 2).

    Prefix contract: for any S <= T, ``_rollout(params, x0s, noise[:S + 1])``
    equals ``_rollout(params, x0s, noise)[:, :S + 1]`` bit for bit.  One
    rollout at the longest horizon therefore holds every shorter horizon's
    rollouts.
    """
    out = np.empty((noise.shape[2], noise.shape[0], 2))
    for t, (x1, x2) in enumerate(_states(params, x0s, noise)):
        out[:, t, 0] = x1
        out[:, t, 1] = x2
    return out


def simulate_batch(
    params: SynthSystemParams, x0s: np.ndarray, T: int, rng: np.random.Generator
) -> np.ndarray:
    """Roll out ``T`` steps from each row of ``x0s``; returns (n, T+1, 2).

    Draws ``rng.standard_normal((T+1, n, 2))`` in one call: the same values,
    in the same order, as T+1 draws of (n, 2), one per step.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    noise = rng.standard_normal((T + 1, x0s.shape[0], 2))
    return _rollout(params, x0s, noise.transpose(0, 2, 1))


@dataclass
class TrajectorySet:
    """A batch of rollouts."""

    states: np.ndarray  # (N, T+1, d)

    @property
    def initial_states(self) -> np.ndarray:
        return self.states[:, 0, :]

    def to_csv(self, header_comment: str = "") -> str:
        n, steps, d = self.states.shape
        columns = ["traj_id", "t"] + [f"x{k + 1}" for k in range(d)]
        # ids and steps as floats: below 2**53 they print under .17g as str prints them
        rows = np.column_stack([np.repeat(np.arange(n), steps), np.tile(np.arange(steps), n),
                                self.states.reshape(-1, d)]).astype(float)
        return format_table(columns, rows, header_comment)

    @classmethod
    def from_csv(cls, text: str) -> "TrajectorySet":
        """The set ``to_csv`` wrote, as ``from_table`` decodes its cells."""
        return cls.from_table(parse_table(text)[2])

    @classmethod
    def from_table(cls, data: np.ndarray) -> "TrajectorySet":
        """The set whose ``to_csv`` cells are ``data``; rows out of its order
        are refused, naming the first."""
        # as many steps per trajectory as the first one has
        steps = max(1, np.count_nonzero(data[:, 0] == data[:1, 0]))
        ids, t = np.divmod(np.arange(-(-len(data) // steps) * steps), steps)
        bad = np.flatnonzero((data[:, 0] != ids[:len(data)]) | (data[:, 1] != t[:len(data)]))
        r = bad[0] if bad.size else len(data)
        if r < len(ids):
            found = (f"trajectory {data[r, 0]:g} at t = {data[r, 1]:g}" if r < len(data)
                     else "the end of the table")
            raise ValueError(f"row {r}: expected trajectory {ids[r]} at t = {t[r]}, found {found}")
        return cls(states=np.ascontiguousarray(data[:, 2:]).reshape(-1, steps, data.shape[1] - 2))


@dataclass
class OneStepPairs:
    """Transition samples (x_i, x_i^+) used by one-step conditional models."""

    x: np.ndarray       # (M, d)
    x_next: np.ndarray  # (M, d)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def to_csv(self, header_comment: str = "") -> str:
        d = self.x.shape[1]
        columns = [f"x{k + 1}" for k in range(d)] + [f"xn{k + 1}" for k in range(d)]
        return format_table(columns, np.hstack([self.x, self.x_next]), header_comment)

    @classmethod
    def from_csv(cls, text: str) -> "OneStepPairs":
        return cls.from_table(parse_table(text)[2])

    @classmethod
    def from_table(cls, data: np.ndarray) -> "OneStepPairs":
        """The pairs whose ``to_csv`` cells are ``data``."""
        d = data.shape[1] // 2
        return cls(x=data[:, :d], x_next=data[:, d:])


@dataclass
class GroundTruthGrid:
    """Monte Carlo safety probabilities on a grid of initial states."""

    grid: np.ndarray   # (G, d)
    p_mc: np.ndarray   # (G,)

    def to_csv(self, header_comment: str = "") -> str:
        rows = np.column_stack([self.grid, self.p_mc])
        return format_table(["gx", "gy", "p_mc"], rows, header_comment)

    @classmethod
    def from_csv(cls, text: str) -> "GroundTruthGrid":
        _, _, data = parse_table(text)
        return cls(grid=data[:, :2], p_mc=data[:, 2])


def gen_dataset(
    params: SynthSystemParams | Sequence[SynthSystemParams],
    region: SafeRegion,
    n: int,
    T: int,
    seed: int,
    purpose: str = "traj",
) -> TrajectorySet | list[TrajectorySet]:
    """Sample ``n`` rollouts with x0 uniform on the region bounding box.

    ``params`` is one system, which returns one set, or a sequence of
    systems, which returns one set per system in the order given.  Each
    trajectory owns a named substream of (seed, purpose, i), so trajectory i
    is the same no matter how many others are drawn alongside it, and
    distinct purposes (training vs calibration) never share noise.  Stream i
    gives x0 first (``uniform(lo, hi)``, d values, computed as
    ``lo + (hi - lo) * random(d)``: the same draws and roundings without
    ``uniform``'s per-call argument handling), then the trajectory's noise
    (``standard_normal((T+1, 2))``, z_0 and then one innovation per step).
    All n trajectories are simulated in one pass, so the noise is held next
    to the states: (T+1)·n·2 floats, the size of one result.

    The draws never read ``params``: every stream is built and drawn once,
    and each system's rollouts start from the same x0 and noise.  So a
    sequence of systems gives, bit for bit, what one call per system gives.

    Prefix contract: a stream's draws at horizon S <= T are the first draws
    it makes at T, and ``_rollout`` keeps prefixes, so
    ``gen_dataset(..., S, ...).states`` equals
    ``gen_dataset(..., T, ...).states[:, :S + 1]`` bit for bit for the same
    n, seed and purpose.
    """
    single = isinstance(params, SynthSystemParams)
    systems = (params,) if single else tuple(params)
    if not systems:
        raise ValueError("at least one system is needed")
    if n <= 0:
        raise ValueError("n must be positive")
    if T < 0:
        raise ValueError("T must be nonnegative")
    lo, hi = region.box_array()
    width = hi - lo
    x0s = np.empty((n, region.dim))
    noise = np.empty((T + 1, 2, n))
    for i in range(n):
        rng = stream(seed, purpose, i)
        x0s[i] = lo + width * rng.random(region.dim)
        noise[:, :, i] = rng.standard_normal((T + 1, 2))
    sets = [TrajectorySet(states=_rollout(system, x0s, noise)) for system in systems]
    return sets[0] if single else sets


def extract_onestep_pairs(
    ts: TrajectorySet | None,
    count: int,
    mode: str,
    seed: int,
    params: SynthSystemParams | None = None,
    region: SafeRegion | None = None,
) -> OneStepPairs:
    """Build (x, x^+) transition samples.

    ``mode="iid"`` draws ``count`` fresh single-step simulations from uniform
    starts on the region box (requires ``params`` and ``region``).
    ``mode="dependent"`` slices consecutive pairs out of ``ts``; if ``count``
    is below the N*T available pairs a uniform subsample without replacement
    is taken.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if mode == "iid":
        if params is None or region is None:
            raise ValueError("iid mode needs params and region")
        rng = stream(seed, "pairs")
        lo, hi = region.box_array()
        x0s = rng.uniform(lo, hi, size=(count, region.dim))
        rolls = simulate_batch(params, x0s, 1, rng)
        return OneStepPairs(x=rolls[:, 0], x_next=rolls[:, 1])
    if mode == "dependent":
        if ts is None:
            raise ValueError("dependent mode needs a trajectory set")
        n, steps, d = ts.states.shape
        total = n * (steps - 1)
        if count > total:
            raise ValueError(f"requested {count} pairs but only {total} are available")
        x = ts.states[:, :-1].reshape(total, d)
        x_next = ts.states[:, 1:].reshape(total, d)
        if count < total:
            idx = np.sort(stream(seed, "pairs-sub").choice(total, size=count, replace=False))
            x, x_next = x[idx], x_next[idx]
        return OneStepPairs(x=x, x_next=x_next)
    raise ValueError(f"unknown pair mode {mode!r}")


def eval_grid(region: SafeRegion, counts: tuple[int, ...]) -> np.ndarray:
    """Regular grid of cell centers over the region bounding box, (prod(counts), d)."""
    lo, hi = region.box_array()
    if len(counts) != region.dim:
        raise ValueError("counts must give one resolution per dimension")
    axes = [
        lo[k] + (np.arange(counts[k]) + 0.5) * (hi[k] - lo[k]) / counts[k]
        for k in range(region.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def mc_ground_truth(
    params: SynthSystemParams | Sequence[SynthSystemParams],
    region: SafeRegion,
    grid: np.ndarray,
    T: int | Sequence[int],
    n_mc: int,
    seed: int,
) -> GroundTruthGrid | list[GroundTruthGrid] | list[list[GroundTruthGrid]]:
    """Monte Carlo estimate of the safety probability at each grid point.

    ``T`` is one horizon, which gives one grid, or a sequence of horizons,
    which gives a list of one grid per horizon in the order given.
    ``params`` is one system, which returns what ``T`` gives, or a sequence
    of systems, which returns a list of that, one per system in the order
    given.  Grid point g owns the substream (seed, "mc", g) and draws all of
    its noise from it in one call, ``standard_normal((T+1, n_mc, 2))`` at
    the longest horizon T: step by step, n_mc rollouts at a time.  Unsafe
    starting points are 0 and draw nothing.  Safe points are drawn in blocks
    of whole points, as many as fit in ``_MC_BLOCK`` rollouts and at least
    one, and each block is rolled out and scored once per system, one system
    at a time, before the next is drawn.  Each state is scored as it is
    stepped, into a running "safe so far" flag per rollout, and at each
    requested horizon a point's estimate is the count of its flags still set
    over n_mc.  So a block holds max(_MC_BLOCK, n_mc)·(T+1)·2 floats of
    noise, in one buffer every block reuses, and a handful of arrays of one
    value per rollout, but no states; the memory held grows with neither the
    number of systems nor the number of horizons.

    The draws never read ``params``: every stream is built and drawn once,
    and each system's rollouts start from the same points and noise.  So a
    sequence of systems gives, bit for bit, what one call per system gives.

    Prefix contract: every horizon is read off the same rollouts, through a
    running "safe so far" flag per rollout, and the draws and states at a
    shorter horizon are a prefix of those at the longest (see ``_states``).
    So the grids of a sequence of horizons equal, bit for bit, those of one
    call per horizon.
    """
    single = isinstance(params, SynthSystemParams)
    systems = (params,) if single else tuple(params)
    if not systems:
        raise ValueError("at least one system is needed")
    one_horizon = np.ndim(T) == 0
    horizons = (T,) if one_horizon else tuple(T)
    if not horizons:
        raise ValueError("at least one horizon is needed")
    if min(horizons) < 0:
        raise ValueError("T must be nonnegative")
    if n_mc <= 0:
        raise ValueError("n_mc must be positive")
    T_max = max(horizons)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    p = np.zeros((len(systems), len(horizons), grid.shape[0]))
    safe_starts = np.flatnonzero(is_safe(region, grid))
    per_block = max(1, _MC_BLOCK // n_mc)
    noise = np.empty((T_max + 1, 2, min(per_block, safe_starts.size) * n_mc))
    draws = np.empty((T_max + 1, n_mc, 2))
    for first in range(0, safe_starts.size, per_block):
        points = safe_starts[first:first + per_block]
        block = noise[..., :points.size * n_mc]
        for j, g in enumerate(points):
            stream(seed, "mc", g).standard_normal(out=draws)
            block[..., j * n_mc:(j + 1) * n_mc] = draws.transpose(0, 2, 1)
        x0s = np.repeat(grid[points], n_mc, axis=0)
        for i, system in enumerate(systems):
            # the rollout stayed safe from step 0 through the state last read
            ok = np.ones(block.shape[2], dtype=bool)
            for t, state in enumerate(_states(system, x0s, block)):
                ok &= _safe_columns(region, list(state))
                for k, horizon in enumerate(horizons):
                    if horizon == t:
                        p[i, k, points] = np.count_nonzero(ok.reshape(-1, n_mc), axis=1) / n_mc
    results = []
    for rows in p:
        grids = [GroundTruthGrid(grid=grid, p_mc=row) for row in rows]
        results.append(grids[0] if one_horizon else grids)
    return results[0] if single else results
