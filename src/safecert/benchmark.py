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
"""

from __future__ import annotations

import math
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
# numpy calls over many rollouts, few enough that a block's noise and states
# stay near 1 MB each at T = 15
_MC_BLOCK = 4096


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
    """Closed-box membership, elementwise over equally shaped coordinate arrays."""
    inside = cols[0] >= low[0]
    inside &= cols[0] <= high[0]
    for k in range(1, len(low)):
        inside &= cols[k] >= low[k]
        inside &= cols[k] <= high[k]
    return inside


def _safe_columns(region: SafeRegion, cols: list[np.ndarray]) -> np.ndarray:
    """Safe-set membership, elementwise over one array per coordinate.

    Each array is compared as a contiguous copy: a column of an (n, d) batch
    is a stride-d view, and every box reads it twice.
    """
    cols = [np.ascontiguousarray(c) for c in cols]
    ok = _in_box(cols, region.low, region.high)
    for olow, ohigh in region.obstacles:
        hit = _in_box(cols, olow, ohigh)
        ok &= np.logical_not(hit, out=hit)
    return ok


def is_safe(region: SafeRegion, x: np.ndarray) -> np.ndarray | bool:
    """Membership in the safe set for one point (d,) or a batch (n, d)."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    ok = _safe_columns(region, [pts[:, k] for k in range(pts.shape[1])])
    return bool(ok[0]) if single else ok


def trajectory_safe(region: SafeRegion, traj: np.ndarray) -> np.ndarray | bool:
    """Whole-trajectory safety: min over t in {0..T} of the state indicator.

    ``traj`` is (T+1, d) for one trajectory or (n, T+1, d) for a batch.
    """
    arr = np.asarray(traj, dtype=float)
    single = arr.ndim == 2
    arr = arr[None] if single else arr
    ok = _safe_columns(region, [arr[..., k] for k in range(arr.shape[2])]).all(axis=1)
    return bool(ok[0]) if single else ok


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


def _rollout(params: SynthSystemParams, x0s: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Euler-Maruyama rollouts of every row of ``x0s`` (n, 2) at once.

    ``noise`` holds the standard normals drawn in advance, (T+1, n, 2):
    ``noise[0]`` sets z_0 and ``noise[t + 1]`` is the innovation w_t after
    step t (drawn but unused at t = T).  Every operation is elementwise, so
    row i depends only on ``x0s[i]`` and ``noise[:, i]``.  Returns (n, T+1, 2).

    x1, x2, z1 and z2 are stepped as contiguous (n,) arrays in place, in the
    order of x_{t+1} = clip((x_t + h·f(x_t)) + z_t) and
    z_{t+1} = alpha·(z_t + fb) + (w_scale·w_t), so each value is rounded as
    in that formula; the cube in ``_drift`` is x1·x1·x1.
    """
    T = noise.shape[0] - 1
    n = noise.shape[1]
    out = np.empty((n, T + 1, 2))
    x0 = np.clip(x0s, -SATURATION, SATURATION)
    out[:, 0] = x0
    x1, x2 = np.array(x0[:, 0]), np.array(x0[:, 1])
    z1, z2 = params.sigma * noise[0, :, 0], params.sigma * noise[0, :, 1]
    w_scale = params.sigma * np.sqrt(1.0 - params.alpha ** 2)
    f2, fb, tmp = np.empty(n), np.empty(n), np.empty(n)
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
        out[:, t + 1, 0] = x1
        out[:, t + 1, 1] = x2
        for z, k in ((z1, 0), (z2, 1)):
            z += fb
            z *= params.alpha
            np.multiply(w_scale, noise[t + 1, :, k], out=tmp)
            z += tmp
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
    return _rollout(params, x0s, rng.standard_normal((T + 1, x0s.shape[0], 2)))


@dataclass
class TrajectorySet:
    """A batch of rollouts."""

    states: np.ndarray  # (N, T+1, d)

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1] - 1

    @property
    def initial_states(self) -> np.ndarray:
        return self.states[:, 0, :]

    def to_csv(self, header_comment: str = "") -> str:
        columns = ["traj_id", "t"] + [f"x{k + 1}" for k in range(self.states.shape[2])]
        rows = ([i, t, *x] for i, traj in enumerate(self.states)
                for t, x in enumerate(traj.tolist()))
        return format_table(columns, rows, header_comment)

    @classmethod
    def from_csv(cls, text: str) -> "TrajectorySet":
        """The set ``to_csv`` wrote; rows out of its order are refused, naming the first."""
        _, columns, data = parse_table(text)
        # as many steps per trajectory as the first one has
        steps = max(1, np.count_nonzero(data[:, 0] == data[:1, 0]))
        ids, t = np.divmod(np.arange(-(-len(data) // steps) * steps), steps)
        bad = np.flatnonzero((data[:, 0] != ids[:len(data)]) | (data[:, 1] != t[:len(data)]))
        r = bad[0] if bad.size else len(data)
        if r < len(ids):
            found = (f"trajectory {data[r, 0]:g} at t = {data[r, 1]:g}" if r < len(data)
                     else "the end of the table")
            raise ValueError(f"row {r}: expected trajectory {ids[r]} at t = {t[r]}, found {found}")
        return cls(states=np.ascontiguousarray(data[:, 2:]).reshape(-1, steps, len(columns) - 2))


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
        return format_table(columns, np.hstack([self.x, self.x_next]).tolist(), header_comment)

    @classmethod
    def from_csv(cls, text: str) -> "OneStepPairs":
        _, columns, data = parse_table(text)
        d = len(columns) // 2
        return cls(x=data[:, :d], x_next=data[:, d:])


@dataclass
class GroundTruthGrid:
    """Monte Carlo safety probabilities on a grid of initial states."""

    grid: np.ndarray   # (G, d)
    p_mc: np.ndarray   # (G,)

    def to_csv(self, header_comment: str = "") -> str:
        rows = np.column_stack([self.grid, self.p_mc]).tolist()
        return format_table(["gx", "gy", "p_mc"], rows, header_comment)

    @classmethod
    def from_csv(cls, text: str) -> "GroundTruthGrid":
        _, _, data = parse_table(text)
        return cls(grid=data[:, :2], p_mc=data[:, 2])


def gen_dataset(
    params: SynthSystemParams,
    region: SafeRegion,
    n: int,
    T: int,
    seed: int,
    purpose: str = "traj",
) -> TrajectorySet:
    """Sample ``n`` rollouts with x0 uniform on the region bounding box.

    Each trajectory owns a named substream of (seed, purpose, i), so
    trajectory i is the same no matter how many others are drawn alongside
    it, and distinct purposes (training vs calibration) never share noise.
    Stream i gives x0 first (``uniform(lo, hi)``, d values, computed as
    ``lo + (hi - lo) * random(d)``: the same draws and roundings without
    ``uniform``'s per-call argument handling), then the trajectory's noise
    (``standard_normal((T+1, 2))``, z_0 and then one innovation per step).
    All n trajectories are simulated in one pass, so the noise is held next
    to the states: (T+1)·n·2 floats, the size of the result.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if T < 0:
        raise ValueError("T must be nonnegative")
    lo, hi = region.box_array()
    width = hi - lo
    x0s = np.empty((n, region.dim))
    noise = np.empty((T + 1, n, 2))
    for i in range(n):
        rng = stream(seed, purpose, i)
        x0s[i] = lo + width * rng.random(region.dim)
        noise[:, i] = rng.standard_normal((T + 1, 2))
    return TrajectorySet(states=_rollout(params, x0s, noise))


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
    params: SynthSystemParams,
    region: SafeRegion,
    grid: np.ndarray,
    T: int,
    n_mc: int,
    seed: int,
) -> GroundTruthGrid:
    """Monte Carlo estimate of the safety probability at each grid point.

    Grid point g owns the substream (seed, "mc", g) and draws all of its
    noise from it in one call, ``standard_normal((T+1, n_mc, 2))``: step by
    step, n_mc rollouts at a time.  Unsafe starting points are 0 and draw
    nothing.  Safe points are simulated and scored in blocks of whole points,
    as many as fit in ``_MC_BLOCK`` rollouts and at least one, so a block
    holds max(_MC_BLOCK, n_mc)·(T+1)·2 floats of noise and as many of states.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    if n_mc <= 0:
        raise ValueError("n_mc must be positive")
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    p = np.zeros(grid.shape[0])
    safe_starts = np.flatnonzero(is_safe(region, grid))
    per_block = max(1, _MC_BLOCK // n_mc)
    for first in range(0, safe_starts.size, per_block):
        points = safe_starts[first:first + per_block]
        noise = np.empty((T + 1, points.size * n_mc, 2))
        for j, g in enumerate(points):
            rng = stream(seed, "mc", g)
            noise[:, j * n_mc:(j + 1) * n_mc] = rng.standard_normal((T + 1, n_mc, 2))
        rolls = _rollout(params, np.repeat(grid[points], n_mc, axis=0), noise)
        p[points] = trajectory_safe(region, rolls).reshape(points.size, n_mc).mean(axis=1)
    return GroundTruthGrid(grid=grid, p_mc=p)
