"""Synthetic nonlinear benchmark with a tunable non-Markovian latent channel.

State x = (x1, x2) follows an Euler step of a cubic oscillator driven by a
latent AR(1) disturbance z in R^2:

    x_{t+1} = x_t + h * (x2_t, x1_t^3 / 3 - x1_t - x2_t) + z_t
    z_{t+1} = alpha * (z_t + beta_c * tanh(gamma_c * x1_t)) + w_t

with w_t ~ N(0, sigma^2 (1 - alpha^2) I) and z_0 ~ N(0, sigma^2 I), so the
marginal variance of each latent component is sigma^2 at every alpha.  The
scalar feedback beta_c * tanh(gamma_c * x1) enters both latent components.
alpha = 0 makes the process Markovian in x; alpha near 1 produces strongly
correlated disturbances that one-step models cannot see.

Only x is observed.  Safety is membership of x in a box minus a set of
axis-aligned obstacle boxes; a trajectory is safe iff every state from t = 0
through t = T is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    "simulate",
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


def is_safe(region: SafeRegion, x: np.ndarray) -> np.ndarray | bool:
    """Membership in the safe set for one point (d,) or a batch (n, d)."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    lo, hi = region.box_array()
    ok = np.all((pts >= lo) & (pts <= hi), axis=1)
    for olow, ohigh in region.obstacles:
        inside = np.all((pts >= np.asarray(olow)) & (pts <= np.asarray(ohigh)), axis=1)
        ok &= ~inside
    return bool(ok[0]) if single else ok


def trajectory_safe(region: SafeRegion, traj: np.ndarray) -> np.ndarray | bool:
    """Whole-trajectory safety: min over t in {0..T} of the state indicator.

    ``traj`` is (T+1, d) for one trajectory or (n, T+1, d) for a batch.
    """
    arr = np.asarray(traj, dtype=float)
    single = arr.ndim == 2
    arr = arr[None] if single else arr
    n, steps, d = arr.shape
    flat = is_safe(region, arr.reshape(n * steps, d)).reshape(n, steps)
    ok = np.all(flat, axis=1)
    return bool(ok[0]) if single else ok


def _drift(x: np.ndarray) -> np.ndarray:
    x1, x2 = x[..., 0], x[..., 1]
    return np.stack([x2, x1 ** 3 / 3.0 - x1 - x2], axis=-1)


def simulate_batch(
    params: SynthSystemParams, x0s: np.ndarray, T: int, rng: np.random.Generator
) -> np.ndarray:
    """Roll out ``T`` steps from each row of ``x0s``; returns (n, T+1, 2)."""
    if T < 0:
        raise ValueError("T must be nonnegative")
    x0s = np.atleast_2d(np.asarray(x0s, dtype=float))
    n = x0s.shape[0]
    out = np.empty((n, T + 1, 2))
    out[:, 0] = np.clip(x0s, -SATURATION, SATURATION)
    z = params.sigma * rng.standard_normal((n, 2))
    w_scale = params.sigma * np.sqrt(1.0 - params.alpha ** 2)
    for t in range(T):
        x = out[:, t]
        out[:, t + 1] = np.clip(x + params.h * _drift(x) + z, -SATURATION, SATURATION)
        fb = params.beta_c * np.tanh(params.gamma_c * x[:, 0])
        z = params.alpha * (z + fb[:, None]) + w_scale * rng.standard_normal((n, 2))
    return out


def simulate(
    params: SynthSystemParams, x0: np.ndarray, T: int, rng: np.random.Generator
) -> np.ndarray:
    """Single rollout from ``x0``; returns (T+1, 2)."""
    return simulate_batch(params, np.asarray(x0, dtype=float)[None, :], T, rng)[0]


@dataclass
class TrajectorySet:
    """A batch of rollouts plus the provenance needed to reproduce it."""

    states: np.ndarray  # (N, T+1, d)
    params: SynthSystemParams
    seed: int

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
    def from_csv(cls, text: str, params: SynthSystemParams | None = None, seed: int = 0) -> "TrajectorySet":
        _, columns, data = parse_table(text)
        ids, traj_of_row = np.unique(data[:, 0], return_inverse=True)
        t = data[:, 1].astype(int)
        states = np.empty((len(ids), len(np.unique(t)), len(columns) - 2))
        states[traj_of_row, t] = data[:, 2:]
        return cls(states=states, params=params or SynthSystemParams(), seed=seed)


@dataclass
class OneStepPairs:
    """Transition samples (x_i, x_i^+) used by one-step conditional models."""

    x: np.ndarray       # (M, d)
    x_next: np.ndarray  # (M, d)
    params: SynthSystemParams
    seed: int
    mode: str = "iid"

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def to_csv(self, header_comment: str = "") -> str:
        d = self.x.shape[1]
        columns = [f"x{k + 1}" for k in range(d)] + [f"xn{k + 1}" for k in range(d)]
        return format_table(columns, np.hstack([self.x, self.x_next]).tolist(), header_comment)

    @classmethod
    def from_csv(cls, text: str, params: SynthSystemParams | None = None, seed: int = 0) -> "OneStepPairs":
        _, columns, data = parse_table(text)
        d = len(columns) // 2
        return cls(
            x=data[:, :d], x_next=data[:, d:], params=params or SynthSystemParams(), seed=seed
        )


@dataclass
class GroundTruthGrid:
    """Monte Carlo safety probabilities on a grid of initial states."""

    grid: np.ndarray   # (G, d)
    p_mc: np.ndarray   # (G,)
    n_mc: int
    seed: int = 0

    def to_csv(self, header_comment: str = "") -> str:
        rows = np.column_stack([self.grid, self.p_mc]).tolist()
        return format_table(["gx", "gy", "p_mc"], rows, header_comment)

    @classmethod
    def from_csv(cls, text: str, n_mc: int = 0, seed: int = 0) -> "GroundTruthGrid":
        _, _, data = parse_table(text)
        return cls(grid=data[:, :2], p_mc=data[:, 2], n_mc=n_mc, seed=seed)


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
    """
    if n <= 0:
        raise ValueError("n must be positive")
    lo, hi = region.box_array()
    states = np.empty((n, T + 1, region.dim))
    for i in range(n):
        rng = stream(seed, purpose, i)
        x0 = rng.uniform(lo, hi)
        states[i] = simulate(params, x0, T, rng)
    return TrajectorySet(states=states, params=params, seed=seed)


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
        return OneStepPairs(x=rolls[:, 0], x_next=rolls[:, 1], params=params, seed=seed, mode=mode)
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
        return OneStepPairs(x=x, x_next=x_next, params=ts.params, seed=seed, mode=mode)
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

    Each grid point owns a named substream and is evaluated with ``n_mc``
    vectorized rollouts; unsafe starting points are 0 without simulation.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    p = np.zeros(grid.shape[0])
    start_safe = is_safe(region, grid)
    for g in range(grid.shape[0]):
        if not start_safe[g]:
            continue
        rng = stream(seed, "mc", g)
        x0s = np.tile(grid[g], (n_mc, 1))
        rolls = simulate_batch(params, x0s, T, rng)
        p[g] = float(np.mean(trajectory_safe(region, rolls)))
    return GroundTruthGrid(grid=grid, p_mc=p, n_mc=n_mc, seed=seed)
