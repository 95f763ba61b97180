"""Barrier-style certificates checked against the empirical one-step model.

A nonnegative function B certifies safety when it is small on the initial
set, large on the unsafe set, and its expected one-step growth inside the
safe set is bounded:

    (a)  B(x) <= eta        on X0
    (b)  B(x) >= gamma_lvl  on the unsafe set
    (c)  E[B(X+) | x] - B(x) <= beta   for x in S,

giving the horizon-T bound  P_safe >= 1 - (eta + beta * T) / gamma_lvl
whenever gamma_lvl > eta >= 0.  The conditional expectation in (c) is the
ridge-weight estimate from a fitted one-step model plus the ambiguity
penalty eps * kappa * ||B||_H, and the RKHS norm of a kernel-expansion
candidate is exact: sqrt(alpha^T K_c alpha).

All suprema and infima are evaluated on user-density grids, so the check is
a falsification-grade screen rather than a global proof; the report records
the grids used.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .benchmark import SafeRegion, is_safe, trajectory_safe
from .dp import DpModel
from .kernels import KAPPA, KernelSpec, fit_weights, gram_matrix, kernel_expansion
from .rng import stream

__all__ = [
    "BarrierCandidate",
    "BarrierReport",
    "OracleResult",
    "check_barrier",
    "uniform_mc_oracle",
    "fit_barrier_candidate",
    "box_mesh",
]


@dataclass(frozen=True)
class BarrierCandidate:
    """Kernel expansion B(x) = sum_i alpha_i k(x, c_i)."""

    spec: KernelSpec
    centers: np.ndarray  # (m, d)
    alpha: np.ndarray    # (m,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "centers", np.atleast_2d(np.asarray(self.centers, dtype=float)))
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if self.alpha.shape[0] != self.centers.shape[0]:
            raise ValueError("alpha must have one coefficient per center")

    def value(self, x: np.ndarray) -> np.ndarray:
        """B at each point of a batch (n, d)."""
        return kernel_expansion(self.spec, x, self.centers, self.alpha)

    def rkhs_norm(self) -> float:
        k = gram_matrix(self.spec, self.centers)
        return float(np.sqrt(max(self.alpha @ (k @ self.alpha), 0.0)))


@dataclass
class BarrierReport:
    """Grid-checked certificate quantities and the resulting bound."""

    eta: float
    gamma_lvl: float
    beta: float                # grid sup of the drift plus the ambiguity penalty
    bound: float | None        # None when the level condition fails
    feasible: bool             # gamma_lvl > eta >= 0 and B >= 0 on the grids
    nonneg_ok: bool
    horizon: int
    ambiguity_penalty: float
    n_grid_points: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def box_mesh(low: np.ndarray, high: np.ndarray, counts: tuple[int, ...]) -> np.ndarray:
    """Regular grid over the box [low, high], corners included: (prod(counts), d).

    Axis k carries ``counts[k]`` evenly spaced points from low[k] to high[k].
    """
    axes = [np.linspace(low[k], high[k], counts[k]) for k in range(len(counts))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _grid_counts(grids: int, dim: int) -> tuple[int, ...]:
    """``grids`` points along each of ``dim`` axes."""
    if grids < 2:
        raise ValueError("grid counts must give at least 2 points per dimension")
    return (grids,) * dim


def check_barrier(
    candidate: BarrierCandidate,
    dp_model: DpModel,
    region: SafeRegion,
    x0_box: tuple[np.ndarray, np.ndarray],
    T: int,
    grids: int = 25,
) -> BarrierReport:
    """Evaluate conditions (a)-(c) on grids and assemble the horizon-T bound.

    The unsafe set is the union of obstacle boxes inside the region bounding
    box; a region without obstacles has nothing to check against and is
    rejected.  The bound uses max(beta, 0): any upper bound on the drift is
    admissible and a negative one would let the formula exceed 1.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    if not region.obstacles:
        raise ValueError("region has no obstacle boxes, so the unsafe grid is empty")
    counts = _grid_counts(grids, region.dim)

    x0_low = np.asarray(x0_box[0], dtype=float)
    x0_high = np.asarray(x0_box[1], dtype=float)
    init_pts = box_mesh(x0_low, x0_high, counts)

    unsafe_pts = np.vstack(
        [box_mesh(np.asarray(ol), np.asarray(oh), counts) for ol, oh in region.obstacles]
    )

    lo, hi = region.box_array()
    box_pts = box_mesh(lo, hi, counts)
    safe_pts = box_pts[is_safe(region, box_pts)]
    if safe_pts.shape[0] == 0:
        raise ValueError("safe-set grid is empty; refine the grid")

    b_init = candidate.value(init_pts)
    b_unsafe = candidate.value(unsafe_pts)
    b_safe = candidate.value(safe_pts)
    eta = float(np.max(b_init))
    gamma_lvl = float(np.min(b_unsafe))

    alpha = dp_model.gram.solve(candidate.value(dp_model.x_next))
    drift = dp_model.gram.expand(safe_pts, alpha) - b_safe
    penalty = dp_model.ambiguity * KAPPA * candidate.rkhs_norm()
    beta = float(np.max(drift)) + penalty

    nonneg_ok = bool(min(np.min(b) for b in (b_init, b_unsafe, b_safe)) >= 0.0)

    feasible = nonneg_ok and eta >= 0.0 and gamma_lvl > eta
    bound = None
    if feasible:
        bound = 1.0 - (eta + max(beta, 0.0) * T) / gamma_lvl
    return BarrierReport(
        eta=eta,
        gamma_lvl=gamma_lvl,
        beta=beta,
        bound=bound,
        feasible=feasible,
        nonneg_ok=nonneg_ok,
        horizon=T,
        ambiguity_penalty=penalty,
        n_grid_points=b_init.size + b_unsafe.size + b_safe.size,
    )


@dataclass(frozen=True)
class OracleResult:
    """Minimum Monte Carlo safety probability over an initial-set grid."""

    value: float
    stderr: float
    grid: np.ndarray
    estimates: np.ndarray


def uniform_mc_oracle(
    rollout,
    region: SafeRegion,
    x0_box: tuple[np.ndarray, np.ndarray],
    T: int,
    n_mc: int,
    seed: int,
    grids: int = 11,
) -> OracleResult:
    """min over an X0 grid of Monte Carlo safety estimates.

    ``rollout(x0s, T, rng)`` must return (n, T+1, d) trajectories; the
    standard error reported is the binomial one at the minimizing point.
    """
    counts = _grid_counts(grids, region.dim)
    grid = box_mesh(np.asarray(x0_box[0], dtype=float), np.asarray(x0_box[1], dtype=float), counts)
    estimates = np.empty(grid.shape[0])
    for g in range(grid.shape[0]):
        rng = stream(seed, "barrier-mc", g)
        rolls = rollout(np.tile(grid[g], (n_mc, 1)), T, rng)
        estimates[g] = float(np.mean(trajectory_safe(region, rolls)))
    k = int(np.argmin(estimates))
    p = estimates[k]
    return OracleResult(
        value=float(p),
        stderr=float(np.sqrt(p * (1.0 - p) / n_mc)),
        grid=grid,
        estimates=estimates,
    )


def fit_barrier_candidate(
    spec: KernelSpec, centers: np.ndarray, targets: np.ndarray
) -> BarrierCandidate:
    """Ridge-fit a kernel expansion through (centers, targets)."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    alpha = fit_weights(spec, centers).solve(targets)
    return BarrierCandidate(spec=spec, centers=centers, alpha=alpha)
