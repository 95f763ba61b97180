"""Direct safety-probability estimation from whole-trajectory labels.

A trajectory is summarized by the binary functional rho(x_{0:T}) =
prod_t 1_S(x_t).  Kernel ridge weights over the initial states turn the
sampled labels into an estimate of the safety probability,

    P(x0) ~ sum_i w_i(x0) * rho_i,

and the estimate becomes a certified lower bound after subtracting three
error terms built around a smoothed surrogate rho~ of the indicator:

    eps1(x) = |sum_i w_i(x) (rho_i - rho~_i)|      smoothing bias at samples
    eps2    = eps * kappa * ||rho~|| * (gamma/gamma_n)^(d(T+1)/2)
    eps3    = Monte Carlo estimate of ||rho~ - rho||_{L2(mu)}

All three default to zero, which is the reference configuration; they only
activate when a distributional ambiguity radius eps or an explicit smoothing
budget is supplied.

The surrogate rho~ is the convolution of rho with a signed mixture of
Gaussian densities (component std j * gamma_n / sqrt(2), j = 1..r, binomial
coefficients with alternating signs summing to one).  Because rho factorizes
over time steps and the safe set is axis-aligned, the convolution is a
closed-form product of normal-CDF differences with inclusion-exclusion over
the obstacle boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .benchmark import SafeRegion, TrajectorySet, trajectory_safe
from .kernels import KAPPA, GramSystem, KernelSpec, fit_weights

__all__ = [
    "ErrorBudget",
    "DirectModel",
    "Eps3Estimate",
    "fit_direct",
    "predict",
    "lower_bound",
    "smoothed_safety",
    "eps1",
    "eps2",
    "eps3",
]

# the working bandwidth a budget without gamma_n derives: n**(-_BETA_EXP) * gamma
_BETA_EXP = 0.5


@dataclass(frozen=True)
class ErrorBudget:
    """Configuration of the error terms attached to the direct estimate.

    ambiguity is the MMD radius eps of the distribution ball (0 disables the
    eps2/eps3 machinery entirely); gamma is the reference mollifier bandwidth
    and gamma_n the working one, defaulting to n**(-1/2) * gamma;
    smoothing_order is r = floor(s) + 1 for the declared smoothness s of the
    target; norm_bound is the caller-supplied RKHS norm ||rho~|| of the
    smoothed functional, which eps2 reads.
    """

    ambiguity: float = 0.0
    gamma: float = 1.0
    gamma_n: float | None = None
    smoothing_order: int = 1
    norm_bound: float = 0.0

    def __post_init__(self) -> None:
        if self.ambiguity < 0:
            raise ValueError("ambiguity must be nonnegative")
        if self.gamma <= 0 or (self.gamma_n is not None and self.gamma_n <= 0):
            raise ValueError("bandwidths must be positive")
        if self.smoothing_order < 1:
            raise ValueError("smoothing_order must be at least 1")

    def resolve_gamma_n(self, n: int | None) -> float:
        if self.gamma_n is not None:
            return self.gamma_n
        return float(n) ** (-_BETA_EXP) * self.gamma


def _mollifier_components(gamma_n: float, order: int) -> list[tuple[float, float]]:
    # signed coefficients sum to 1, so the mixture integrates to one
    comps = []
    for j in range(1, order + 1):
        coef = math.comb(order, j) * (-1.0) ** (1 - j)
        comps.append((coef, j * gamma_n / math.sqrt(2.0)))
    return comps


def _box_mass(low: np.ndarray, high: np.ndarray, x: np.ndarray, s: float) -> np.ndarray:
    """P(x + N(0, s^2 I) in [low, high]) for a batch of points x (n, d)."""
    if np.any(high <= low):
        return np.zeros(x.shape[0])
    # imported here: scipy.special adds ~0.3 s to every import of the
    # package, and only the smoothed surrogate of the error budget needs it
    from scipy.special import ndtr

    up = ndtr((high - x) / s)
    down = ndtr((low - x) / s)
    return np.prod(up - down, axis=1)


def _safe_mass(region: SafeRegion, x: np.ndarray, s: float) -> np.ndarray:
    """Gaussian-smoothed safe-set indicator at each point of x (n, d)."""
    lo, hi = region.box_array()
    total = _box_mass(lo, hi, x, s)
    m = len(region.obstacles)
    # inclusion-exclusion over obstacle boxes clipped to the bounding box
    for size in range(1, m + 1):
        for subset in combinations(range(m), size):
            olo = lo.copy()
            ohi = hi.copy()
            for k in subset:
                olo = np.maximum(olo, np.asarray(region.obstacles[k][0]))
                ohi = np.minimum(ohi, np.asarray(region.obstacles[k][1]))
            mass = _box_mass(olo, ohi, x, s)
            total += ((-1.0) ** size) * mass
    return total


def smoothed_safety(
    region: SafeRegion, trajs: np.ndarray, gamma_n: float, order: int = 1
) -> np.ndarray:
    """Closed-form smoothed trajectory functional rho~ for a batch (n, T+1, d).

    Each mixture component is a product over time steps of per-step smoothed
    indicators, exact for axis-aligned geometry.
    """
    arr = np.asarray(trajs, dtype=float)
    n, steps, d = arr.shape
    flat = arr.reshape(n * steps, d)
    out = np.zeros(n)
    for coef, s in _mollifier_components(gamma_n, order):
        per_step = _safe_mass(region, flat, s).reshape(n, steps)
        out += coef * np.prod(per_step, axis=1)
    return out


@dataclass
class DirectModel:
    """Ridge system over initial states with whole-trajectory safety labels."""

    gram: GramSystem
    region: SafeRegion
    trajectories: np.ndarray    # (N, T+1, d)

    def __post_init__(self) -> None:
        # the factor is over the start states: trajectories swapped in by
        # ``replace`` must start where the fitted ones did
        starts, inputs = self.trajectories[:, 0], self.gram.inputs
        if starts.shape != inputs.shape:
            raise ValueError(f"the trajectories' start states have shape {starts.shape}, "
                             f"but the model was fitted at {inputs.shape}")
        differ = np.flatnonzero(np.any(starts != inputs, axis=1))
        if differ.size:
            raise ValueError(f"trajectory {differ[0]} starts at {starts[differ[0]].tolist()}, "
                             f"but the model was fitted at {inputs[differ[0]].tolist()}")

    @property
    def labels(self) -> np.ndarray:
        """(N,) 0/1 floats: the whole-horizon safety of each trajectory."""
        return trajectory_safe(self.region, self.trajectories).astype(float)

    @property
    def n(self) -> int:
        return self.gram.size

    @property
    def horizon(self) -> int:
        return self.trajectories.shape[1] - 1


def fit_direct(spec: KernelSpec, ts: TrajectorySet, region: SafeRegion) -> DirectModel:
    """Label each trajectory by whole-horizon safety and fit the ridge system."""
    return DirectModel(gram=fit_weights(spec, ts.initial_states), region=region,
                       trajectories=ts.states)


def predict(model: DirectModel, x0: np.ndarray) -> np.ndarray:
    """Raw estimate sum_i w_i(x0) * label_i; may leave [0, 1], never clipped here."""
    return model.gram.expand(x0, model.gram.solve(model.labels))


def eps1(model: DirectModel, budget: ErrorBudget, x0: np.ndarray) -> np.ndarray:
    """Smoothing bias |sum_i w_i(x0) (rho_i - rho~_i)| at each query of a batch (n, d)."""
    gamma_n = budget.resolve_gamma_n(model.n)
    rho_tilde = smoothed_safety(
        model.region, model.trajectories, gamma_n, budget.smoothing_order
    )
    return np.abs(model.gram.expand(x0, model.gram.solve(model.labels - rho_tilde)))


def eps2(budget: ErrorBudget, d: int, T: int, n: int | None = None) -> float:
    """Ambiguity term eps * kappa * ||rho~|| * (gamma / gamma_n)^(d(T+1)/2),
    with eps, ||rho~|| (``norm_bound``) and the bandwidths from ``budget``."""
    if budget.gamma_n is None and n is None:
        raise ValueError("n is required when gamma_n is derived from the sample size")
    ratio = budget.gamma / budget.resolve_gamma_n(n)
    return budget.ambiguity * KAPPA * budget.norm_bound * ratio ** (d * (T + 1) / 2.0)


@dataclass(frozen=True)
class Eps3Estimate:
    value: float
    stderr: float


def eps3(
    model: DirectModel,
    budget: ErrorBudget,
    n_mc: int,
    seed: int,
    sampler: Callable[[int, np.random.Generator], np.ndarray],
) -> Eps3Estimate:
    """Monte Carlo estimate of ||rho~ - rho||_{L2} under the trajectory law.

    ``sampler(n, rng)`` must return fresh trajectories (n, T+1, d) from the
    evaluation distribution (held-out data or the simulator); the estimate is
    reported with the standard error propagated through the square root.
    """
    from .rng import stream

    if n_mc <= 0:
        raise ValueError("n_mc must be positive")
    rng = stream(seed, "eps3")
    trajs = np.asarray(sampler(n_mc, rng), dtype=float)
    gamma_n = budget.resolve_gamma_n(model.n)
    rho = trajectory_safe(model.region, trajs).astype(float)
    rho_tilde = smoothed_safety(model.region, trajs, gamma_n, budget.smoothing_order)
    sq = (rho_tilde - rho) ** 2
    mean_sq = float(np.mean(sq))
    se_mean = float(np.std(sq, ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0
    value = float(np.sqrt(mean_sq))
    stderr = se_mean / (2.0 * value) if value > 0 else 0.0
    return Eps3Estimate(value=value, stderr=stderr)


def lower_bound(
    model: DirectModel, x0: np.ndarray, budget: ErrorBudget, eps3_value: float = 0.0
) -> np.ndarray:
    """Certified lower bound: ``predict`` minus the error budget's terms.

    eps1 and eps2 come from ``budget``; eps3 needs a trajectory sampler, so
    the caller passes its precomputed value.  The raw estimate alone is
    ``predict``.
    """
    e1 = eps1(model, budget, x0)
    e2 = eps2(budget, model.region.dim, model.horizon, n=model.n)
    return predict(model, x0) - e1 - e2 - eps3_value
