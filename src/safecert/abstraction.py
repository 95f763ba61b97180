"""Finite-state abstractions of the one-step conditional model.

A uniform partition of the bounding box turns the kernel model into a finite
transition matrix: row i holds the ridge weights at the cell representative
(the center), aggregated by the cell membership of the sampled next states,
then clipped to [0, 1] and renormalized to a probability row.  Two certified
value iterations run on top of it:

* interval iteration: per-row rectangular ambiguity sets [lower, upper]
  around the empirical rows; each backward step takes the worst-case
  (minimizing) distribution in the set, found by order-maximization.
* sampling-based relaxation: the empirical rows are used directly and a
  per-cell slack delta is subtracted each step before clamping.

Cells are flagged safe only when the whole closed cell avoids every obstacle
box, which is exact for axis-aligned geometry and conservative for cells
straddling a boundary.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .benchmark import SafeRegion, is_safe
from .dp import DpModel

__all__ = [
    "Partition",
    "IntervalModel",
    "SsrParams",
    "build_partition",
    "empirical_cell_probs",
    "imp_inner_min",
    "imp_value_iteration",
    "ssr_value_iteration",
    "evaluate_abstraction",
]


@dataclass
class Partition:
    """Uniform axis-aligned partition of the region bounding box."""

    region: SafeRegion
    counts: tuple[int, ...]
    edges: list[np.ndarray]
    centers: np.ndarray      # (n, d)
    lows: np.ndarray         # (n, d)
    highs: np.ndarray        # (n, d)
    safe_flags: np.ndarray   # (n,) bool: whole cell inside the safe set
    center_safe: np.ndarray  # (n,) bool: representative inside the safe set

    @property
    def n_cells(self) -> int:
        return self.centers.shape[0]

    def locate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell index and in-box flag for points (d,) or (n, d).

        Out-of-box points get a clamped index and in-box False; callers must
        honor the flag.
        """
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        lo, hi = self.region.box_array()
        inbox = np.all((pts >= lo) & (pts <= hi), axis=1)
        multi = []
        for k in range(self.region.dim):
            idx = np.searchsorted(self.edges[k][1:-1], pts[:, k], side="right")
            multi.append(np.clip(idx, 0, self.counts[k] - 1))
        flat = np.ravel_multi_index(multi, self.counts)
        return flat, inbox


def build_partition(region: SafeRegion, counts: tuple[int, ...]) -> Partition:
    """Uniform partition with prod(counts) cells; representatives are centers."""
    counts = tuple(int(c) for c in counts)
    if len(counts) != region.dim or any(c < 1 for c in counts):
        raise ValueError("counts must give a positive resolution per dimension")
    lo, hi = region.box_array()
    edges = [np.linspace(lo[k], hi[k], counts[k] + 1) for k in range(region.dim)]
    axes_low = [edges[k][:-1] for k in range(region.dim)]
    axes_high = [edges[k][1:] for k in range(region.dim)]
    mesh_low = np.meshgrid(*axes_low, indexing="ij")
    mesh_high = np.meshgrid(*axes_high, indexing="ij")
    lows = np.stack([m.ravel() for m in mesh_low], axis=1)
    highs = np.stack([m.ravel() for m in mesh_high], axis=1)
    centers = 0.5 * (lows + highs)

    safe = np.ones(lows.shape[0], dtype=bool)
    for olow, ohigh in region.obstacles:
        ol, oh = np.asarray(olow), np.asarray(ohigh)
        # closed boxes: touching an obstacle already breaks cell-in-S
        hit = np.all((lows <= oh) & (highs >= ol), axis=1)
        safe &= ~hit
    center_safe = np.asarray(is_safe(region, centers), dtype=bool)
    return Partition(
        region=region,
        counts=counts,
        edges=edges,
        centers=centers,
        lows=lows,
        highs=highs,
        safe_flags=safe,
        center_safe=center_safe,
    )


def empirical_cell_probs(part: Partition, dp_model: DpModel) -> np.ndarray:
    """Empirical cell-to-cell transition matrix from the kernel model.

    Row i aggregates the ridge weights at center i by the cell membership of
    the sampled next states (samples leaving the box carry no membership),
    clips to [0, 1], and renormalizes to sum 1.  Rows with no mass fall back
    to uniform with a warning.
    """
    if dp_model.gram is None or dp_model.x_next is None:
        raise ValueError("cell probabilities need a kernel-backed model")
    w = dp_model.gram.weights_at(part.centers)          # (n_cells, M)
    m_idx, inbox = part.locate(dp_model.x_next)
    acc = np.zeros((part.n_cells, part.n_cells))
    np.add.at(acc, m_idx[inbox], w[:, inbox].T)
    probs = np.clip(acc.T, 0.0, 1.0)
    sums = probs.sum(axis=1)
    dead = sums <= 0.0
    if np.any(dead):
        idx = np.flatnonzero(dead)
        warnings.warn(
            f"{idx.size} partition row(s) had no probability mass "
            f"(first: {idx[:5].tolist()}); falling back to uniform",
            RuntimeWarning,
            stacklevel=2,
        )
        probs[dead] = 1.0 / part.n_cells
        sums[dead] = 1.0
    return probs / sums[:, None]


@dataclass
class IntervalModel:
    """Rectangular ambiguity set [lower, upper] around an empirical row matrix."""

    phat: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        for name in ("phat", "lower", "upper"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.phat.shape[0]
        if self.phat.shape != (n, n) or self.lower.shape != (n, n) or self.upper.shape != (n, n):
            raise ValueError("phat, lower, upper must be equal square matrices")
        _check_feasible_rows(self.lower, self.upper)

    @classmethod
    def from_radii(cls, phat: np.ndarray, radius) -> "IntervalModel":
        """Symmetric intervals phat +- radius, clipped to [0, 1] entrywise."""
        phat = np.asarray(phat, dtype=float)
        r = np.broadcast_to(np.asarray(radius, dtype=float), phat.shape)
        if np.any(r < 0):
            raise ValueError("radius must be nonnegative")
        return cls(
            phat=phat,
            lower=np.clip(phat - r, 0.0, 1.0),
            upper=np.clip(phat + r, 0.0, 1.0),
        )


_FEAS_TOL = 1e-9


def _check_feasible_rows(lower: np.ndarray, upper: np.ndarray) -> None:
    if np.any(lower > upper + _FEAS_TOL):
        i, j = np.argwhere(lower > upper + _FEAS_TOL)[0]
        raise ValueError(f"infeasible interval: lower[{i},{j}] > upper[{i},{j}]")
    lo_sum = lower.sum(axis=1)
    up_sum = upper.sum(axis=1)
    if np.any(lo_sum > 1.0 + _FEAS_TOL):
        i = int(np.argmax(lo_sum))
        raise ValueError(f"infeasible row {i}: sum of lower bounds {lo_sum[i]:.6g} > 1")
    if np.any(up_sum < 1.0 - _FEAS_TOL):
        i = int(np.argmin(up_sum))
        raise ValueError(f"infeasible row {i}: sum of upper bounds {up_sum[i]:.6g} < 1")


def imp_inner_min(
    lower: np.ndarray,
    upper: np.ndarray,
    v: np.ndarray,
    order: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Minimize p @ v over {lower <= p <= upper, sum(p) = 1}.

    Order-maximization: start from the lower bounds and hand the remaining
    mass to coordinates in ascending order of v (ties broken by index).
    Returns the minimizing distribution and its value.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(lower > upper + _FEAS_TOL):
        i = int(np.argmax(lower - upper))
        raise ValueError(f"infeasible interval: lower[{i}] > upper[{i}]")
    budget = 1.0 - lower.sum()
    if budget < -_FEAS_TOL:
        raise ValueError(f"infeasible: sum of lower bounds {lower.sum():.6g} > 1")
    if upper.sum() < 1.0 - _FEAS_TOL:
        raise ValueError(f"infeasible: sum of upper bounds {upper.sum():.6g} < 1")
    if order is None:
        order = np.argsort(v, kind="stable")
    p = lower.copy()
    budget = max(budget, 0.0)
    for i in order:
        if budget <= 0.0:
            break
        add = min(upper[i] - lower[i], budget)
        p[i] += add
        budget -= add
    return p, float(p @ v)


def imp_value_iteration(model: IntervalModel, part: Partition, T: int) -> np.ndarray:
    """Robust backward iteration; unsafe cells are pinned at 0 at every level."""
    if T < 0:
        raise ValueError("T must be nonnegative")
    safe = part.safe_flags
    v = safe.astype(float)
    for _ in range(T):
        order = np.argsort(v, kind="stable")
        new_v = np.zeros_like(v)
        for i in np.flatnonzero(safe):
            _, new_v[i] = imp_inner_min(model.lower[i], model.upper[i], v, order=order)
        v = new_v
    return v


@dataclass(frozen=True)
class SsrParams:
    """Slack configuration for the sampling-based relaxation.

    delta is the per-step slack (scalar or per-cell vector); disc_radius, when
    given, records the discretization radius and must cover the largest cell
    half-diagonal.
    """

    delta: float | np.ndarray = 0.0
    disc_radius: float | None = None

    def delta_vector(self, n: int) -> np.ndarray:
        d = np.broadcast_to(np.asarray(self.delta, dtype=float), (n,))
        if np.any(d < 0) or np.any(d > 1):
            raise ValueError("delta must lie in [0, 1]")
        return d

    def validate_radius(self, part: Partition) -> None:
        if self.disc_radius is None:
            return
        half_diag = float(np.max(np.linalg.norm((part.highs - part.lows) / 2.0, axis=1)))
        if self.disc_radius < half_diag - 1e-12:
            raise ValueError(
                f"disc_radius {self.disc_radius:.6g} is below the largest cell "
                f"half-diagonal {half_diag:.6g}"
            )


def ssr_value_iteration(
    part: Partition, dp_model: DpModel, ssr: SsrParams, T: int
) -> np.ndarray:
    """Backward iteration on the empirical cell matrix minus per-cell slack.

    The terminal level uses safety of the cell representative; interior
    levels multiply by the whole-cell safety flag, subtract delta, and clamp.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    ssr.validate_radius(part)
    probs = empirical_cell_probs(part, dp_model)
    delta = ssr.delta_vector(part.n_cells)
    safe = part.safe_flags.astype(float)
    v = part.center_safe.astype(float)
    for _ in range(T):
        v = safe * np.clip(probs @ v - delta, 0.0, 1.0)
    return v


def evaluate_abstraction(
    v0: np.ndarray, part: Partition, x0: np.ndarray
) -> np.ndarray | float:
    """Look up the certified value of the cell containing x0; 0 outside the box."""
    q = np.asarray(x0, dtype=float)
    single = q.ndim == 1
    idx, inbox = part.locate(q)
    out = np.where(inbox, np.asarray(v0, dtype=float)[idx], 0.0)
    return float(out[0]) if single else out
