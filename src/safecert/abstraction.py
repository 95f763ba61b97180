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
from .kernels import query_blocks

__all__ = [
    "Partition",
    "IntervalModel",
    "SsrParams",
    "build_partition",
    "empirical_cell_probs",
    "imp_inner_min",
    "imp_value_iteration",
    "ssr_backward",
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
    center_safe = is_safe(region, centers)
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

    The weights are solved for one ``query_blocks`` block of centers at a
    time and binned row by row, so beside the (n_cells, n_cells) result one
    block of weights is held, never the (n_cells, M) matrix.  Each weight column is its own triangular solve, so
    the blocks give the bytes of one call over every center.
    """
    if dp_model.gram is None or dp_model.x_next is None:
        raise ValueError("cell probabilities need a kernel-backed model")
    m_idx, inbox = part.locate(dp_model.x_next)
    target = m_idx[inbox]
    n = part.n_cells
    probs = np.empty((n, n))
    for rows in query_blocks(n, dp_model.gram.size):
        w = dp_model.gram.weights_at(part.centers[rows])  # (block, M)
        for i, row in enumerate(w, start=rows.start):
            probs[i] = np.bincount(target, weights=row[inbox], minlength=n)
        del w, row  # the block is freed before the next one is built
    np.clip(probs, 0.0, 1.0, out=probs)
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
        probs[dead] = 1.0 / n
        sums[dead] = 1.0
    probs /= sums[:, None]
    return probs


@dataclass
class IntervalModel:
    """Rectangular ambiguity set: the row-stochastic matrices between lower and upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        n = self.lower.shape[0]
        if self.lower.shape != (n, n) or self.upper.shape != (n, n):
            raise ValueError("lower and upper must be equal square matrices")
        _check_feasible_rows(self.lower, self.upper)

    @classmethod
    def from_radii(cls, phat: np.ndarray, radius) -> "IntervalModel":
        """Symmetric intervals phat +- radius, clipped to [0, 1] entrywise."""
        phat = np.asarray(phat, dtype=float)
        r = np.broadcast_to(np.asarray(radius, dtype=float), phat.shape)
        if not np.all(r >= 0):  # NaN fails too: its bounds would pass every feasibility test
            raise ValueError("radius must be nonnegative and not NaN")
        lower, upper = phat - r, phat + r
        np.clip(lower, 0.0, 1.0, out=lower)
        np.clip(upper, 0.0, 1.0, out=upper)
        return cls(lower=lower, upper=upper)


_FEAS_TOL = 1e-9
_ROW_BLOCK = 256    # rows per block of a feasibility check
_FIRST_CHUNK = 32   # columns in the first chunk of order-maximisation


def _check_feasible_rows(
    lower: np.ndarray, upper: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """Check that the interval set of each row (all by default) is nonempty.

    Bounds must be finite: a NaN passes every comparison below.  Rows are
    checked in blocks of _ROW_BLOCK, so no temporary grows past a block.
    Returns each row's budget 1 - sum(lower), floored at 0: the mass
    order-maximisation hands out above the lower bounds.
    """
    if rows is None:
        rows = np.arange(lower.shape[0])
    budget = np.empty(rows.size)
    for start in range(0, rows.size, _ROW_BLOCK):
        block = rows[start:start + _ROW_BLOCK]
        lo, up = lower[block], upper[block]
        for name, bound in (("lower", lo), ("upper", up)):
            finite = np.isfinite(bound)
            if not np.all(finite):
                k, j = np.argwhere(~finite)[0]
                raise ValueError(f"{name}[{block[k]},{j}] = {bound[k, j]} is not finite")
        bad = lo > up + _FEAS_TOL
        if np.any(bad):
            k, j = np.argwhere(bad)[0]
            raise ValueError(
                f"infeasible interval: lower[{block[k]},{j}] > upper[{block[k]},{j}]"
            )
        lo_sum = lo.sum(axis=1)
        up_sum = up.sum(axis=1)
        if np.any(lo_sum > 1.0 + _FEAS_TOL):
            k = int(np.argmax(lo_sum))
            raise ValueError(
                f"infeasible row {block[k]}: sum of lower bounds {lo_sum[k]:.6g} > 1"
            )
        if np.any(up_sum < 1.0 - _FEAS_TOL):
            k = int(np.argmin(up_sum))
            raise ValueError(
                f"infeasible row {block[k]}: sum of upper bounds {up_sum[k]:.6g} < 1"
            )
        budget[start:start + block.size] = 1.0 - lo_sum
    return np.maximum(budget, 0.0)


def _order_max(
    lower: np.ndarray,
    upper: np.ndarray,
    rows: np.ndarray,
    v: np.ndarray,
    order: np.ndarray,
    budget: np.ndarray,
    p: np.ndarray | None = None,
) -> np.ndarray:
    """min p @ v over {lower[r] <= p <= upper[r], sum(p) = 1} for each r in rows.

    Order-maximisation: every row starts from its lower bounds and hands its
    budget (from _check_feasible_rows) to the columns in ``order``, ascending
    v, each up to its upper bound, until the budget is spent.  All rows share
    the order, so the fill runs on all rows at once, over column chunks of
    doubling width; a row leaves once its budget is spent, so a row costs
    the columns its budget reaches, not n.  The budget left before each
    column is a running sum of the negated gaps, the same subtractions in
    the same order as a column-by-column loop.  When ``p`` (len(rows), n)
    holds lower[rows], the minimising distributions are written into it.
    """
    value = (lower @ v)[rows]
    active = np.flatnonzero(budget > 0.0)   # positions in rows
    left = budget[active]
    start, width = 0, _FIRST_CHUNK
    while active.size and start < order.size:
        cols = order[start:start + width]
        idx = np.ix_(rows[active], cols)
        gap = upper[idx] - lower[idx]
        steps = np.empty((active.size, cols.size + 1))
        steps[:, 0] = left
        np.negative(gap, out=steps[:, 1:])
        np.cumsum(steps, axis=1, out=steps)  # steps[:, k]: budget left before column k
        before = steps[:, :-1]
        add = np.where(before > 0.0, np.minimum(gap, before), 0.0)
        value[active] += add @ v[cols]
        if p is not None:
            p[np.ix_(active, cols)] += add
        spent = steps[:, -1] <= 0.0
        active, left = active[~spent], steps[~spent, -1]
        start += cols.size
        width *= 2
    return value


def imp_inner_min(
    lower: np.ndarray, upper: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, float]:
    """Minimize p @ v over {lower <= p <= upper, sum(p) = 1}.

    Order-maximization: start from the lower bounds and hand the remaining
    mass to coordinates in ascending order of v (ties broken by index).
    Returns the minimizing distribution and its value.
    """
    lower = np.asarray(lower, dtype=float)[None, :]
    upper = np.asarray(upper, dtype=float)[None, :]
    v = np.asarray(v, dtype=float)
    budget = _check_feasible_rows(lower, upper)
    order = np.argsort(v, kind="stable")
    p = lower.copy()
    value = _order_max(lower, upper, np.zeros(1, dtype=int), v, order, budget, p)
    return p[0], float(value[0])


def imp_value_iteration(model: IntervalModel, part: Partition, T: int) -> np.ndarray:
    """Robust backward iteration; unsafe cells are pinned at 0 at every level.

    One level sorts v once and runs order-maximisation on all safe rows at
    once; its cost is an n x n matrix-vector product plus, per row, the
    columns its budget reaches.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    safe = part.safe_flags
    rows = np.flatnonzero(safe)
    budget = _check_feasible_rows(model.lower, model.upper, rows)
    v = safe.astype(float)
    for _ in range(T):
        order = np.argsort(v, kind="stable")
        new_v = np.zeros_like(v)
        new_v[rows] = _order_max(model.lower, model.upper, rows, v, order, budget)
        v = new_v
    return v


@dataclass(frozen=True)
class SsrParams:
    """Per-step slack delta of the sampling-based relaxation: a scalar or a per-cell vector."""

    delta: float | np.ndarray = 0.0

    def delta_vector(self, n: int) -> np.ndarray:
        d = np.broadcast_to(np.asarray(self.delta, dtype=float), (n,))
        if not np.all((d >= 0) & (d <= 1)):  # NaN fails both comparisons
            raise ValueError("delta must lie in [0, 1]")
        return d


def ssr_backward(probs: np.ndarray, part: Partition, ssr: SsrParams, T: int) -> np.ndarray:
    """Backward iteration on a given empirical cell matrix minus per-cell slack.

    ``probs`` is ``empirical_cell_probs`` of ``part``, so a caller that also
    runs the interval iteration computes the matrix once.  The terminal level
    uses safety of the cell representative; interior levels multiply by the
    whole-cell safety flag, subtract delta, and clamp.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    delta = ssr.delta_vector(part.n_cells)
    safe = part.safe_flags.astype(float)
    v = part.center_safe.astype(float)
    for _ in range(T):
        v = safe * np.clip(probs @ v - delta, 0.0, 1.0)
    return v


def ssr_value_iteration(
    part: Partition, dp_model: DpModel, ssr: SsrParams, T: int
) -> np.ndarray:
    """``ssr_backward`` on the empirical cell matrix of ``dp_model``."""
    return ssr_backward(empirical_cell_probs(part, dp_model), part, ssr, T)


def evaluate_abstraction(v0: np.ndarray, part: Partition, x0: np.ndarray) -> np.ndarray:
    """Certified value of the cell containing each point of a batch (n, d);
    0 outside the box."""
    idx, inbox = part.locate(x0)
    return np.where(inbox, np.asarray(v0, dtype=float)[idx], 0.0)
