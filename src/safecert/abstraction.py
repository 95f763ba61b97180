"""Finite-state abstractions of the one-step conditional model.

A uniform partition of the bounding box turns the kernel model into a finite
transition matrix: row i holds the ridge weights at the cell representative
(the center), aggregated by the cell membership of the sampled next states,
then clipped to [0, 1] and renormalized to a probability row.  Two certified
value iterations run on top of it:

* interval iteration: per-row rectangular ambiguity sets [lower, upper]
  around the empirical rows; each backward step takes the worst-case
  (minimizing) distribution in the set, found by order-maximization.
* sampling-based relaxation: the empirical rows are used directly and one
  slack delta is subtracted each step before clamping.

Cells are flagged safe only when the whole closed cell avoids every obstacle
box, which is exact for axis-aligned geometry and conservative for cells
straddling a boundary.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np

from .benchmark import SafeRegion, is_safe
from .dp import DpModel
from .kernels import query_blocks, row_blocks

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


@dataclass(frozen=True, eq=False)
class Partition:
    """Uniform axis-aligned partition of the region bounding box.

    It holds the cell matrix ``empirical_cell_probs`` built from each fitted
    model that is still alive, keyed weakly by the model: the matrix is
    built once per live (partition, model), returned read-only, and dies
    with either object.  Its dead-row warning fires at the build only.
    """

    region: SafeRegion
    counts: tuple[int, ...]
    edges: list[np.ndarray]
    centers: np.ndarray      # (n, d)
    safe_flags: np.ndarray   # (n,) bool: whole cell inside the safe set
    center_safe: np.ndarray  # (n,) bool: representative inside the safe set
    _cells: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False)

    @property
    def n_cells(self) -> int:
        return self.centers.shape[0]

    def locate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell index and in-box flag for points (d,) or (n, d).

        Out-of-box points get a clamped index and in-box False; callers must
        honor the flag.
        """
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        inbox = self.region.in_box(pts)
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
    return Partition(region=region, counts=counts, edges=edges, centers=centers,
                     safe_flags=safe, center_safe=is_safe(region, centers))


def empirical_cell_probs(part: Partition, dp_model: DpModel) -> np.ndarray:
    """Empirical cell-to-cell transition matrix from the kernel model.

    Row i aggregates the ridge weights at center i by the cell membership of
    the sampled next states (samples leaving the box carry no membership),
    clips to [0, 1], and renormalizes to sum 1.  Rows with no mass fall back
    to uniform with a warning.

    The matrix is built once per live (partition, model): the partition
    holds it while both live, and a later call with the same two objects
    returns that very array, with no solve and no second dead-row warning.
    It is returned read-only, since every caller shares it.

    The weights are solved for one ``query_blocks`` block of centers at a
    time and binned row by row, so beside the (n_cells, n_cells) result one
    block of weights is held, never the (n_cells, M) matrix.  At one BLAS
    thread the blocks give the bytes of one call over every center: on a
    dense model each weight column is its own triangular solve, and on a
    low-rank model the products with the pivoted rows run in fixed
    granules of columns (``GramSystem.weights_at``).
    """
    probs = part._cells.get(dp_model)
    if probs is not None:
        return probs
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
    probs.flags.writeable = False
    part._cells[dp_model] = probs
    return probs


_FEAS_TOL = 1e-9
_ROW_BLOCK = 256    # rows per block of a feasibility check, of lower @ v and of order-max
_FIRST_CHUNK = 32   # columns in the first chunk of order-maximisation


@dataclass(frozen=True, eq=False)
class IntervalModel:
    """Rectangular ambiguity set around an empirical cell matrix: the
    row-stochastic matrices between lower = clip(phat - radius, 0, 1) and
    upper = clip(phat + radius, 0, 1), entrywise.

    Build it with ``from_radii``.  The model holds ``phat`` by reference: it
    never writes it, and the caller must not change it afterwards, since the
    row budgets were computed from it.  Beside the matrix the model holds the
    (n,) budgets alone; every bound is computed where it is read, one block
    of rows or one chunk of order-maximisation at a time, never as an n x n
    array.
    """

    phat: np.ndarray    # (n, n) empirical cell matrix, finite
    radius: float       # half-width of every interval, >= 0
    budget: np.ndarray  # (n,) 1 - sum(lower) per row, floored at 0

    @classmethod
    def from_radii(cls, phat: np.ndarray, radius: float) -> "IntervalModel":
        """Symmetric intervals phat +- radius, clipped to [0, 1] entrywise.

        ``phat`` must be a square matrix of finite entries and ``radius`` one
        nonnegative number.  Every row's interval set is checked nonempty
        here, once, in blocks of _ROW_BLOCK rows; the first bad entry or row
        is named.
        """
        phat = np.asarray(phat, dtype=float)
        n = phat.shape[0] if phat.ndim else 0
        if phat.shape != (n, n):
            raise ValueError(f"the empirical matrix must be square, not of shape {phat.shape}")
        if np.ndim(radius):
            raise ValueError(f"radius must be one number, not an array of shape {np.shape(radius)}")
        radius = float(radius)
        if not radius >= 0:  # NaN fails too: its bounds would pass every feasibility test
            raise ValueError("radius must be nonnegative and not NaN")
        model = cls(phat=phat, radius=radius, budget=np.empty(n))
        for rows in row_blocks(n, _ROW_BLOCK):
            # the clip would turn an infinite entry into a finite bound
            finite = np.isfinite(phat[rows])
            if not np.all(finite):
                k, j = np.argwhere(~finite)[0]
                raise ValueError(
                    f"phat[{rows.start + k},{j}] = {phat[rows.start + k, j]} is not finite")
            model.budget[rows] = _check_feasible_rows(*model.bounds(rows), rows.start)
        return model

    def bounds(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) at ``idx``, an index into the (n, n) matrix such as
        a row slice, a row array or an ``np.ix_`` block; new arrays."""
        ph = self.phat[idx]
        lower, upper = ph - self.radius, ph + self.radius
        np.clip(lower, 0.0, 1.0, out=lower)
        np.clip(upper, 0.0, 1.0, out=upper)
        return lower, upper

    def lower_dot(self, v: np.ndarray) -> np.ndarray:
        """lower @ v over every row, one contiguous block of _ROW_BLOCK rows
        of lower bounds at a time.

        The blocks are ``row_blocks``, so at one BLAS thread each row's sum
        has the bytes of one product over the whole lower matrix; a product
        over a gathered subset of rows would not.
        """
        out = np.empty(self.phat.shape[0])
        for rows in row_blocks(out.size, _ROW_BLOCK):
            lower = self.phat[rows] - self.radius
            np.clip(lower, 0.0, 1.0, out=lower)
            np.matmul(lower, v, out=out[rows])
        return out


def _check_feasible_rows(lower: np.ndarray, upper: np.ndarray, first: int) -> np.ndarray:
    """Check that the interval set of each row of a block of bounds is
    nonempty; ``first`` is the index of the block's first row, for messages.

    Bounds must be finite: a NaN passes every comparison below.  Returns each
    row's budget 1 - sum(lower), floored at 0: the mass order-maximisation
    hands out above the lower bounds.
    """
    for name, bound in (("lower", lower), ("upper", upper)):
        finite = np.isfinite(bound)
        if not np.all(finite):
            k, j = np.argwhere(~finite)[0]
            raise ValueError(f"{name}[{first + k},{j}] = {bound[k, j]} is not finite")
    bad = lower > upper + _FEAS_TOL
    if np.any(bad):
        k, j = np.argwhere(bad)[0]
        raise ValueError(
            f"infeasible interval: lower[{first + k},{j}] > upper[{first + k},{j}]"
        )
    lo_sum = lower.sum(axis=1)
    up_sum = upper.sum(axis=1)
    if np.any(lo_sum > 1.0 + _FEAS_TOL):
        k = int(np.argmax(lo_sum))
        raise ValueError(
            f"infeasible row {first + k}: sum of lower bounds {lo_sum[k]:.6g} > 1"
        )
    if np.any(up_sum < 1.0 - _FEAS_TOL):
        k = int(np.argmin(up_sum))
        raise ValueError(
            f"infeasible row {first + k}: sum of upper bounds {up_sum[k]:.6g} < 1"
        )
    return np.maximum(1.0 - lo_sum, 0.0)


def _order_max(
    bounds,
    rows: np.ndarray,
    v: np.ndarray,
    order: np.ndarray,
    budget: np.ndarray,
    value: np.ndarray,
    p: np.ndarray | None = None,
) -> np.ndarray:
    """min p @ v over {lower[r] <= p <= upper[r], sum(p) = 1} for each r in rows.

    ``bounds(idx)`` gives (lower, upper) at an ``np.ix_`` block of the bound
    matrices, as new arrays; ``value`` holds lower[rows] @ v and is returned
    raised to the minimum.

    Order-maximisation: every row starts from its lower bounds and hands its
    budget (from _check_feasible_rows) to the columns in ``order``, ascending
    v, each up to its upper bound, until the budget is spent.  All rows share
    the order, so the fill runs on all rows at once, over column chunks of
    doubling width; a row leaves once its budget is spent, so a row costs
    the columns its budget reaches, not n.  Each chunk runs over
    ``row_blocks`` of the rows still active, so it holds a few (_ROW_BLOCK,
    width) temporaries, and at one BLAS thread ``add @ v[cols]`` gives each
    row the bytes of one product over every active row.  The budget left
    before each column is a running sum of the negated gaps, the same
    subtractions in the same order as a column-by-column loop.  When ``p``
    (len(rows), n) holds lower[rows], the minimising distributions are
    written into it.
    """
    active = np.flatnonzero(budget > 0.0)   # positions in rows
    left = budget[active]
    start, width = 0, _FIRST_CHUNK
    while active.size and start < order.size:
        cols = order[start:start + width]
        # one row block of the chunk at a time, so its temporaries stay
        # (_ROW_BLOCK, width) however many rows keep budget
        for block in row_blocks(active.size, _ROW_BLOCK):
            at = active[block]
            lower, upper = bounds(np.ix_(rows[at], cols))
            gap = upper - lower
            del lower, upper
            steps = np.empty((at.size, cols.size + 1))
            steps[:, 0] = left[block]
            np.negative(gap, out=steps[:, 1:])
            np.cumsum(steps, axis=1, out=steps)  # steps[:, k]: budget left before column k
            before = steps[:, :-1]
            add = np.where(before > 0.0, np.minimum(gap, before), 0.0)
            value[at] += add @ v[cols]
            if p is not None:
                p[np.ix_(at, cols)] += add
            left[block] = steps[:, -1]
        spent = left <= 0.0
        active, left = active[~spent], left[~spent]
        start += cols.size
        width *= 2
    return value


def imp_inner_min(
    lower: np.ndarray, upper: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, float]:
    """Minimize p @ v over {lower <= p <= upper, sum(p) = 1}.

    Order-maximization: start from the lower bounds and hand the remaining
    mass to coordinates in ascending order of v (ties broken by index).
    ``lower``, ``upper`` and ``v`` are vectors of one length.  Returns the
    minimizing distribution and its value.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (lower.ndim == upper.ndim == v.ndim == 1 and lower.size == upper.size == v.size):
        raise ValueError(
            "lower, upper and v must be vectors of one length, not of shapes "
            f"{lower.shape}, {upper.shape} and {v.shape}"
        )
    lower, upper = lower[None, :], upper[None, :]
    budget = _check_feasible_rows(lower, upper, 0)
    order = np.argsort(v, kind="stable")
    p = lower.copy()
    value = _order_max(lambda idx: (lower[idx], upper[idx]), np.zeros(1, dtype=int),
                       v, order, budget, lower @ v, p)
    return p[0], float(value[0])


def imp_value_iteration(model: IntervalModel, part: Partition, T: int) -> np.ndarray:
    """Robust backward iteration; unsafe cells are pinned at 0 at every level.

    The row budgets come from the model, checked when it was built.  One
    level sorts v once, takes lower @ v over contiguous row blocks and runs
    order-maximisation on all safe rows at once; its cost is an n x n
    matrix-vector product plus, per row, the columns its budget reaches.
    Beside the model's matrix it holds one block of lower bounds or one
    chunk of order-maximisation at a time.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    n = part.n_cells
    if model.phat.shape != (n, n):
        raise ValueError(
            f"the interval model has {model.phat.shape[0]} cells, the partition {n}")
    safe = part.safe_flags
    rows = np.flatnonzero(safe)
    budget = model.budget[rows]
    v = safe.astype(float)
    for _ in range(T):
        order = np.argsort(v, kind="stable")
        new_v = np.zeros_like(v)
        new_v[rows] = _order_max(model.bounds, rows, v, order, budget,
                                 model.lower_dot(v)[rows])
        v = new_v
    return v


@dataclass(frozen=True)
class SsrParams:
    """Per-step slack delta of the sampling-based relaxation, one number in [0, 1]."""

    delta: float = 0.0

    def __post_init__(self) -> None:
        if np.ndim(self.delta):
            raise ValueError(f"delta must be one number, not an array of shape {np.shape(self.delta)}")
        if not 0.0 <= self.delta <= 1.0:  # NaN fails both comparisons
            raise ValueError(f"delta must lie in [0, 1], not {self.delta}")


def ssr_backward(probs: np.ndarray, part: Partition, ssr: SsrParams, T: int) -> np.ndarray:
    """Backward iteration on a given empirical cell matrix minus the slack.

    ``probs`` is ``empirical_cell_probs`` of ``part``, built once per live
    (partition, model) and read-only; this iteration only reads it, so a
    caller that also runs the interval iteration hands the same matrix to
    both.  The terminal level uses safety of the cell representative;
    interior levels multiply by the whole-cell safety flag, subtract delta,
    and clamp.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    n = part.n_cells
    if np.shape(probs) != (n, n):
        raise ValueError(f"probs of shape {np.shape(probs)}, not ({n}, {n}), for this partition")
    safe = part.safe_flags.astype(float)
    v = part.center_safe.astype(float)
    for _ in range(T):
        v = safe * np.clip(probs @ v - ssr.delta, 0.0, 1.0)
    return v


def ssr_value_iteration(
    part: Partition, dp_model: DpModel, ssr: SsrParams, T: int
) -> np.ndarray:
    """``ssr_backward`` on the empirical cell matrix of ``dp_model``.

    The matrix is ``empirical_cell_probs(part, dp_model)``, so after an
    earlier call on the same partition and model, such as the one that fed
    the interval iteration, no solve is made and no dead-row warning
    repeats.
    """
    return ssr_backward(empirical_cell_probs(part, dp_model), part, ssr, T)


def evaluate_abstraction(v0: np.ndarray, part: Partition, x0: np.ndarray) -> np.ndarray:
    """Certified value of the cell containing each point of a batch (n, d);
    0 outside the box."""
    idx, inbox = part.locate(x0)
    return np.where(inbox, np.asarray(v0, dtype=float)[idx], 0.0)
