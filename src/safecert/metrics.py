"""Accuracy and calibration-quality metrics for probability estimates.

Besides plain RMSE, two things matter for certified estimates: whether the
errors sit on the unsafe side (excess RMSE over the points where the
estimate exceeds the truth) and how the Brier score decomposes into
reliability, resolution, and uncertainty:

    REL = sum_b (n_b/n) (pbar_b - ybar_b)^2
    RES = sum_b (n_b/n) (ybar_b - ybar)^2
    UNC = ybar (1 - ybar)

computed over B equal-width bins on [0, 1].  On bin-averaged predictions the
Murphy identity  brier_binned = REL - RES + UNC  holds exactly; both the raw
and the bin-averaged Brier scores are reported so the identity can always be
checked on the latter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BrierReport", "rmse", "excess_rmse", "brier_decomposition_mc"]


def rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    p = np.asarray(pred, dtype=float).ravel()
    t = np.asarray(truth, dtype=float).ravel()
    if p.size != t.size or p.size == 0:
        raise ValueError("pred and truth must be nonempty and equally sized")
    return float(np.sqrt(np.mean((p - t) ** 2)))


def excess_rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    """RMSE restricted to overestimates (pred > truth); 0 when there are none."""
    p = np.asarray(pred, dtype=float).ravel()
    t = np.asarray(truth, dtype=float).ravel()
    if p.size != t.size or p.size == 0:
        raise ValueError("pred and truth must be nonempty and equally sized")
    over = p > t
    if not np.any(over):
        return 0.0
    return float(np.sqrt(np.mean((p[over] - t[over]) ** 2)))


@dataclass(frozen=True)
class BrierReport:
    brier: float         # raw mean squared error of the scores
    brier_binned: float  # MSE after replacing scores by their bin means
    rel: float
    res: float
    unc: float
    res_norm: float      # RES / UNC, 0 when UNC is 0


def brier_decomposition_mc(pred: np.ndarray, p_mc: np.ndarray, n_bins: int = 10) -> BrierReport:
    """Decomposition against Monte Carlo frequencies.

    Each grid point stands for its rollouts: a point with frequency p
    contributes outcome mean p and within-point variance p(1-p), which makes
    the result identical to expanding every rollout into a binary outcome.
    Binary outcomes are frequencies of one rollout each, with no within-point
    variance.  Predictions are clamped into [0, 1] for binning; a non-finite
    one has no bin and is refused with a ValueError naming it.
    """
    raw = np.asarray(pred, dtype=float).ravel()
    finite = np.isfinite(raw)
    if not np.all(finite):
        i = int(np.argmin(finite))
        raise ValueError(f"prediction {i} is not finite ({raw[i]})")
    scores = np.clip(raw, 0.0, 1.0)
    p = np.asarray(p_mc, dtype=float).ravel()
    if scores.size != p.size or scores.size == 0:
        raise ValueError("pred and p_mc must be nonempty and equally sized")
    if n_bins < 1:
        raise ValueError("n_bins must be positive")
    within = p * (1.0 - p)
    bins = np.minimum((scores * n_bins).astype(int), n_bins - 1)
    n = scores.size
    ybar = float(np.mean(p))
    rel = res = 0.0
    mean_pred = np.zeros(n_bins)
    for b in range(n_bins):
        mask = bins == b
        nb = int(np.count_nonzero(mask))
        if nb == 0:
            continue
        pbar_b = float(np.mean(scores[mask]))
        ybar_b = float(np.mean(p[mask]))
        mean_pred[b] = pbar_b
        rel += (nb / n) * (pbar_b - ybar_b) ** 2
        res += (nb / n) * (ybar_b - ybar) ** 2
    unc = ybar * (1.0 - ybar)
    return BrierReport(
        brier=float(np.mean((scores - p) ** 2 + within)),
        brier_binned=float(np.mean((mean_pred[bins] - p) ** 2 + within)),
        rel=rel,
        res=res,
        unc=unc,
        res_norm=res / unc if unc > 0 else 0.0,
    )
