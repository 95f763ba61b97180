"""Histogram-binning calibration with finite-sample certified lower bounds.

Raw model scores are only rankings; this module turns them into guaranteed
probabilities.  Calibration scores are split into quantile bins, each bin
gets the empirical safety rate of its members, and a Hoeffding width

    eps_b = sqrt( ln(B / delta_conf) / (2 n_b) )

is subtracted (Bonferroni over the B bins), clipped at zero:

    p_b = max(0, rate_b - eps_b).

For a fresh draw from the same distribution, P(true probability >= p_bin) is
at least 1 - delta_conf marginally over the draw and the calibration set.
The guarantee is distribution-free; it needs nothing from the model that
produced the scores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = ["BinnedCalibrator", "calibrate", "certified_lower_bound"]

_DEGENERATE_SPAN = 1e-12


def _bin_index(edges: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Bin of each score under the B+1 ``edges``: bin b holds
    edges[b] <= s < edges[b+1], and scores outside map to the end bins.

    Searching the B-1 inner edges gives indices in [0, B-1], so no clip is
    needed."""
    return np.searchsorted(edges[1:-1], scores, side="right")


@dataclass
class BinnedCalibrator:
    """Quantile-binned calibration table with per-bin certified bounds."""

    edges: np.ndarray       # (B+1,) strictly increasing working edges
    counts: np.ndarray      # (B,) calibration points per bin
    rates: np.ndarray       # (B,) empirical safety rate per bin
    widths: np.ndarray      # (B,) Hoeffding half-widths
    certified: np.ndarray   # (B,) max(0, rate - width)
    delta_conf: float
    n_cal: int
    requested_bins: int
    degenerate: bool = False

    @property
    def n_bins(self) -> int:
        return len(self.counts)

    def bin_of(self, scores: np.ndarray) -> np.ndarray:
        """Bin index for each score; outside scores map to the end bins.

        A non-finite score is refused with a ValueError naming it: the search
        would put NaN past every edge, into the top bin."""
        s = np.asarray(scores, dtype=float)
        bad = np.flatnonzero(~np.isfinite(s))
        if bad.size:
            raise ValueError(f"score {bad[0]} is not finite ({s.flat[bad[0]]})")
        return _bin_index(self.edges, s)

    def to_json(self) -> str:
        payload = {
            "edges": self.edges.tolist(),
            "counts": self.counts.tolist(),
            "rates": self.rates.tolist(),
            "widths": self.widths.tolist(),
            "certified": self.certified.tolist(),
            "delta_conf": self.delta_conf,
            "n_cal": self.n_cal,
            "requested_bins": self.requested_bins,
            "degenerate": self.degenerate,
        }
        return json.dumps(payload, sort_keys=True)


def _merge_empty_bins(edges: list[float], counts: np.ndarray) -> list[float]:
    """Merge each empty bin toward its nearest nonempty neighbor, one edge at a time."""
    edges = list(edges)
    while True:
        nonempty = np.flatnonzero(counts)
        empty = np.flatnonzero(counts == 0)
        if empty.size == 0 or nonempty.size == 0:
            return edges
        b = int(empty[0])
        dist = np.abs(nonempty - b)
        target = int(nonempty[np.argmin(dist)])
        if target < b:
            del edges[b]
            counts = np.concatenate([counts[: b - 1], [counts[b - 1] + counts[b]], counts[b + 1 :]])
        else:
            del edges[b + 1]
            counts = np.concatenate([counts[:b], [counts[b] + counts[b + 1]], counts[b + 2 :]])


def calibrate(
    scores: np.ndarray,
    outcomes: np.ndarray,
    n_bins: int = 10,
    delta_conf: float = 0.1,
) -> BinnedCalibrator:
    """Fit the binned calibrator on held-out (score, binary outcome) pairs.

    The bin edges are the scores' n_bins + 1 quantiles, the first and last
    the scores' exact min and max; scores with a span at or below 1e-12
    collapse to a single bin.  Tied quantiles are deduplicated and any
    remaining empty bin is merged into its nearest nonempty neighbor; widths
    use the final bin count.  Scores must be finite and outcomes 0 or 1; a
    ValueError names the first entry that is not.
    """
    s = np.asarray(scores, dtype=float).ravel()
    y = np.asarray(outcomes).astype(float).ravel()
    if s.size == 0:
        raise ValueError("calibration set is empty")
    if s.size != y.size:
        raise ValueError("scores and outcomes must have equal length")
    finite = np.isfinite(s)
    if not np.all(finite):
        i = int(np.argmin(finite))
        raise ValueError(f"calibration score {i} is not finite ({s[i]})")
    binary = (y == 0.0) | (y == 1.0)
    if not np.all(binary):
        i = int(np.argmin(binary))
        raise ValueError(f"calibration outcome {i} is not 0 or 1 ({y[i]})")
    if not (0.0 < delta_conf < 1.0):
        raise ValueError("delta_conf must lie in (0, 1)")
    if not (1 <= n_bins <= s.size):
        raise ValueError("n_bins must lie in [1, n_cal]")

    span = float(np.max(s) - np.min(s))
    degenerate = span <= _DEGENERATE_SPAN
    if degenerate:
        edges = [float(np.min(s)), float(np.max(s))]
    else:
        qs = np.quantile(s, np.linspace(0.0, 1.0, n_bins + 1))
        edges = [float(qs[0])]
        for e in qs[1:]:
            if e > edges[-1]:
                edges.append(float(e))

    bins = _bin_index(np.asarray(edges), s)
    counts = np.bincount(bins, minlength=len(edges) - 1)
    if np.any(counts == 0):
        edges = _merge_empty_bins(edges, counts)
        bins = _bin_index(np.asarray(edges), s)
        counts = np.bincount(bins, minlength=len(edges) - 1)

    b_eff = len(counts)
    # the sum of 0/1 outcomes is exact, so this is each bin's np.mean to the bit
    rates = np.bincount(bins, weights=y) / counts
    widths = np.sqrt(np.log(b_eff / delta_conf) / (2.0 * counts))
    certified = np.maximum(0.0, rates - widths)
    return BinnedCalibrator(
        edges=np.asarray(edges),
        counts=counts,
        rates=rates,
        widths=widths,
        certified=certified,
        delta_conf=delta_conf,
        n_cal=s.size,
        requested_bins=n_bins,
        degenerate=degenerate,
    )


def certified_lower_bound(cal: BinnedCalibrator, scores: np.ndarray) -> np.ndarray:
    """Certified bound for each score of a batch (n,): the bound of the score's bin.

    A non-finite score is refused with a ValueError naming its index."""
    return cal.certified[cal.bin_of(scores)]
