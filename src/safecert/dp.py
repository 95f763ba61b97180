"""Backward value iteration through an empirical one-step conditional model.

The safety value functions satisfy V_T = 1_S and

    V_l(x) = 1_S(x) * clamp( E[V_{l+1}(X+) | X = x] - eps * kappa * ||V_{l+1}||, 0, 1 ),

and the conditional expectation is replaced by ridge weights over the
transition samples (x_i, x_i^+) whose start x_i lies in the region's closed
box.  The estimator treats leaving the box as absorbing: V_l is read only on
the safe set, inside the box, so a pair that starts outside it (the trail of
a diverged trajectory, which dependent pairs keep) is not fitted.  Pairs
drawn uniform on the box all start in it.

The recursion only ever needs the values at the sampled next states, so
each backward step applies the transfer operator

    transfer[i, j] = w_j(x_i^+),   transfer = K(x^+, x) (K + M lam I)^{-1},

to the value vector.  The operator is never formed: each application is one
single-vector solve alpha = (K + M lam I)^{-1} v, followed by K(x^+, x) @
alpha at the next states, which are the extra points of the ridge system
(``kernels.fit_system``, ``GramSystem.extra_expansion``); the whole pass
costs T solves instead of an M x M solve with M right-hand sides.  A next
state that is bitwise a training input takes its row from the ridge system
there, so dependent pairs hold the kernel at few next states.

A finite Markov chain is the special case of well-separated states, each the
source of duplicated samples whose next states follow its row: with a small
lam the weights recover the rows, and the recursion matrix-power dynamic
programming at the sampled next states.

With eps = 0 the norm penalty vanishes; otherwise ||V|| is approximated by
the representer norm of the ridge interpolant of the value vector, a finite
surrogate used in place of the intractable RKHS norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .benchmark import OneStepPairs, SafeRegion, is_safe
from .kernels import KAPPA, GramSystem, KernelSpec, fit_system

__all__ = [
    "DpModel",
    "ValueVector",
    "SpectralDecay",
    "SpectralConvergenceError",
    "fit_dp",
    "backward_value",
    "evaluate_dp",
    "spectral_decay",
]


class SpectralConvergenceError(RuntimeError):
    """The eigensolver failed to converge; carries the last estimate."""

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate


@dataclass(frozen=True)
class ValueVector:
    """A value function at the sampled next states; its level is its index
    in the stack ``backward_value`` returns."""

    v: np.ndarray


@dataclass(frozen=True, eq=False)
class DpModel:
    """One-step conditional model over transition samples (``fit_dp``).

    It holds the factored ridge system over the source states with every
    next state as an extra point, and every application of the transfer
    operator is its ``extra_expansion``.  It is frozen and hashed by
    identity, so what is derived from it, such as a partition's cell
    matrix (``abstraction.empirical_cell_probs``), can be kept per model;
    ``dataclasses.replace`` makes a new model.
    """

    gram: GramSystem        # over source states, with extra points x_next
    x_next: np.ndarray      # (M, d) sampled next states
    region: SafeRegion
    ambiguity: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.ambiguity < math.inf:  # NaN fails too
            raise ValueError(f"ambiguity must be finite and nonnegative, not {self.ambiguity}")

    @property
    def safe_mask_next(self) -> np.ndarray:
        """(M,) floats, 1_S at the sampled next states."""
        return is_safe(self.region, self.x_next).astype(float)

    @property
    def n(self) -> int:
        return self.x_next.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """transfer @ v for a value vector v at the sampled next states, or
        for each column of a matrix of them."""
        return self.gram.extra_expansion(v, self.gram.solve(v))


def fit_dp(
    spec: KernelSpec, pairs: OneStepPairs, region: SafeRegion, ambiguity: float = 0.0
) -> DpModel:
    """Factor the ridge system over the source states that lie in the
    region's box, closed, with their next states as its extra points
    (``fit_system``).

    dp's estimator treats leaving the box as absorbing.  The recursion reads
    E[V(X+) | x] only on the safe set, inside the box, so a pair whose start
    has left it, the trail of a diverged trajectory, never enters a value
    and is dropped before the fit.  When every pair starts in the box, as
    pairs drawn uniform on it do, the model holds the caller's arrays.

    ``pairs.x_next`` must hold one next state per row of ``pairs.x``, of the
    region's dimension, every row of both finite, and at least one start in
    the box; otherwise ValueError, before anything is fitted.
    """
    x = np.atleast_2d(np.asarray(pairs.x, dtype=float))
    x_next = np.asarray(pairs.x_next, dtype=float)
    if x_next.shape != x.shape:
        raise ValueError(f"pairs.x_next has shape {x_next.shape}, but pairs.x has "
                         f"{x.shape}: one next state per source state")
    for name, points in (("pairs.x", x), ("pairs.x_next", x_next)):
        bad = np.flatnonzero(~np.all(np.isfinite(points), axis=1))
        if bad.size:
            raise ValueError(f"{name} row {bad[0]} is not finite: {points[bad[0]].tolist()}")
    if x.shape[1] != region.dim:
        raise ValueError(f"pairs of dimension {x.shape[1]}, but a region of dimension {region.dim}")
    inside = region.in_box(x)
    if not inside.any():
        raise ValueError(f"no pair of M = {x.shape[0]} starts inside the region's box "
                         f"[{list(region.low)}, {list(region.high)}]")
    if not inside.all():
        x, x_next = x[inside], x_next[inside]
    return DpModel(gram=fit_system(spec, x, x_next), x_next=x_next, region=region,
                   ambiguity=ambiguity)


def _step(model: DpModel, v: np.ndarray, query: np.ndarray | None = None) -> np.ndarray:
    """clip(E[V(X+) | x] - eps * kappa * ||V||, 0, 1) for a value vector v at
    the sampled next states, with x the next states or the queries (n, d).

    One solve alpha = (K + M lam I)^{-1} v serves the expectation and the
    norm, which is computed only when eps > 0.
    """
    alpha = model.gram.solve(v)
    penalty = 0.0
    if model.ambiguity > 0:
        penalty = model.ambiguity * KAPPA * model.gram.representer_norm(v, alpha)
    at = (model.gram.extra_expansion(v, alpha) if query is None
          else model.gram.expand(query, alpha))
    return np.clip(at - penalty, 0.0, 1.0)


def backward_value(model: DpModel, T: int) -> list[ValueVector]:
    """Run the clamped backward recursion; returns the stack indexed by level.

    stack[l].v holds V_l at the sampled next states, so stack[T].v is the
    safety mask itself and stack[0].v feeds the final query evaluation.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    v = mask = model.safe_mask_next
    levels = [ValueVector(v=v)]
    for _ in range(T):
        v = mask * _step(model, v)
        levels.append(ValueVector(v=v))
    levels.reverse()
    return levels


def evaluate_dp(model: DpModel, stack: list[ValueVector], x0: np.ndarray) -> np.ndarray:
    """V_0 at each query of a batch (n, d); output always lies in [0, 1]."""
    safe0 = is_safe(model.region, x0).astype(float)
    if len(stack) == 1:
        return safe0
    return safe0 * _step(model, stack[1].v, x0)


@dataclass(frozen=True)
class SpectralDecay:
    rho: float
    rho_pow_T: float
    iterations: int


# ARPACK's relative accuracy of the dominant eigenvalue, and its limit on restarts
_ARPACK_TOL = 1e-10
_ARPACK_MAX_RESTARTS = 10_000


def spectral_decay(model: DpModel, T: int) -> SpectralDecay:
    """Spectral radius of diag(1_S(x^+)) @ transfer.

    rho below 1 means the observed value decay is intrinsic to the fitted
    operator rather than an artifact of the horizon; rho**T quantifies it.

    The operator is never formed: ARPACK's implicitly restarted Arnoldi
    method (``scipy.sparse.linalg.eigs``) finds the eigenvalue of largest
    magnitude from operator applications alone, complex and opposite-sign
    dominant pairs included, to a relative accuracy of 1e-10 within 10 000
    restarts; past them, SpectralConvergenceError carries its last
    estimate.  ARPACK cannot run on fewer than 3 states, so there the
    operator is applied to the identity's columns and handed to a dense
    eigensolver.  ``iterations`` is the number of operator applications, 0
    on the dense path.
    """
    # imported here: scipy.sparse.linalg adds ~0.3 s to every import of the
    # package, and only this diagnostic needs it
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

    mask = model.safe_mask_next
    n = model.n
    if n < 3:
        vals = np.linalg.eigvals(mask[:, None] * model.apply(np.eye(n)))
        rho = float(np.max(np.abs(vals)))
        return SpectralDecay(rho=rho, rho_pow_T=rho ** T, iterations=0)

    applications = 0

    def matvec(x: np.ndarray) -> np.ndarray:
        nonlocal applications
        applications += 1
        return mask * model.apply(np.ravel(x))

    v0 = np.random.default_rng(0).standard_normal(n)
    if not np.any(matvec(v0)):
        return SpectralDecay(rho=0.0, rho_pow_T=0.0, iterations=applications)
    op = LinearOperator((n, n), matvec=matvec, dtype=float)
    try:
        vals = eigs(op, k=1, which="LM", v0=v0, tol=_ARPACK_TOL, maxiter=_ARPACK_MAX_RESTARTS,
                    return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        last = float(np.max(np.abs(exc.eigenvalues))) if len(exc.eigenvalues) else np.nan
        raise SpectralConvergenceError(
            f"ARPACK did not converge within {_ARPACK_MAX_RESTARTS} restarts "
            f"(last estimate {last:.12g})",
            last_estimate=last,
        ) from exc
    rho = float(np.abs(vals[0]))
    return SpectralDecay(rho=rho, rho_pow_T=rho ** T, iterations=applications)
