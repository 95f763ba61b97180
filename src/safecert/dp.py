"""Backward value iteration through an empirical one-step conditional model.

The safety value functions satisfy V_T = 1_S and

    V_l(x) = 1_S(x) * clamp( E[V_{l+1}(X+) | X = x] - eps * kappa * ||V_{l+1}||, 0, 1 ),

and the conditional expectation is replaced by ridge weights over the
transition samples (x_i, x_i^+).  The recursion only ever needs the values at
the sampled next states, so each backward step applies the transfer operator

    transfer[i, j] = w_j(x_i^+),   transfer = K(x^+, x) (K + M lam I)^{-1},

to the value vector.  The operator is never formed: each application is one
single-vector solve alpha = (K + M lam I)^{-1} v, followed by K(x^+, x) @
alpha at the next states, which are the extra points of the ridge system
(``kernels.fit_system``, ``GramSystem.extra_expansion``); the whole pass
costs T solves instead of an M x M solve with M right-hand sides.  A next
state that is bitwise a training input takes its row from the ridge system
there, so dependent pairs hold the kernel at few next states.

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
    """Value function V_level at the sampled next states."""

    level: int
    v: np.ndarray


@dataclass
class DpModel:
    """One-step conditional model over transition samples.

    A kernel-backed model (``fit_dp``) holds the factored ridge system over
    the source states with every next state as an extra point, and every
    application of the transfer operator is its ``extra_expansion``.  A
    chain model (``from_transfer``) holds an explicit transfer matrix
    instead.
    """

    safe_mask_next: np.ndarray    # (M,) floats, 1_S at the sampled next states
    region: SafeRegion | None
    ambiguity: float = 0.0
    # over source states, with extra points x_next; None for exact chains
    gram: GramSystem | None = None
    x_next: np.ndarray | None = None
    explicit: np.ndarray | None = None  # (M, M) transfer matrix; chains only

    def __post_init__(self) -> None:
        if not 0.0 <= self.ambiguity < math.inf:  # NaN fails too
            raise ValueError(f"ambiguity must be finite and nonnegative, not {self.ambiguity}")

    @property
    def n(self) -> int:
        return self.safe_mask_next.shape[0]

    @classmethod
    def from_transfer(cls, transfer: np.ndarray, safe_mask: np.ndarray) -> "DpModel":
        """Wrap an explicitly known transition/transfer matrix (exact chains, tests).

        A chain takes no norm penalty, which needs a kernel-backed model."""
        transfer = np.asarray(transfer, dtype=float)
        safe_mask = np.asarray(safe_mask, dtype=float)
        if transfer.shape[0] != transfer.shape[1] or transfer.shape[0] != safe_mask.shape[0]:
            raise ValueError("transfer must be square and match the safety mask")
        return cls(safe_mask_next=safe_mask, region=None, explicit=transfer)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """transfer @ v for a value vector v at the sampled next states."""
        if self.explicit is not None:
            return self.explicit @ v
        return self.gram.extra_expansion(v, self.gram.solve(v))

    @property
    def transfer(self) -> np.ndarray:
        """The transfer matrix, transfer[i, j] = w_j(x_i^+).

        A kernel-backed model materialises it as the extra expansion of
        the identity, K(x^+, x) (K + M lam I)^{-1}: an M x M solve with M
        right-hand sides, O(M^3) work and a few M x M arrays.  Its rows
        are those ``apply`` uses.  It is meant for diagnostics and tests;
        nothing in the fit or the recursion reads it.
        """
        if self.explicit is not None:
            return self.explicit
        eye = np.eye(self.n)
        return self.gram.extra_expansion(eye, self.gram.solve(eye))


def _penalised_step(model: DpModel, v: np.ndarray) -> tuple[np.ndarray, float]:
    """(alpha, penalty) of a value vector v at the sampled next states.

    alpha = (K + M lam I)^{-1} v are the dual coefficients of the step's
    conditional expectation, and penalty = eps * kappa * ||V|| the ambiguity
    term, with ||V|| the representer norm of the same solve.
    """
    if model.gram is None:
        raise ValueError("norm penalty needs a kernel-backed model")
    alpha = model.gram.solve(v)
    return alpha, model.ambiguity * KAPPA * model.gram.representer_norm(v, alpha)


def fit_dp(
    spec: KernelSpec, pairs: OneStepPairs, region: SafeRegion, ambiguity: float = 0.0
) -> DpModel:
    """Factor the ridge system over source states, with the next states as
    its extra points (``fit_system``).

    ``pairs.x_next`` must hold one finite row per row of ``pairs.x``, of the
    same dimension; otherwise ValueError, before anything is fitted.
    """
    x = np.atleast_2d(np.asarray(pairs.x, dtype=float))
    x_next = np.asarray(pairs.x_next, dtype=float)
    if x_next.shape != x.shape:
        raise ValueError(f"pairs.x_next has shape {x_next.shape}, but pairs.x has "
                         f"{x.shape}: one next state per source state")
    bad = np.flatnonzero(~np.all(np.isfinite(x_next), axis=1))
    if bad.size:
        raise ValueError(f"pairs.x_next row {bad[0]} is not finite: {x_next[bad[0]].tolist()}")
    return DpModel(
        safe_mask_next=is_safe(region, x_next).astype(float),
        region=region,
        ambiguity=ambiguity,
        gram=fit_system(spec, x, x_next),
        x_next=x_next,
    )


def backward_value(model: DpModel, T: int) -> list[ValueVector]:
    """Run the clamped backward recursion; returns the stack indexed by level.

    stack[l].v holds V_l at the sampled next states, so stack[T].v is the
    safety mask itself and stack[0].v feeds the final query evaluation.
    """
    if T < 0:
        raise ValueError("T must be nonnegative")
    v = model.safe_mask_next.astype(float).copy()
    levels = [ValueVector(level=T, v=v)]
    for level in range(T - 1, -1, -1):
        if model.ambiguity > 0:
            alpha, penalty = _penalised_step(model, v)
            tv = model.gram.extra_expansion(v, alpha)
        else:
            tv, penalty = model.apply(v), 0.0
        v = model.safe_mask_next * np.clip(tv - penalty, 0.0, 1.0)
        levels.append(ValueVector(level=level, v=v))
    levels.reverse()
    return levels


def evaluate_dp(model: DpModel, stack: list[ValueVector], x0: np.ndarray) -> np.ndarray:
    """V_0 at each query of a batch (n, d); output always lies in [0, 1]."""
    if model.gram is None or model.region is None:
        raise ValueError("query evaluation needs a kernel-backed model")
    safe0 = is_safe(model.region, x0).astype(float)
    if stack[-1].level == 0:
        return safe0
    alpha, penalty = _penalised_step(model, stack[1].v)
    return safe0 * np.clip(model.gram.expand(x0, alpha) - penalty, 0.0, 1.0)


@dataclass(frozen=True)
class SpectralDecay:
    rho: float
    rho_pow_T: float
    iterations: int


# ARPACK's relative accuracy of the dominant eigenvalue, and its limit on restarts
_ARPACK_TOL = 1e-10
_ARPACK_MAX_RESTARTS = 10_000


def spectral_decay(model: DpModel, T: int) -> SpectralDecay:
    """Spectral radius of diag(safe_mask) @ transfer.

    rho below 1 means the observed value decay is intrinsic to the fitted
    operator rather than an artifact of the horizon; rho**T quantifies it.

    A kernel-backed operator is never formed: ARPACK's implicitly restarted
    Arnoldi method (``scipy.sparse.linalg.eigs``) finds the eigenvalue of
    largest magnitude from operator applications alone, complex and
    opposite-sign dominant pairs included, to a relative accuracy of 1e-10
    within 10 000 restarts; past them, SpectralConvergenceError carries its
    last estimate.  Explicit matrices, and operators with fewer than 3
    states, where ARPACK cannot run, go to a dense eigensolver.
    ``iterations`` is the number of operator applications, 0 on the dense
    path.
    """
    # imported here: scipy.sparse.linalg adds ~0.3 s to every import of the
    # package, and only this diagnostic needs it
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

    mask = model.safe_mask_next
    n = model.n
    if model.explicit is not None or n < 3:
        vals = np.linalg.eigvals(mask[:, None] * model.transfer)
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
