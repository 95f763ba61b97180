"""Gaussian kernel machinery shared by every estimator in the package.

All conditional-expectation estimates are sums over kernel ridge weights,

    sum_i w_i(x) v_i = k_M(x)^T alpha,   alpha = [K + M lam I]^{-1} v,

where K is the Gram matrix of the M training inputs and k_M(x) the vector of
kernel evaluations against them; this dual form takes one solve for any number
of query points.  The ridge term is scaled by the sample count M so that
``lam`` keeps a consistent meaning across sample sizes.  Weights may be
negative; nothing here clips them.

Both hot primitives are memory-bound and stream each M x M array once:
``gram_matrix`` finishes every cache-sized block of rows (differences,
squares, scale, exp) before moving on, and a single-vector solve runs two
level-2 triangular solves on the stored factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["KAPPA", "KernelSpec", "GramSystem", "NumericError", "gram_matrix", "fit_weights"]

# sup_x sqrt(k(x, x)) for the Gaussian kernel
KAPPA = 1.0

# entries per row block of gram_matrix: a block and its scratch (1 MB
# together) stay in cache from the first difference to the exp
_BLOCK_ENTRIES = 1 << 16


class NumericError(RuntimeError):
    """Raised when a linear system is too ill-conditioned to factor."""


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel with per-dimension lengthscales and ridge parameter.

    k(x, y) = exp(-0.5 * sum_l ((x_l - y_l) / lengthscales[l])**2)

    Parameters
    ----------
    lengthscales : array-like, shape (d,)
        Per-dimension scale sigma_l > 0, finite; d >= 1.
    lam : float
        Ridge regularizer lambda > 0, finite; the solve uses M * lam on the diagonal.
    """

    lengthscales: tuple[float, ...]
    lam: float

    def __post_init__(self) -> None:
        ls = tuple(float(s) for s in np.atleast_1d(np.asarray(self.lengthscales, dtype=float)))
        object.__setattr__(self, "lengthscales", ls)
        # gram_matrix sums over at least one dimension
        if not ls or not all(0 < s < np.inf for s in ls):
            raise ValueError("lengthscales must be nonempty, finite and positive")
        if not 0 < self.lam < np.inf:
            raise ValueError("lam must be finite and positive")

    @property
    def dim(self) -> int:
        return len(self.lengthscales)

    @classmethod
    def isotropic(cls, scale: float, dim: int, lam: float) -> "KernelSpec":
        return cls(lengthscales=(float(scale),) * dim, lam=lam)

    @classmethod
    def from_variances(cls, variances, lam: float) -> "KernelSpec":
        """Build from squared lengthscales (the form hyperparameter tables use)."""
        v = np.asarray(variances, dtype=float)
        if not np.all(v > 0):
            raise ValueError("variances must be positive")
        return cls(lengthscales=tuple(np.sqrt(v)), lam=lam)


def _scaled(spec: KernelSpec, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != spec.dim:
        raise ValueError(f"expected points of dimension {spec.dim}, got {x.shape[1]}")
    return x / np.asarray(spec.lengthscales)


def gram_matrix(spec: KernelSpec, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix k(x_i, y_j); with ``y=None`` the symmetric Gram of x.

    The (n_x, n_y) result is built in blocks of about _BLOCK_ENTRIES entries,
    whole rows each.  A block sums the squared differences of the scaled
    coordinates, (u_il - v_jl)^2 over l, then scales by -0.5 and takes the
    exp in place while it is still in cache, so the result is streamed once.
    Direct differences do not cancel the way |u|^2 + |v|^2 - 2 u.v does, and
    since fl(a - b) = -fl(b - a) the Gram of x is exactly symmetric with a
    unit diagonal.
    """
    u = _scaled(spec, x)
    # one contiguous row per dimension, broadcast along each block's rows
    vt = np.ascontiguousarray((u if y is None else _scaled(spec, y)).T)
    n, m = u.shape[0], vt.shape[1]
    k = np.empty((n, m))
    rows = max(1, _BLOCK_ENTRIES // max(m, 1))
    scratch = np.empty((min(rows, n), m))
    for r0 in range(0, n, rows):
        block = k[r0:r0 + rows]
        ub = u[r0:r0 + rows]
        np.subtract(ub[:, :1], vt[0], out=block)
        block *= block
        sq = scratch[:block.shape[0]]
        for dim in range(1, vt.shape[0]):
            np.subtract(ub[:, dim:dim + 1], vt[dim], out=sq)
            sq *= sq
            block += sq
        block *= -0.5
        np.exp(block, out=block)
    return k


@dataclass
class GramSystem:
    """Cholesky-factored ridge system K + M lam I over fixed training inputs.

    Only the lower Cholesky factor is held (one M x M array, the buffer the
    Gram matrix was built in); K itself is not kept.  ``solve`` gives the dual
    coefficients (K + M lam I)^{-1} values, ``expand`` their expansion at query
    points, and ``weights_at`` the ridge weights, for callers needing columns.
    """

    spec: KernelSpec
    inputs: np.ndarray          # (M, d)
    _factor: tuple = field(repr=False)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    def solve(self, values: np.ndarray) -> np.ndarray:
        """(K + M lam I)^{-1} values for a vector (M,) or columns (M, k).

        A vector is solved at level 2 (two ``dtrsv`` calls), columns at
        level 3 (``cho_solve``); ``values`` is left unchanged either way.
        """
        return self._solve(np.asarray(values, dtype=float), overwrite=False)

    def _solve(self, b: np.ndarray, overwrite: bool) -> np.ndarray:
        """The one dispatch of every ridge solve on the stored factor.

        A vector (M,) takes two BLAS triangular solves (``dtrsv``, level 2),
        which read the F-ordered factor in place, once per triangle; LAPACK
        ``potrs`` would run them as one-column level-3 trsm calls.  Columns
        (M, k) go to ``cho_solve`` (level 3).  ``overwrite`` lets the solve
        reuse b's buffer.
        """
        if not np.all(np.isfinite(b)):
            raise ValueError("right-hand side must not contain infs or NaNs")
        # imported here: scipy.linalg adds ~0.3 s to every import of the
        # package, and only a process that fits a ridge system solves one
        from scipy.linalg import cho_solve
        from scipy.linalg.blas import dtrsv

        c, lower = self._factor
        # the factor was checked when it was built; checking it again per
        # solve would cost as much as a single-vector solve
        if b.ndim == 1:
            # A = L L^T: L y = b, then L^T x = y; A = U^T U: the transposes first
            first, second = (0, 1) if lower else (1, 0)
            y = dtrsv(c, b, lower=lower, trans=first, overwrite_x=overwrite)
            return dtrsv(c, y, lower=lower, trans=second, overwrite_x=True)
        return cho_solve(self._factor, b, overwrite_b=overwrite, check_finite=False)

    def expand(self, query: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """K(query, inputs) @ alpha at each query of a batch (n, d); with
        alpha = solve(values), the ridge estimate sum_i w_i(x) values_i."""
        return gram_matrix(self.spec, query, self.inputs) @ alpha

    def weights_at(self, query: np.ndarray) -> np.ndarray:
        """Ridge weights w(x), shape (n, M), for a batch of queries (n, d)."""
        kq = gram_matrix(self.spec, query, self.inputs)  # (n, M)
        # kq.T is Fortran-ordered, so the solve runs in place
        return self._solve(kq.T, overwrite=True).T

    def representer_norm(self, values: np.ndarray, alpha: np.ndarray | None = None) -> float:
        """RKHS norm of the ridge interpolant of ``values`` on the inputs.

        norm = sqrt(alpha^T K alpha) with alpha = (K + M lam I)^{-1} values;
        a caller that has already solved for alpha passes it to skip the solve.
        This is a finite surrogate for the norm of the underlying function.
        K alpha is read off the ridge system as values - M lam alpha, so the
        Gram matrix is not needed.
        """
        v = np.asarray(values, dtype=float)
        if alpha is None:
            alpha = self.solve(v)
        sq = float(alpha @ (v - (self.size * self.spec.lam) * alpha))
        return float(np.sqrt(max(sq, 0.0)))


def _ridge_matrix(spec: KernelSpec, x: np.ndarray) -> np.ndarray:
    """K + M lam I, with the ridge added in place on the Gram buffer."""
    a = gram_matrix(spec, x)
    a[np.diag_indices(x.shape[0])] += x.shape[0] * spec.lam
    return a


def fit_weights(spec: KernelSpec, train_inputs: np.ndarray) -> GramSystem:
    """Build and factor the ridge system K + M lam I over ``train_inputs``.

    The Gram matrix is built, regularized and factored in one M x M buffer.
    """
    x = np.atleast_2d(np.asarray(train_inputs, dtype=float))
    m = x.shape[0]
    if m == 0:
        raise ValueError("training set is empty")
    # imported here: scipy.linalg adds ~0.3 s to every import of the
    # package, and only the stages that fit a ridge system factor one
    from scipy.linalg import cho_factor

    a = _ridge_matrix(spec, x)
    try:
        # a is symmetric, so its transpose is the same matrix in Fortran
        # order, which LAPACK factors in place
        factor = cho_factor(a.T, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        # the failed factorization overwrote a; rebuild it for the estimate
        eigs = np.linalg.eigvalsh(_ridge_matrix(spec, x))
        cond = eigs[-1] / eigs[0] if eigs[0] != 0 else np.inf
        raise NumericError(
            f"ridge system not positive definite (condition estimate {cond:.3e}); "
            "increase lam or deduplicate inputs"
        ) from exc
    return GramSystem(spec=spec, inputs=x, _factor=factor)
