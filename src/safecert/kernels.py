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

A batch of queries is never held as one (n, M) kernel or weight matrix:
``query_blocks`` cuts it into row blocks of about QUERY_BLOCK_BYTES of kernel
values (512 rows at least, 8 * 512 * M bytes), and ``kernel_expansion`` (so
``GramSystem.expand``) and ``abstraction.empirical_cell_probs`` finish each
block before building the next.  Beside the fitted system a query therefore
holds one block, whatever the number of queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "KAPPA",
    "QUERY_BLOCK_BYTES",
    "KernelSpec",
    "GramSystem",
    "NumericError",
    "gram_matrix",
    "query_blocks",
    "kernel_expansion",
    "fit_weights",
]

# sup_x sqrt(k(x, x)) for the Gaussian kernel
KAPPA = 1.0

# entries per row block of gram_matrix: a block and its scratch (1 MB
# together) stay in cache from the first difference to the exp
_BLOCK_ENTRIES = 1 << 16

# bytes of kernel values per block of a query batch (see query_blocks)
QUERY_BLOCK_BYTES = 4 << 20

# but at least this many rows: a block of ridge weights is one triangular
# solve over the whole M x M factor, and narrow blocks solve slower (one
# BLAS thread of a 2-core Xeon: 1600 queries at M = 2000 take 0.37 s in
# 512-row blocks or one call, 0.46 s in 256-row blocks; 400 at M = 15000
# take 4.0 s in one call, 7.1 s in 32-row blocks)
_MIN_ROWS = 512

# query rows per block are a multiple of this: a one-thread OpenBLAS dgemv
# takes rows in groups of four, so a block boundary on a multiple of 16
# groups every row as a product over the whole batch would
_ROW_GRANULE = 16


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


def query_blocks(n: int, m: int) -> list[slice]:
    """Row slices covering a batch of ``n`` queries against ``m`` points, in
    blocks of about QUERY_BLOCK_BYTES of kernel values each, or _MIN_ROWS
    rows where that is more (m above 1024).

    Every block but the last is a multiple of _ROW_GRANULE rows, so a product
    over each block gives the bytes of one product over the whole batch at
    one BLAS thread.  A last block of one row joins the block before: numpy
    sends a (1, m) @ (m,) product through its dot path, whose sums differ in
    the last bits from the matrix-vector kernel's.
    """
    rows = max(_MIN_ROWS, QUERY_BLOCK_BYTES // (8 * max(m, 1)) // _ROW_GRANULE * _ROW_GRANULE)
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def kernel_expansion(spec: KernelSpec, query: np.ndarray, points: np.ndarray,
                     alpha: np.ndarray) -> np.ndarray:
    """sum_j alpha_j k(x, points_j) at each query x of a batch (n, d).

    ``alpha`` is (m,) or (m, k) for m points; the result is (n,) or (n, k).
    K(query, points) is built and applied one block of ``query_blocks`` at a
    time, so no (n, m) array is held.
    """
    q = np.atleast_2d(np.asarray(query, dtype=float))
    alpha = np.asarray(alpha, dtype=float)
    out = np.empty((q.shape[0],) + alpha.shape[1:])
    for rows in query_blocks(q.shape[0], points.shape[0]):
        np.matmul(gram_matrix(spec, q[rows], points), alpha, out=out[rows])
    return out


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
        alpha = solve(values), the ridge estimate sum_i w_i(x) values_i.
        The kernel rows are built one query block at a time."""
        return kernel_expansion(self.spec, query, self.inputs, alpha)

    def weights_at(self, query: np.ndarray) -> np.ndarray:
        """Ridge weights w(x), shape (n, M), for a batch of queries (n, d).

        The result is the whole (n, M) matrix; a caller with many queries
        passes them one ``query_blocks`` block at a time.
        """
        kq = gram_matrix(self.spec, query, self.inputs)  # (n, M)
        # kq.T is Fortran-ordered, so the solve runs in place
        return self._solve(kq.T, overwrite=True).T

    def representer_norm(self, values: np.ndarray, alpha: np.ndarray | None = None) -> float:
        """RKHS norm of the ridge interpolant of ``values`` on the inputs.

        norm = sqrt(alpha^T K alpha) with alpha = (K + M lam I)^{-1} values;
        a caller that has already solved for alpha passes it to skip the solve.
        This is a finite surrogate for the norm of the underlying function.
        K alpha is read off the ridge system (``fitted``), so the Gram matrix
        is not needed.
        """
        v = np.asarray(values, dtype=float)
        if alpha is None:
            alpha = self.solve(v)
        sq = float(alpha @ self.fitted(v, alpha))
        return float(np.sqrt(max(sq, 0.0)))

    def fitted(self, values: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """K alpha, the ridge fit at the inputs, for alpha = solve(values).

        Row i of the ridge system gives it without K: (K alpha)_i = values_i
        - M lam alpha_i.  This is elementwise, so a caller may pass both
        arrays at any subset of the inputs.
        """
        return values - (self.size * self.spec.lam) * alpha


def fit_weights(spec: KernelSpec, train_inputs: np.ndarray) -> GramSystem:
    """Build and factor the ridge system K + M lam I over ``train_inputs``.

    The Gram matrix is built, regularized and factored in one M x M buffer.
    A failed factorization raises NumericError naming the order of the
    leading minor that failed and M lam; it holds no second M x M array and
    does no work past the failed factorization.
    """
    x = np.atleast_2d(np.asarray(train_inputs, dtype=float))
    m = x.shape[0]
    if m == 0:
        raise ValueError("training set is empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("training inputs must not contain infs or NaNs")
    # imported here: scipy.linalg adds ~0.3 s to every import of the
    # package, and only the stages that fit a ridge system factor one
    from scipy.linalg.lapack import dpotrf

    a = gram_matrix(spec, x)
    a[np.diag_indices(m)] += m * spec.lam
    # a is symmetric, so its transpose is the same matrix in Fortran order,
    # which LAPACK factors in place
    c, info = dpotrf(a.T, lower=True, overwrite_a=True, clean=False)
    if info != 0:
        # info < 0 names a bad argument, which these calls never pass
        raise NumericError(
            f"ridge system not positive definite: the leading minor of order {info} "
            f"(of {m}) failed to factor with M*lam = {m * spec.lam:.3e} on the diagonal; "
            "increase lam or deduplicate inputs"
        )
    return GramSystem(spec=spec, inputs=x, _factor=(c, True))
