"""Gaussian kernel machinery shared by every estimator in the package.

All conditional-expectation estimates are sums over kernel ridge weights,

    sum_i w_i(x) v_i = k_M(x)^T alpha,   alpha = [K + M lam I]^{-1} v,

where K is the Gram matrix of the M training inputs and k_M(x) the vector of
kernel evaluations against them; this dual form takes one solve for any number
of query points.  The ridge term is scaled by the sample count M so that
``lam`` keeps a consistent meaning across sample sizes.  Weights may be
negative; nothing here clips them.

A fitted system holds its Cholesky factor in rectangular full packed
storage (``GramSystem``): the lower triangle alone, n(n+1)/2 doubles for the
system padded to n = M rounded up to a multiple of 16, built in place and
factored and solved by level-3 LAPACK (``dpftrf``, ``dpftrs``).  No M x M
array is held.

Both hot primitives are memory-bound and stream the array they fill or read
once: ``gram_matrix`` finishes every cache-sized block of rows (differences,
squares, scale, exp) before moving on, and a single-vector solve runs six
level-2 calls (two triangular solves and a product per triangle of L).

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
    "row_blocks",
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
# solve over the whole factor, and narrow blocks solve slower (one
# BLAS thread of a 2-core Xeon: 1600 queries at M = 2000 take 0.37 s in
# 512-row blocks or one call, 0.46 s in 256-row blocks; 400 at M = 15000
# take 4.0 s in one call, 7.1 s in 32-row blocks)
_MIN_ROWS = 512

# a ridge system is stored padded to a multiple of this order, so k = n/2 is
# a multiple of 8: then, at one BLAS thread, dpftrs over the blocks of
# query_blocks gives the bytes of one call over all the columns (seen for
# n from 1984 to 2048 on a 2-core Xeon; unpadded orders such as 1990 and
# 2011 differed in the last bits).  Blocks of one or three columns may
# still differ from one call.
_PAD = 16

# rows per block of a triangle of the Gram build: the diagonal square of a
# block is computed whole and half of it kept, about k * _TRIANGLE_ROWS / 2
# wasted entries per triangle of order k
_TRIANGLE_ROWS = 64

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


def gram_matrix(spec: KernelSpec, x: np.ndarray, y: np.ndarray | None = None, *,
                out: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix k(x_i, y_j); with ``y=None`` the symmetric Gram of x.

    The (n_x, n_y) result is built in blocks of about _BLOCK_ENTRIES entries,
    whole rows each.  A block sums the squared differences of the scaled
    coordinates, (v_jl - u_il)^2 over l, then scales by -0.5 and takes the
    exp in place while it is still in cache, so the result is streamed once.
    Direct differences do not cancel the way |u|^2 + |v|^2 - 2 u.v does, and
    since fl(a - b) = -fl(b - a) the Gram of x is exactly symmetric with a
    unit diagonal.  Each difference is taken as a broadcast copy of v_l and
    an in-place subtraction of u_l, which squares the same bits: on a 2-core
    Xeon one subtraction from the broadcast u_l ran 3-4 times slower for
    rows of under about 2700 entries (a 2000 x 2000 Gram took 10.7 against
    7.6 ns per entry, a 2000 x 4500 one 5.3 against 5.6).

    ``out``, a float64 (n_x, n_y) array or view, receives the result in
    place of a new array; each entry takes the same arithmetic either way,
    so a matrix built in pieces has the bytes of one built whole.
    """
    u = _scaled(spec, x)
    # one contiguous row per dimension, broadcast along each block's rows
    vt = np.ascontiguousarray((u if y is None else _scaled(spec, y)).T)
    n, m = u.shape[0], vt.shape[1]
    if out is None:
        k = np.empty((n, m))
    elif out.shape != (n, m) or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {(n, m)}, "
                         f"not {out.dtype} of shape {out.shape}")
    else:
        k = out
    rows = max(1, _BLOCK_ENTRIES // max(m, 1))
    scratch = np.empty((min(rows, n), m))
    for r0 in range(0, n, rows):
        block = k[r0:r0 + rows]
        ub = u[r0:r0 + rows]
        block[...] = vt[0]
        block -= ub[:, :1]
        block *= block
        sq = scratch[:block.shape[0]]
        for dim in range(1, vt.shape[0]):
            sq[...] = vt[dim]
            sq -= ub[:, dim:dim + 1]
            sq *= sq
            block += sq
        block *= -0.5
        np.exp(block, out=block)
    return k


def query_blocks(n: int, m: int) -> list[slice]:
    """Row slices covering a batch of ``n`` queries against ``m`` points, in
    blocks of about QUERY_BLOCK_BYTES of kernel values each, or _MIN_ROWS
    rows where that is more (m above 1024), cut by ``row_blocks``.
    """
    return row_blocks(n, max(_MIN_ROWS, QUERY_BLOCK_BYTES // (8 * max(m, 1))))


def row_blocks(n: int, rows: int) -> list[slice]:
    """Row slices covering ``n`` rows in blocks of ``rows`` rounded down to a
    multiple of _ROW_GRANULE (at least one granule).

    Every block but the last is a multiple of _ROW_GRANULE rows, so a product
    over each block gives the bytes of one product over the whole batch at
    one BLAS thread.  A last block of one row joins the block before: numpy
    sends a (1, m) @ (m,) product through its dot path, whose sums differ in
    the last bits from the matrix-vector kernel's.
    """
    rows = max(_ROW_GRANULE, rows // _ROW_GRANULE * _ROW_GRANULE)
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


def _padded(m: int) -> int:
    """The order of the stored system for M = m training inputs: m rounded
    up to a multiple of _PAD (see fit_weights)."""
    return -(-m // _PAD) * _PAD


@dataclass
class GramSystem:
    """Cholesky-factored ridge system K + M lam I over fixed training inputs.

    Only the lower Cholesky factor is held, in LAPACK's rectangular full
    packed (RFP) layout with transr='T', uplo='L': one array of n(n+1)/2
    doubles, the buffer the system was built in, for the system padded to
    order n (M rounded up to _PAD) with identity rows.  K itself is not
    kept.  With k = n/2 the array is, in Fortran order, a (k, n + 1) matrix
    whose columns 1..k hold L11^T (upper), columns 0..k-1 L22 (lower; the
    two triangles share no entry) and columns k+1..n L21^T, where L =
    [[L11, 0], [L21, L22]].  ``solve`` gives the dual coefficients
    (K + M lam I)^{-1} values, ``expand`` their expansion at query points,
    and ``weights_at`` the ridge weights, for callers needing columns.
    """

    spec: KernelSpec
    inputs: np.ndarray          # (M, d)
    _factor: np.ndarray = field(repr=False)   # (n(n+1)/2,) RFP factor

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    def _factor_views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(L11^T, L22, L21^T): the three F-contiguous (k, k) views of the
        factor, which BLAS reads in place."""
        k = _padded(self.size) // 2
        rfp = self._factor.reshape((k, 2 * k + 1), order="F")
        return rfp[:, 1:k + 1], rfp[:, :k], rfp[:, k + 1:]

    def solve(self, values: np.ndarray) -> np.ndarray:
        """(K + M lam I)^{-1} values for a vector (M,) or columns (M, c).

        A vector is solved at level 2 (``_solve_vector``), columns at level 3
        (``dpftrs``); ``values`` is left unchanged either way.  Any other
        shape, or a non-finite value, is refused before the solve.
        """
        b = np.asarray(values, dtype=float)
        m = self.size
        if b.ndim not in (1, 2) or b.shape[0] != m:
            raise ValueError(f"values must have leading dimension M = {m}, one per training "
                             f"input, and at most two dimensions; got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("right-hand side must not contain infs or NaNs")
        # the padded unknowns come out as exact zeros and are dropped
        x = np.zeros((_padded(m),) + b.shape[1:], order="F")
        x[:m] = b
        if b.ndim == 1:
            self._solve_vector(x)
        else:
            self._solve_columns(x)
        return x[:m]

    def _solve_vector(self, x: np.ndarray) -> None:
        """Solve in place for one padded vector (n,): six BLAS level-2 calls
        on the views of ``_factor_views``.  LAPACK ``dpftrs`` would run
        one-column level-3 calls, about 1.6 times slower at M = 4500 (one
        BLAS thread of a 2-core Xeon: 21.6 against 13.6 ms)."""
        # imported here: scipy.linalg adds ~0.3 s to every import of the
        # package, and only a process that fits a ridge system solves one
        from scipy.linalg.blas import dgemv, dtrsv

        u11, l22, s = self._factor_views()
        k = u11.shape[0]
        x1, x2 = x[:k], x[k:]
        # the factor was checked when it was built; checking it again per
        # solve would cost as much as the solve.  L y = b: L11 y1 = b1, then
        # L22 y2 = b2 - L21 y1
        dtrsv(u11, x1, trans=1, overwrite_x=True)
        dgemv(-1.0, s, x1, beta=1.0, y=x2, trans=1, overwrite_y=True)
        dtrsv(l22, x2, lower=True, overwrite_x=True)
        # L^T x = y: L22^T x2 = y2, then L11^T x1 = y1 - L21^T x2
        dtrsv(l22, x2, lower=True, trans=1, overwrite_x=True)
        dgemv(-1.0, s, x2, beta=1.0, y=x1, overwrite_y=True)
        dtrsv(u11, x1, overwrite_x=True)

    def _solve_columns(self, x: np.ndarray) -> None:
        """Solve in place for padded columns (n, c), F-ordered (LAPACK
        ``dpftrs``, level 3)."""
        from scipy.linalg.lapack import dpftrs

        dpftrs(_padded(self.size), self._factor, x, transr="T", uplo="L", overwrite_b=True)

    def expand(self, query: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """K(query, inputs) @ alpha at each query of a batch (n, d); with
        alpha = solve(values), the ridge estimate sum_i w_i(x) values_i.
        The kernel rows are built one query block at a time."""
        return kernel_expansion(self.spec, query, self.inputs, alpha)

    def weights_at(self, query: np.ndarray) -> np.ndarray:
        """Ridge weights w(x), shape (n, M), for a batch of queries (n, d).

        The result is the whole (n, M) matrix; a caller with many queries
        passes them one ``query_blocks`` block at a time, which at one BLAS
        thread gives the bytes of one call (see _PAD).
        """
        q = np.atleast_2d(np.asarray(query, dtype=float))
        m = self.size
        w = np.empty((q.shape[0], _padded(m)))
        w[:, m:] = 0.0
        gram_matrix(self.spec, q, self.inputs, out=w[:, :m])
        # w.T is Fortran-ordered, so the solve runs in place
        self._solve_columns(w.T)
        return w[:, :m]

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


def _gram_triangle(spec: KernelSpec, x: np.ndarray, out: np.ndarray, lower: bool) -> None:
    """Write K(x, x) into the lower (or upper) triangle of ``out``, a (t, t)
    view, diagonal included, and nothing else of it.

    Row blocks of _TRIANGLE_ROWS rows are built by ``gram_matrix`` in one
    contiguous strip of scratch, from the triangle's first column in the
    block to its last, and copied, the diagonal square through a triangular
    mask.  Written straight into the strided rows of ``out`` the same build
    ran about 1.5 times slower (one BLAS thread of a 2-core Xeon, t = 2256).
    """
    t = x.shape[0]
    b = min(_TRIANGLE_ROWS, t)
    strip = np.empty(b * t)
    keep = np.tri(b, dtype=bool)
    if not lower:
        keep = keep.T
    for r0 in range(0, t, _TRIANGLE_ROWS):
        r1 = min(r0 + _TRIANGLE_ROWS, t)
        c0, c1 = (0, r1) if lower else (r0, t)
        s = strip[:(r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
        gram_matrix(spec, x[r0:r1], x[c0:c1], out=s)
        np.copyto(out[r0:r1, r0:r1], s[:, r0 - c0:r1 - c0], where=keep[:r1 - r0, :r1 - r0])
        if lower:
            out[r0:r1, :r0] = s[:, :r0]
        else:
            out[r0:r1, r1:] = s[:, r1 - r0:]


def fit_weights(spec: KernelSpec, train_inputs: np.ndarray) -> GramSystem:
    """Build and factor the ridge system K + M lam I over ``train_inputs``.

    The system is padded to order n = M rounded up to _PAD with identity
    rows, [[K + M lam I, 0], [0, I]], whose factor is [[L, 0], [0, I]], and
    is built, regularized and factored in one RFP array of n(n+1)/2 doubles
    (see GramSystem): ``gram_matrix`` computes each entry of the lower
    triangle once, but for the upper halves of small diagonal blocks, and
    LAPACK ``dpftrf`` factors the array in place.  A failed factorization raises NumericError
    naming the order of the leading minor that failed and M lam; it holds
    no second system array and does no work past the failed factorization.
    """
    x = np.atleast_2d(np.asarray(train_inputs, dtype=float))
    m = x.shape[0]
    if m == 0:
        raise ValueError("training set is empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("training inputs must not contain infs or NaNs")
    # imported here: scipy.linalg adds ~0.3 s to every import of the
    # package, and only the stages that fit a ridge system factor one
    from scipy.linalg.lapack import dpftrf

    n = _padded(m)
    k = n // 2
    rfp = np.zeros(n * (n + 1) // 2)
    # row c of p is column c of the (k, n + 1) RFP matrix: row 1 + i holds
    # A11[i, :i + 1] and then A22[1 + i, 1 + i:], and row k + 1 + i A21[i]
    p = rfp.reshape(n + 1, k)
    top, bottom = min(m, k), max(m - k, 0)   # training inputs in each half
    _gram_triangle(spec, x[:top], p[1:top + 1, :top], lower=True)
    _gram_triangle(spec, x[k:], p[:bottom, :bottom], lower=False)
    if bottom:
        gram_matrix(spec, x[k:], x[:k], out=p[k + 1:k + 1 + bottom])
    # the diagonals of A11 and A22, at p[1 + i, i] and p[i, i]
    for diagonal, inputs in ((rfp[k::k + 1][:k], top), (rfp[::k + 1][:k], bottom)):
        diagonal[:inputs] += m * spec.lam
        diagonal[inputs:] = 1.0
    _, info = dpftrf(n, rfp, transr="T", uplo="L", overwrite_a=True)
    if info != 0:
        # info < 0 names a bad argument, which these calls never pass, and
        # the identity rows past M never fail
        raise NumericError(
            f"ridge system not positive definite: the leading minor of order {info} "
            f"(of {m}) failed to factor with M*lam = {m * spec.lam:.3e} on the diagonal; "
            "increase lam or deduplicate inputs"
        )
    return GramSystem(spec=spec, inputs=x, _factor=rfp)
