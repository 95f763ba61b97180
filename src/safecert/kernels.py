"""Gaussian kernel machinery shared by every estimator in the package.

All conditional-expectation estimates are sums over kernel ridge weights,

    sum_i w_i(x) v_i = k_M(x)^T alpha,   alpha = [K + M lam I]^{-1} v,

where K is the Gram matrix of the M training inputs and k_M(x) the vector of
kernel evaluations against them; this dual form takes one solve for any number
of query points.  The ridge term is scaled by the sample count M so that
``lam`` keeps a consistent meaning across sample sizes.  Weights may be
negative; nothing here clips them.

A fitted system (``GramSystem``, built by ``fit_system``) takes one of two
representations, and its rank alone decides which:

* low rank: a block pivoted Cholesky factorisation of K over the training
  inputs and the U extra points the caller evaluates the kernel at (dp's
  next states) that are not bitwise training inputs, K ~ L^T L with L of
  m rows, and the Cholesky factor of the m x m Woodbury core
  M lam I + Lx Lx^T: 8 m (M + U) + 8 m^2 bytes.  The build stops once
  every residual diagonal it computes is at most _PIVOT_TOL * M lam
  (1e-11 * M lam), and solves are Woodbury's identity;
* dense, where that takes more than M / _RANK_SHARE rows (M / 8): the
  Cholesky factor in rectangular full packed storage, the lower triangle
  alone, n(n+1)/2 doubles for the system padded to n = M rounded up to a
  multiple of 16, built in place and factored and solved by level-3 LAPACK
  (``dpftrf``, ``dpftrs``), beside the rows K(unmatched, inputs), (U, M).

An extra point that is bitwise a training input takes its kernel row from
the ridge system instead (see ``fit_system``).

The dp systems of the acceptance desk cell (M = 4500 iid pairs, T = 15,
rank about 516 of M / 8 = 562) and of the default cells, iid and
dependent, take the first; the direct and barrier-candidate fits, the
benchmark's pipeline and diag fits and acceptance c13's fits stay dense.
No M x M array is held either way.

Both hot primitives are memory-bound and stream the array they fill or read
once: ``gram_matrix`` finishes every cache-sized block of rows (differences,
squares, scale, exp) before moving on, and a dense single-vector solve runs
six level-2 calls (two triangular solves and a product per triangle of L),
a low-rank one two products with Lx and an m x m solve.

A batch of queries is never held as one (n, M) kernel or weight matrix.
``kernel_expansion`` (so ``GramSystem.expand``) builds and applies K(query,
points) in row blocks of at most QUERY_BLOCK_BYTES of kernel values, whatever
M; ``abstraction.empirical_cell_probs``, which solves each block of weights,
cuts its queries by ``query_blocks``, the same bytes but at least 512 rows
(8 * 512 * M bytes), since narrow blocks solve slower.  Each finishes a block
before building the next, so beside the fitted system a query holds one
block, whatever the number of queries.
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
    "fit_system",
    "fit_weights",
]

# sup_x sqrt(k(x, x)) for the Gaussian kernel
KAPPA = 1.0

# entries per row block of gram_matrix: a block and its scratch (1 MB
# together) stay in cache from the first difference to the exp
_BLOCK_ENTRIES = 1 << 16

# bytes of kernel values per block of a query batch (see kernel_expansion
# and query_blocks)
QUERY_BLOCK_BYTES = 4 << 20

# but a block of ridge weights (query_blocks) has at least this many rows:
# it is one triangular solve over the whole factor, and narrow blocks solve
# slower (one BLAS thread of a 2-core Xeon: 1600 queries at M = 2000 take
# 0.37 s in 512-row blocks or one call, 0.46 s in 256-row blocks; 400 at
# M = 15000 take 4.0 s in one call, 7.1 s in 32-row blocks).  A block of a
# plain product (kernel_expansion) gains nothing from the floor
_MIN_ROWS = 512

# a dense ridge system is stored padded to a multiple of this order, so
# k = n/2 is a multiple of 8: then, at one BLAS thread, dpftrs over the
# blocks of query_blocks gives the bytes of one call over all the columns
# (seen for n from 1984 to 2048 on a 2-core Xeon; unpadded orders such as
# 1990 and 2011 differed in the last bits).  Blocks of one or three columns
# may still differ from one call.
_PAD = 16

# rows per block of a triangle of the Gram build: the diagonal square of a
# block is computed whole and half of it kept, about k * _TRIANGLE_ROWS / 2
# wasted entries per triangle of order k
_TRIANGLE_ROWS = 64

# the pivoted build of fit_system stops once the largest residual diagonal
# is at most _PIVOT_TOL * M lam, and hands over to the dense factor once its
# rank passes M / _RANK_SHARE.  Measured with the block build (2-core Xeon,
# one BLAS thread): the desk cells (M = 4500 iid pairs at seeds 1 and 2,
# tuned T = 15 kernel, over 9000 points) need rank 439 at 1e-9, 470-477 at
# 1e-10 and 516-517 at 1e-11, under their cap of 562, and at 1e-11 give V0
# within 1.6e-9 of the dense core's; 2001 inputs at lengthscales (0.7, 0.9),
# lam 1e-3 (rank 230 of 250) solve within 1.2e-11 of a dense solve at
# 1e-11, 1.3e-10 at 1e-10 and 1.6e-9 at 1e-9.  A system that falls back has
# paid its capped build, cap^2 N / 2 multiply-adds over N points: M^3 / 64
# (iid dp, N = 2M) or about M^3 / 128 (N ~ M) against the dense factor's
# M^3 / 6.
_PIVOT_TOL = 1e-11
_RANK_SHARE = 8

# candidates per block of the pivoted build, and the share of the largest
# residual diagonal that a pivot's Schur residual in its block must reach.
# The build time is flat in the block size from 48 to 192 (0.20-0.25 s per
# desk cell) and slower at 16 and 32 (0.28-0.36 s); a share of 0.1 bounds
# the growth of the rows as greedy pivoting does
_PIVOT_BLOCK = 64
_ACCEPT_SHARE = 0.1

# query rows per block are a multiple of this: a one-thread OpenBLAS dgemv
# takes rows in groups of four, so a block boundary on a multiple of 16
# groups every row as a product over the whole batch would
_ROW_GRANULE = 16

# a low-rank column solve runs its products with Lx over granules of this
# many columns, the last one zero-padded, so each product has one shape;
# the blocks of query_blocks are a multiple of it.  One BLAS thread of a
# 2-core Xeon, 512 queries at the desk cell (M = 4500, rank 516): 0.14 s in
# granules of 128 or in one product, 0.18 s in granules of 64, 0.28 s in
# granules of 16
_SOLVE_GRANULE = 128


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
        out = np.empty((n, m))
    elif out.shape != (n, m) or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {(n, m)}, "
                         f"not {out.dtype} of shape {out.shape}")
    _gaussian(u, vt, out)
    return out


def _gaussian(u: np.ndarray, vt: np.ndarray, out: np.ndarray) -> None:
    """exp(-0.5 sum_l (vt[l, j] - u[i, l])^2) into ``out`` (n, m), for the
    scaled coordinates u (n, d) of the rows and vt (d, m) of the columns,
    one contiguous row of vt per dimension: the block loop of
    ``gram_matrix``."""
    n, m = out.shape
    rows = max(1, _BLOCK_ENTRIES // max(m, 1))
    scratch = np.empty((min(rows, n), m))
    for r0 in range(0, n, rows):
        block = out[r0:r0 + rows]
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


def query_blocks(n: int, m: int) -> list[slice]:
    """Row slices covering a batch of ``n`` queries against ``m`` points
    whose weight rows are solved one block at a time
    (``abstraction.empirical_cell_probs``), in blocks of about
    QUERY_BLOCK_BYTES of kernel values each, or _MIN_ROWS rows where that is
    more (m above 1024), rounded down to a multiple of _SOLVE_GRANULE and
    cut by ``row_blocks``.  ``kernel_expansion`` solves nothing per block
    and keeps no floor.
    """
    rows = max(_MIN_ROWS, QUERY_BLOCK_BYTES // (8 * max(m, 1)))
    return row_blocks(n, rows // _SOLVE_GRANULE * _SOLVE_GRANULE)


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
    K(query, points) is built and applied one ``row_blocks`` block of at
    most QUERY_BLOCK_BYTES of kernel values at a time (one _ROW_GRANULE of
    rows where m is above 32768), with no row floor: no (n, m) array is
    held, and at one BLAS thread each row gets the bytes of one product over
    the whole batch.
    """
    q = np.atleast_2d(np.asarray(query, dtype=float))
    alpha = np.asarray(alpha, dtype=float)
    out = np.empty((q.shape[0],) + alpha.shape[1:])
    rows_per_block = QUERY_BLOCK_BYTES // (8 * max(points.shape[0], 1))
    for rows in row_blocks(q.shape[0], rows_per_block):
        np.matmul(gram_matrix(spec, q[rows], points), alpha, out=out[rows])
    return out


def _padded(m: int) -> int:
    """The order of the stored dense system for M = m training inputs: m
    rounded up to a multiple of _PAD (see there)."""
    return -(-m // _PAD) * _PAD


@dataclass
class GramSystem:
    """Ridge system K + M lam I over fixed training inputs, in one of two
    representations, and the kernel at a fixed set of extra points.

    An extra point that is bitwise a training input x_j, as most of dp's
    next states are for pairs sliced out of trajectories, needs no row of
    its own: row j of the ridge system gives K(x_j, inputs) @ alpha =
    values_j - M lam alpha_j for alpha = solve(values).  ``_source`` holds
    that j for each extra point, or -1, and the kernel is held at the U
    unmatched extra points alone.

    *Dense* (``rank`` is None): the lower Cholesky factor of the system, in
    LAPACK's rectangular full packed (RFP) layout with transr='T', uplo='L':
    one array of n(n+1)/2 doubles, the buffer the system was built in, for
    the system padded to order n (M rounded up to _PAD) with identity rows.
    K itself is not kept.  With k = n/2 the array is, in Fortran order, a
    (k, n + 1) matrix whose columns 1..k hold L11^T (upper), columns 0..k-1
    L22 (lower; the two triangles share no entry) and columns k+1..n L21^T,
    where L = [[L11, 0], [L21, L22]].  Beside it the system holds the rows
    K(unmatched, inputs), (U, M).

    *Low rank* (``rank`` = m): the rows L = [Lx, L+], (m, M + U), of a
    block pivoted Cholesky factorisation of K over [inputs; unmatched], so
    that K ~ L^T L on those points, and C, the (m, m) lower Cholesky factor
    of M lam I + Lx Lx^T.  A solve is Woodbury's identity,

        (Lx^T Lx + M lam I)^{-1} v = (v - Lx^T (C C^T)^{-1} Lx v) / (M lam),

    exact for the approximated system, and K(unmatched, inputs) @ alpha is
    L+^T (Lx alpha).  The matched-row identity holds exactly for the
    approximated kernel L^T L too, so both kinds of row come from one
    approximated operator.  Together 8 m (M + U) + 8 m^2 bytes.

    ``fit_system`` picks the representation by rank alone (see there).
    ``solve`` gives the dual coefficients (K + M lam I)^{-1} values,
    ``expand`` their expansion at query points, always with the exact kernel
    rows K(query, inputs), ``extra_expansion`` at the extra points, and
    ``weights_at`` the ridge weights, for callers needing columns.  Every
    solve runs in ``_solve_in_place``, the one method that tells the two
    representations apart.
    """

    spec: KernelSpec
    inputs: np.ndarray          # (M, d)
    # dense: (n(n+1)/2,) RFP factor; low rank: (m, m) lower factor C
    _factor: np.ndarray = field(repr=False)
    # dense: (U, M) K(unmatched, inputs); low rank: (m, U) pivoted rows L+
    _extra: np.ndarray = field(repr=False)
    # (n_extra,) the first input each extra point bitwise equals, or -1
    _source: np.ndarray = field(repr=False)
    # low rank: (m, M) pivoted rows Lx; None when dense
    _basis: np.ndarray | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def rank(self) -> int | None:
        """m, the rank of the low-rank representation; None when dense."""
        return None if self._basis is None else self._basis.shape[0]

    @property
    def _order(self) -> int:
        """Rows of a solve buffer: M padded to _PAD when dense, M when low
        rank."""
        return self.size if self._basis is not None else _padded(self.size)

    def _factor_views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(L11^T, L22, L21^T): the three F-contiguous (k, k) views of the
        dense factor, which BLAS reads in place."""
        k = _padded(self.size) // 2
        rfp = self._factor.reshape((k, 2 * k + 1), order="F")
        return rfp[:, 1:k + 1], rfp[:, :k], rfp[:, k + 1:]

    def solve(self, values: np.ndarray) -> np.ndarray:
        """(K + M lam I)^{-1} values for a vector (M,) or columns (M, c).

        ``values`` is copied into a solve buffer (``_solve_in_place``) and
        left unchanged.  Any other shape, or a non-finite value, is refused
        before the solve.
        """
        b = np.asarray(values, dtype=float)
        m = self.size
        if b.ndim not in (1, 2) or b.shape[0] != m:
            raise ValueError(f"values must have leading dimension M = {m}, one per training "
                             f"input, and at most two dimensions; got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("right-hand side must not contain infs or NaNs")
        # the padded unknowns of a dense solve come out as exact zeros and are dropped
        x = np.zeros((self._order,) + b.shape[1:], order="F")
        x[:m] = b
        self._solve_in_place(x)
        return x[:m]

    def _solve_in_place(self, x: np.ndarray) -> None:
        """Overwrite x, an F-ordered buffer of ``_order`` rows, a vector
        (n,) or columns (n, c), with (K + M lam I)^{-1} x.

        Dense, a vector is solved by six BLAS level-2 calls on the views of
        ``_factor_views``; LAPACK ``dpftrs``, which solves columns at level
        3, would run one-column level-3 calls, about 1.6 times slower at
        M = 4500 (one BLAS thread of a 2-core Xeon: 21.6 against 13.6 ms).
        Low rank, either is solved by Woodbury's identity: Lx x, formed as
        (x^T Lx^T)^T, one (m, m) solve (LAPACK ``dpotrs``), and x -= Lx^T z,
        columns in granules of _SOLVE_GRANULE, so that at one BLAS thread a
        column's bytes do not depend on the columns solved beside it.
        """
        # imported here: scipy.linalg adds ~0.3 s to every import of the
        # package, and only a process that fits a ridge system solves one
        from scipy.linalg.blas import dgemm, dgemv, dtrsv
        from scipy.linalg.lapack import dpftrs, dpotrs

        if self._basis is not None:
            lx = self._basis
            if x.ndim == 1:
                z, _ = dpotrs(self._factor, x @ lx.T, lower=1)
                x -= lx.T @ z
            else:
                # granules of _SOLVE_GRANULE columns, the last one
                # zero-padded: each product has one shape, so a column's
                # bytes do not depend on how many columns are solved beside it
                g = np.empty((x.shape[0], _SOLVE_GRANULE), order="F")
                for c0 in range(0, x.shape[1], _SOLVE_GRANULE):
                    cols = x[:, c0:c0 + _SOLVE_GRANULE]
                    g[:, :cols.shape[1]] = cols
                    g[:, cols.shape[1]:] = 0.0
                    z, _ = dpotrs(self._factor, (g.T @ lx.T).T, lower=1)
                    # g and Lx.T are F-ordered, so BLAS reads and writes
                    # them without copies
                    dgemm(-1.0, lx.T, z, beta=1.0, c=g, overwrite_c=True)
                    cols[...] = g[:, :cols.shape[1]]
            x /= self.size * self.spec.lam
            return
        if x.ndim == 2:
            dpftrs(self._order, self._factor, x, transr="T", uplo="L", overwrite_b=True)
            return
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

    def expand(self, query: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """K(query, inputs) @ alpha at each query of a batch (n, d); with
        alpha = solve(values), the ridge estimate sum_i w_i(x) values_i.
        The kernel rows are exact in either representation and are built
        one query block at a time."""
        return kernel_expansion(self.spec, query, self.inputs, alpha)

    def extra_expansion(self, values: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """K(extra, inputs) @ alpha at every extra point of ``fit_system``,
        (n_extra,) for a vector or (n_extra, c) for columns, with alpha =
        solve(values).

        An extra point that is the training input x_j takes row j of the
        ridge system, values_j - M lam alpha_j (``_fitted``); the others
        take the stored rows times alpha when dense, L+^T (Lx alpha) when
        low rank.  On the dense path with no matched point this is exactly
        K(extra, inputs) @ alpha.
        """
        if self._basis is None:
            rows = self._extra @ alpha
        else:
            rows = self._extra.T @ (self._basis @ alpha)
        hit = self._source >= 0
        out = np.empty(self._source.shape + alpha.shape[1:])
        out[~hit] = rows
        j = self._source[hit]
        out[hit] = self._fitted(values[j], alpha[j])
        return out

    def weights_at(self, query: np.ndarray) -> np.ndarray:
        """Ridge weights w(x), shape (n, M), for a batch of queries (n, d):
        the kernel rows K(query, inputs), solved in place as the columns of
        one buffer (``_solve_in_place``).

        The result is the whole (n, M) matrix; a caller with many queries
        passes them one ``query_blocks`` block at a time.  At one BLAS
        thread that gives the bytes of one call on either path: dense, see
        _PAD; low rank, the products with Lx run in fixed granules of
        columns whose boundaries the blocks keep (see ``_solve_in_place``).
        """
        q = np.atleast_2d(np.asarray(query, dtype=float))
        m = self.size
        w = np.empty((q.shape[0], self._order))
        w[:, m:] = 0.0
        gram_matrix(self.spec, q, self.inputs, out=w[:, :m])
        # w.T is F-ordered, so the solve runs in place
        self._solve_in_place(w.T)
        return w[:, :m]

    def representer_norm(self, values: np.ndarray, alpha: np.ndarray) -> float:
        """RKHS norm of the ridge interpolant of ``values`` on the inputs.

        norm = sqrt(alpha^T K alpha), where ``alpha`` = ``solve(values)`` is
        the solve the caller has already made.  This is a finite surrogate
        for the norm of the underlying function.  K alpha is read off the
        ridge system (``_fitted``), so the Gram matrix is not needed.
        """
        sq = float(alpha @ self._fitted(np.asarray(values, dtype=float), alpha))
        return float(np.sqrt(max(sq, 0.0)))

    def _fitted(self, values: np.ndarray, alpha: np.ndarray) -> np.ndarray:
        """K alpha, the ridge fit at the inputs, for alpha = solve(values).

        Row i of the ridge system gives it without K: (K alpha)_i = values_i
        - M lam alpha_i, with K the approximated kernel L^T L on the low-rank
        path, for which the identity stays exact.  This is elementwise, so a
        caller may pass both arrays at any subset of the inputs.
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


def _pivoted_rows(spec: KernelSpec, x: np.ndarray, extra: np.ndarray, tol: float,
                  cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(Lx, L+, d): the rows, (m, M) and (m, U), of a block pivoted Cholesky
    factorisation of K over the stacked points [x; extra], K ~ L^T L for L =
    [Lx, L+], and the residual diagonal d (M + U,) it stopped on; or None
    if the rank passes ``cap``.

    Each block takes as candidates the point of largest d and b - 1 points
    at evenly spaced quantiles of cumsum(d^2), and forms their residual
    block K - L^T L alone (b x b at most: a quantile may repeat a point).
    Pivots are accepted inside the block greedily, while the block's Schur
    residual is at least max(_ACCEPT_SHARE * max d, tol), the first one at
    _ACCEPT_SHARE * max d alone (a residual within rounding of tol may fall
    on either side of it in the block).  Their rows are built over every
    point at level 3: one kernel block, one ``dgemm`` against the earlier
    rows and one ``dtrsm`` by the Cholesky factor of the accepted block.
    d is updated one row at a time, 1 - L[0]^2 - L[1]^2 - ..., the bytes a
    fresh computation from the rows gives, but at the pivots, which are set
    to 0 when taken.  So d is never stale, and a block accepts a pivot
    unless rounding dominates d; then the build gives up.  There is no
    randomness: at one BLAS thread the bytes depend only on the inputs.

    The build stops once the largest d is at most ``tol``, checked after
    each block, and gives up when ``cap`` rows do not reach it.  How far d
    has decayed on the way says nothing about the rank: a set of isolated
    clusters keeps its largest d at 1 until the last cluster has its pivot.
    The (cap, .) buffers are shrunk in place to the m rows kept; rows past
    m are never written.
    """
    from scipy.linalg.blas import dgemm, dtrsm

    m = x.shape[0]
    u = _scaled(spec, np.concatenate([x, extra]))
    resid = np.ones(u.shape[0])
    # (scaled coordinates (d, .), rows, residual diagonal) of x and of extra
    parts = [(np.ascontiguousarray(u[:m].T), np.empty((cap, m)), resid[:m]),
             (np.ascontiguousarray(u[m:].T), np.empty((cap, extra.shape[0])), resid[m:])]
    j = 0
    while True:
        p = int(np.argmax(resid))
        top = resid[p]
        if j and top <= tol:
            break
        if j == cap:
            return None
        # candidates come from d as it stood before the block, so a small cap
        # redraws them at least four times (low-rank golden config: 25 of 100)
        b = min(_PIVOT_BLOCK, max(cap // 4, 1), cap - j)
        mass = np.cumsum(resid * resid)
        at = (np.arange(b - 1) + 0.5) * (mass[-1] / max(b - 1, 1))
        cand = np.unique(np.append(np.searchsorted(mass, at), p))
        split = int(np.searchsorted(cand, m))
        # L[:j] at the candidates, (j, c)
        coef = np.hstack([parts[0][1][:j, cand[:split]], parts[1][1][:j, cand[split:] - m]])
        block = np.empty((cand.size, cand.size))
        _gaussian(u[cand], np.ascontiguousarray(u[cand].T), block)
        block -= coef.T @ coef
        order, factor = _block_pivots(block, _ACCEPT_SHARE * top, tol)
        if not order:
            return None
        piv = cand[order]
        for ut, rows, r in parts:
            new = rows[j:j + len(order)]
            if new.size:
                _gaussian(u[piv], ut, new)
                # new.T and L[:j].T are F-ordered, so BLAS reads and writes them in place
                if j:
                    dgemm(-1.0, rows[:j].T, coef[:, order], beta=1.0, c=new.T, overwrite_c=True)
                dtrsm(1.0, factor, new.T, side=1, lower=1, trans_a=1, overwrite_b=True)
                for row in new:
                    r -= row * row
        resid[piv] = 0.0
        j += len(order)
    del new, row  # no view of a buffer may outlive its resize
    for _, rows, _ in parts:
        rows.resize((j, rows.shape[1]), refcheck=False)
    return parts[0][1], parts[1][1], resid


def _block_pivots(block: np.ndarray, share: float, tol: float) -> tuple[list[int], np.ndarray]:
    """(order, C): greedy pivots of a residual block (c, c), the first taken
    if its residual is at least ``share`` and each later one while its Schur
    residual is at least max(share, tol), and C (k, k), the lower Cholesky
    factor of the block at those pivots, in that order."""
    schur = block.copy()
    diag = block.diagonal().copy()
    order: list[int] = []
    cols = []
    for _ in range(block.shape[0]):
        i = int(np.argmax(diag))
        if diag[i] < (max(share, tol) if order else share):
            break
        col = schur[:, i] / np.sqrt(diag[i])
        schur -= np.outer(col, col)
        diag -= col * col
        diag[i] = -np.inf
        order.append(i)
        cols.append(col)
    factor = np.tril(np.array(cols).reshape(len(order), block.shape[0])[:, order].T)
    return order, factor


def _low_rank_factor(spec: KernelSpec, lx: np.ndarray) -> np.ndarray:
    """C, the lower Cholesky factor of M lam I + Lx Lx^T, (m, m), for the
    pivoted rows Lx (m, M) (LAPACK ``dpotrf``)."""
    from scipy.linalg.lapack import dpotrf

    mu = lx.shape[1] * spec.lam
    core = lx @ lx.T
    # Woodbury divides by M lam: below rounding of the core's diagonal the
    # solve is as singular as the dense factor would be
    if mu <= np.finfo(float).eps * np.trace(core):
        raise NumericError(
            f"ridge system numerically singular: M*lam = {mu:.3e} is below rounding "
            f"against the trace {np.trace(core):.3e} of its rank-{lx.shape[0]} kernel; "
            "increase lam or deduplicate inputs"
        )
    core[np.diag_indices_from(core)] += mu
    c, info = dpotrf(core, lower=1, clean=1, overwrite_a=1)
    if info != 0:
        raise NumericError(
            f"low-rank ridge core not positive definite: its leading minor of order {info} "
            f"(of {lx.shape[0]}) failed to factor with M*lam = {mu:.3e}; "
            "increase lam or deduplicate inputs"
        )
    return c


def _dense_factor(spec: KernelSpec, x: np.ndarray) -> np.ndarray:
    """The RFP array of the factored system padded to order n = M rounded
    up to _PAD with identity rows, [[K + M lam I, 0], [0, I]], whose factor
    is [[L, 0], [0, I]] (see GramSystem).

    The system is built, regularized and factored in one array of
    n(n+1)/2 doubles: ``gram_matrix`` computes each entry of the lower
    triangle once, but for the upper halves of small diagonal blocks, and
    LAPACK ``dpftrf`` factors the array in place.  A failed factorization
    raises NumericError naming the order of the leading minor that failed
    and M lam; it holds no second system array and does no work past the
    failed factorization.
    """
    from scipy.linalg.lapack import dpftrf

    m = x.shape[0]
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
    return rfp


def _finite_points(points, name: str) -> np.ndarray:
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must not contain infs or NaNs")
    return x


def _source_rows(inputs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """source[i] = the first j whose inputs[j] is bitwise points[i], or -1.

    Rows are compared by their bytes, never within a tolerance: each row is
    one opaque void item, ``np.unique`` sorts the inputs' items and keeps
    the first j of each, and ``searchsorted`` finds each point among them,
    in O(M log M) and a few (M,) arrays.  -0.0 and +0.0 differ there, which
    only costs a stored row.
    """
    def rows(a: np.ndarray) -> np.ndarray:
        a = np.ascontiguousarray(a)
        return a.view(np.dtype((np.void, a.itemsize * a.shape[1]))).ravel()

    keys, first = np.unique(rows(inputs), return_index=True)
    query = rows(points)
    at = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    hit = keys[at] == query
    return np.where(hit, first[at], -1).astype(np.intp)


def fit_system(spec: KernelSpec, train_inputs: np.ndarray,
               extra_points: np.ndarray | None = None) -> GramSystem:
    """Build and factor the ridge system K + M lam I over ``train_inputs``,
    with the kernel at ``extra_points`` (n_extra, d) for ``extra_expansion``.

    Each extra point is first looked up among the inputs by its bytes
    (``_source_rows``, skipped when there are none).  One that is bitwise
    an input x_j takes its row from the ridge system, K(x_j, inputs) @ alpha
    = values_j - M lam alpha_j, exact for whichever kernel the system holds,
    so the kernel is built at the U unmatched ones alone.

    Rank alone picks the representation (see GramSystem).  A block
    pivoted Cholesky factorisation of K over the N = M + U stacked points
    [train_inputs; unmatched] (``_pivoted_rows``) runs until the largest
    residual diagonal it computes is at most _PIVOT_TOL * M lam.  If that
    takes at most M / _RANK_SHARE rows, the system is low rank: it holds
    those rows and the factor of their (m, m) Woodbury core, 8 m (M + U)
    + 8 m^2 bytes.  Otherwise the pivoted rows are dropped and the dense
    system is built and factored in RFP storage (``_dense_factor``),
    4 n (n + 1) bytes for n = M rounded up to _PAD, beside the (U, M) rows
    K(unmatched, train_inputs).  A pivoted attempt that falls back has
    cost cap^2 N / 2 multiply-adds for cap = M / _RANK_SHARE, most of them
    in level-3 products: M^3 / 64 for N = 2M, under a tenth of the dense
    factor's M^3 / 6 (see _PIVOT_TOL).

    On the low-rank path the residual K - L^T L is, in exact arithmetic,
    positive semidefinite with diagonal at most _PIVOT_TOL * M lam, so
    every kernel entry among the N points is off by at most that, against
    the ridge M lam on the diagonal.  What is guaranteed is the diagonal
    the build computes; the residual recomputed from the rows differs from
    it by rounding (see README, Memory).  The dense path is exact.  A
    numerically singular system raises NumericError naming M lam on either
    path.
    """
    x = _finite_points(train_inputs, "training inputs")
    m = x.shape[0]
    if m == 0:
        raise ValueError("training set is empty")
    extra = x[:0] if extra_points is None else _finite_points(extra_points, "extra points")
    if extra.shape[1] != x.shape[1]:
        raise ValueError(f"extra points of dimension {extra.shape[1]}, but training inputs "
                         f"of dimension {x.shape[1]}")
    source = _source_rows(x, extra) if extra.shape[0] else np.empty(0, dtype=np.intp)
    unmatched = extra[source < 0]
    cap = m // _RANK_SHARE
    rows = _pivoted_rows(spec, x, unmatched, _PIVOT_TOL * m * spec.lam, cap) if cap else None
    if rows is not None:
        lx, lp, _ = rows
        return GramSystem(spec=spec, inputs=x, _factor=_low_rank_factor(spec, lx),
                          _extra=lp, _source=source, _basis=lx)
    factor = _dense_factor(spec, x)
    return GramSystem(spec=spec, inputs=x, _factor=factor,
                      _extra=gram_matrix(spec, unmatched, x), _source=source)


def fit_weights(spec: KernelSpec, train_inputs: np.ndarray) -> GramSystem:
    """``fit_system`` with no extra points: the ridge system of a caller
    that queries it through ``solve``, ``expand`` and ``weights_at`` alone."""
    return fit_system(spec, train_inputs)
