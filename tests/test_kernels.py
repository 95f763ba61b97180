import re
import tracemalloc
import warnings

import numpy as np
import pytest

from safecert import (
    GramSystem,
    KernelSpec,
    NumericError,
    fit_weights,
    gram_matrix,
)
from safecert import kernels
from safecert.kernels import (
    _BLOCK_ENTRIES,
    QUERY_BLOCK_BYTES,
    _dense_factor,
    _padded,
    _source_rows,
    fit_system,
    query_blocks,
)


def manual_kernel(x, y, ls):
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return float(np.exp(-0.5 * np.sum((d / ls) ** 2)))


def longdouble_kernel(spec, x, y):
    """k(x_i, y_j) in extended precision, from the unscaled inputs."""
    ls = np.asarray(spec.lengthscales, dtype=np.longdouble)
    d = (np.asarray(x, dtype=np.longdouble)[:, None, :]
         - np.asarray(y, dtype=np.longdouble)[None, :, :]) / ls
    return np.exp(-0.5 * np.sum(d * d, axis=2))


class TestKernelSpec:
    def test_from_variances_takes_square_roots(self):
        spec = KernelSpec.from_variances((0.25, 4.0), 1e-3)
        assert spec.lengthscales == (0.5, 2.0)
        assert spec.lam == 1e-3
        assert spec.dim == 2

    def test_isotropic(self):
        spec = KernelSpec.isotropic(0.7, 3, 1e-2)
        assert spec.lengthscales == (0.7, 0.7, 0.7)

    @pytest.mark.parametrize("ls,lam", [((0.0, 1.0), 1e-3), ((1.0,), 0.0), ((-1.0,), 1e-3), ((1.0,), -1e-3),
                                        ((np.nan,), 1e-3), ((np.inf,), 1e-3), ((1.0,), np.nan),
                                        ((1.0,), np.inf), ((-1.0, 1.0), 1e-3), ((), 1e-3)])
    def test_rejects_nonpositive_parameters(self, ls, lam):
        with pytest.raises(ValueError):
            KernelSpec(lengthscales=ls, lam=lam)
        # the same parameters as squared lengthscales, signs kept: a negative
        # variance is refused, not turned into a NaN lengthscale
        variances = np.sign(ls) * np.square(ls)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                KernelSpec.from_variances(variances, lam)


class TestGramMatrix:
    def test_matches_elementwise_formula(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=(6, 2))
        y = rng.uniform(-1, 1, size=(4, 2))
        spec = KernelSpec(lengthscales=(0.6, 1.3), lam=1e-4)
        K = gram_matrix(spec, x, y)
        ls = np.array(spec.lengthscales)
        for i in range(6):
            for j in range(4):
                assert K[i, j] == pytest.approx(manual_kernel(x[i], y[j], ls), abs=1e-14)

    def test_square_gram_symmetric_with_unit_diagonal(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-2, 2, size=(15, 2))
        K = gram_matrix(KernelSpec.isotropic(0.8, 2, 1e-3), x)
        assert np.array_equal(K, K.T)
        assert np.array_equal(np.diag(K), np.ones(15))

    @pytest.mark.parametrize("n_x,n_y", [
        (500, 300),                   # several row blocks, the last one short
        (3, _BLOCK_ENTRIES + 7),      # one row per block
        (1, 40),
        (0, 40),
    ])
    def test_matches_extended_precision_across_blocks(self, n_x, n_y):
        """Every entry within 1e-15 of a long-double reference, also where
        the points nearly coincide and |u|^2 + |v|^2 - 2 u.v would cancel."""
        rng = np.random.default_rng(15)
        spec = KernelSpec(lengthscales=(0.6, 1.3), lam=1e-4)
        y = rng.uniform(-2, 2, size=(n_y, 2))
        x = rng.uniform(-2, 2, size=(n_x, 2))
        # half the rows sit within 1e-9 of a column point
        near = n_x // 2
        x[:near] = y[:near] + 1e-9 * rng.standard_normal((near, 2))
        K = gram_matrix(spec, x, y)
        assert K.shape == (n_x, n_y)
        assert np.max(np.abs(K - longdouble_kernel(spec, x, y)), initial=0.0) <= 1e-15

    def test_out_receives_the_bytes_of_a_new_result(self):
        """A result written into a strided view, in pieces or whole, has the
        bytes of one built as a new array; the rest of the buffer is left."""
        rng = np.random.default_rng(22)
        spec = KernelSpec(lengthscales=(0.6, 1.3), lam=1e-4)
        x = rng.uniform(-2, 2, size=(300, 2))
        y = rng.uniform(-2, 2, size=(200, 2))
        want = gram_matrix(spec, x, y)
        buf = np.full((300, 250), 7.0)
        assert gram_matrix(spec, x, y, out=buf[:, 50:]) is not None
        gram_matrix(spec, x[:120], y, out=buf[:120, 50:])
        assert buf[:, 50:].tobytes() == want.tobytes()
        assert np.all(buf[:, :50] == 7.0)

    @pytest.mark.parametrize("out", [np.empty((3, 5)), np.empty((4, 4)),
                                     np.empty((4, 5), dtype=np.float32)])
    def test_out_of_another_shape_or_dtype_is_refused(self, out):
        x = np.zeros((4, 2))
        with pytest.raises(ValueError, match=r"shape \(4, 5\)"):
            gram_matrix(KernelSpec.isotropic(1.0, 2, 1e-3), x, np.zeros((5, 2)), out=out)

    def test_multi_block_gram_exactly_symmetric_with_unit_diagonal(self):
        rng = np.random.default_rng(16)
        x = rng.uniform(-2, 2, size=(700, 2))
        x[350:] = x[:350] + 1e-9 * rng.standard_normal((350, 2))
        spec = KernelSpec(lengthscales=(0.7, 1.1), lam=1e-4)
        K = gram_matrix(spec, x)
        assert np.array_equal(K, K.T)
        assert np.array_equal(np.diag(K), np.ones(700))
        assert np.max(np.abs(K - longdouble_kernel(spec, x, x))) <= 1e-15


class TestWeights:
    def test_two_far_points_give_diagonal_solve(self):
        """With negligible cross-covariance the weight at a training point
        is 1/(1 + M*lam)."""
        x = np.array([[0.0, 0.0], [50.0, 50.0]])
        sys = fit_weights(KernelSpec.isotropic(0.5, 2, 0.01), x)
        w = sys.weights_at(np.array([[0.0, 0.0]]))[0]
        assert w[0] == pytest.approx(1.0 / 1.02, abs=1e-12)
        assert abs(w[1]) < 1e-12

    def test_weights_satisfy_normal_equations(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-2, 2, size=(9, 2))
        spec = KernelSpec(lengthscales=(0.9, 0.7), lam=3e-4)
        sys = fit_weights(spec, x)
        K = gram_matrix(spec, x)
        q = rng.uniform(-2, 2, size=(5, 2))
        w = sys.weights_at(q)
        lhs = w @ (K + 9 * spec.lam * np.eye(9))
        rhs = gram_matrix(spec, q, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_single_query_matches_batch_row(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, size=(6, 2))
        sys = fit_weights(KernelSpec.isotropic(0.8, 2, 1e-3), x)
        q = rng.uniform(-1, 1, size=(3, 2))
        batch = sys.weights_at(q)
        assert batch.shape == (3, 6)
        for i in range(3):
            assert np.allclose(sys.weights_at(q[i:i + 1]), batch[i:i + 1], atol=1e-12, rtol=0)

    def test_interpolation_at_tiny_ridge(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-2, 2, size=(5, 2))
        sys = fit_weights(KernelSpec.isotropic(1.0, 2, 1e-13), x)
        w = sys.weights_at(x)
        assert np.max(np.abs(w - np.eye(5))) < 1e-6

    @pytest.mark.parametrize("single", [True, False])
    @pytest.mark.parametrize("cols", [None, 3])
    def test_expand_of_solve_matches_weights(self, single, cols):
        """expand(q, solve(values)) is weights_at(q) @ values, formed
        without the (n, M) weight matrix."""
        rng = np.random.default_rng(14)
        x = rng.uniform(-2, 2, size=(30, 2))
        sys = fit_weights(KernelSpec(lengthscales=(0.9, 0.6), lam=1e-4), x)
        q = rng.uniform(-2, 2, size=2 if single else (7, 2))
        values = rng.uniform(0, 1, size=30 if cols is None else (30, cols))
        got = sys.expand(q, sys.solve(values))
        want = sys.weights_at(q) @ values
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-10

    def test_representer_norm_single_point(self):
        sys = fit_weights(KernelSpec.isotropic(1.0, 1, 0.5), np.array([[0.0]]))
        # alpha = 2 / (1 + lam), K = [[1]], so the norm is |alpha|
        v = np.array([2.0])
        assert sys.representer_norm(v, sys.solve(v)) == pytest.approx(2.0 / 1.5, abs=1e-14)

    def test_representer_norm_matches_quadratic_form(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, size=(7, 2))
        spec = KernelSpec.isotropic(0.6, 2, 1e-3)
        sys = fit_weights(spec, x)
        v = rng.uniform(0, 1, size=7)
        K = gram_matrix(spec, x)
        alpha = np.linalg.solve(K + 7 * spec.lam * np.eye(7), v)
        assert sys.representer_norm(v, sys.solve(v)) == pytest.approx(float(np.sqrt(alpha @ K @ alpha)), rel=1e-10)

    def test_representer_norm_at_the_tuned_ridge_floor(self):
        """K alpha is read off the ridge system as v - M lam alpha; at the
        smallest tuned ridge the system's condition (~1e6) leaves ~1e-9 of
        rounding in either form, so 1e-8 separates rounding from error."""
        rng = np.random.default_rng(11)
        m = 300
        x = rng.uniform(-2, 2, size=(m, 2))
        spec = KernelSpec.from_variances((0.772, 1.572), 3e-8)
        sys = fit_weights(spec, x)
        K = gram_matrix(spec, x)
        for _ in range(3):
            v = rng.uniform(0, 1, size=m)
            alpha = np.linalg.solve(K + m * spec.lam * np.eye(m), v)
            want = float(np.sqrt(alpha @ K @ alpha))
            assert sys.representer_norm(v, sys.solve(v)) == pytest.approx(want, rel=1e-8)

    def test_solve_matches_dense_ridge_solve(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(-2, 2, size=(40, 2))
        spec = KernelSpec.isotropic(0.7, 2, 1e-4)
        sys = fit_weights(spec, x)
        a = gram_matrix(spec, x) + 40 * spec.lam * np.eye(40)
        b = rng.standard_normal((40, 3))
        assert np.max(np.abs(sys.solve(b) - np.linalg.solve(a, b))) < 1e-10
        assert np.max(np.abs(sys.solve(b[:, 0]) - np.linalg.solve(a, b[:, 0]))) < 1e-10
        with pytest.raises(ValueError):
            sys.solve(np.full(40, np.nan))

    def test_vector_solve_matches_the_column_solve(self):
        """The level-2 vector path and the level-3 column path agree and
        neither writes into its argument."""
        rng = np.random.default_rng(17)
        x = rng.uniform(-2, 2, size=(300, 2))
        sys = fit_weights(KernelSpec.from_variances((0.772, 1.572), 1e-6), x)
        b = rng.uniform(0, 1, size=300)
        kept = b.copy()
        vec = sys.solve(b)
        col = sys.solve(b[:, None])
        assert vec.shape == (300,) and col.shape == (300, 1)
        assert np.max(np.abs(vec - col[:, 0])) <= 1e-12 * np.max(np.abs(col))
        assert np.array_equal(b, kept)

    def test_solves_read_the_packed_factor_in_place(self, monkeypatch):
        """The factor is one RFP array of n(n+1)/2 doubles, and every BLAS
        and LAPACK call of a solve reads it in place: each matrix argument is
        an F-contiguous view of it, which f2py passes without a copy, and
        every right-hand side is solved in the buffer it was passed in."""
        import scipy.linalg.blas
        import scipy.linalg.lapack

        x = np.random.default_rng(18).uniform(-2, 2, size=(50, 2))
        sys = fit_weights(KernelSpec.isotropic(0.8, 2, 1e-3), x)
        n = _padded(50)
        assert n == 64
        factor = sys._factor
        assert factor.shape == (n * (n + 1) // 2,) and factor.flags.c_contiguous
        calls = []

        def reads_in_place(name, fn, a_at, b_at, b_key):
            def wrapper(*args, **kwargs):
                a, b = args[a_at], kwargs[b_key] if b_key in kwargs else args[b_at]
                assert np.shares_memory(a, factor), name
                assert a.flags.f_contiguous and a.dtype == np.float64, name
                out = fn(*args, **kwargs)
                assert np.shares_memory(out[0] if isinstance(out, tuple) else out, b), name
                calls.append(name)
                return out
            return wrapper

        monkeypatch.setattr(scipy.linalg.blas, "dtrsv",
                            reads_in_place("dtrsv", scipy.linalg.blas.dtrsv, 0, 1, "x"))
        monkeypatch.setattr(scipy.linalg.blas, "dgemv",
                            reads_in_place("dgemv", scipy.linalg.blas.dgemv, 1, None, "y"))
        monkeypatch.setattr(scipy.linalg.lapack, "dpftrs",
                            reads_in_place("dpftrs", scipy.linalg.lapack.dpftrs, 1, 2, "b"))
        rng = np.random.default_rng(23)
        sys.solve(rng.uniform(0, 1, size=50))
        assert calls == ["dtrsv", "dgemv", "dtrsv", "dtrsv", "dgemv", "dtrsv"]
        calls.clear()
        sys.solve(rng.uniform(0, 1, size=(50, 3)))
        sys.weights_at(rng.uniform(-2, 2, size=(7, 2)))
        assert calls == ["dpftrs", "dpftrs"]

    @pytest.mark.parametrize("m", [1, 2, 15, 17, 301, 2001])
    def test_solves_match_a_dense_solve(self, m):
        """Across the padding (M = 1 gives n = 16, 17 gives 32, 2001 gives
        2016) the vector and column solves match a dense solve of K + M lam I,
        and the vector path its one-column solve."""
        rng = np.random.default_rng(24)
        x = rng.uniform(-2, 2, size=(m, 2))
        spec = KernelSpec(lengthscales=(0.7, 0.9), lam=1e-3)
        sys = fit_weights(spec, x)
        a = gram_matrix(spec, x) + m * spec.lam * np.eye(m)
        b = rng.uniform(0, 1, size=(m, 3))
        col = sys.solve(b)
        vec = sys.solve(b[:, 0])
        assert col.shape == (m, 3) and vec.shape == (m,)
        assert np.max(np.abs(col - np.linalg.solve(a, b))) <= 1e-10
        assert np.max(np.abs(vec - np.linalg.solve(a, b[:, 0]))) <= 1e-10
        assert np.max(np.abs(vec - sys.solve(b[:, :1])[:, 0])) <= 1e-12

    @pytest.mark.parametrize("m", [5, 40, 301])
    def test_factor_is_lapacks_factor_of_the_padded_system(self, m):
        """The packed build holds each entry gram_matrix gives, so the factor
        has the bytes of LAPACK's factor of the padded system [[K + M lam I,
        0], [0, I]] packed by ``dtrttf``, and the padded unknowns of a solve
        are exact zeros.  M = 5 has no input in the trailing half (n = 16);
        M = 301 builds each triangle in three row blocks, the last partial."""
        from scipy.linalg.lapack import dpftrf, dtrttf

        x = np.random.default_rng(25).uniform(-2, 2, size=(m, 2))
        spec = KernelSpec(lengthscales=(0.7, 0.9), lam=1e-3)
        n = _padded(m)
        a = np.eye(n)
        a[:m, :m] = gram_matrix(spec, x)
        a[np.arange(m), np.arange(m)] += m * spec.lam
        packed, info = dtrttf(np.asfortranarray(a), transr="T", uplo="L")
        want, info = dpftrf(n, packed, transr="T", uplo="L")
        assert info == 0
        sys = fit_weights(spec, x)
        assert sys._factor.tobytes() == want.tobytes()
        padded = np.zeros(n)
        padded[:m] = np.random.default_rng(26).uniform(0, 1, size=m)
        sys._solve_in_place(padded)
        assert np.all(padded[m:] == 0.0)

    @pytest.mark.parametrize("values", [np.ones(6), np.ones(4), np.array(1.0), np.ones((6, 2)),
                                        np.ones((5, 2, 1)), np.ones(0)],
                             ids=["long", "short", "0-d", "long-columns", "3-d", "empty"])
    def test_values_of_another_length_are_refused(self, values, monkeypatch):
        """A vector of 6 values at M = 5 used to come back with its last
        value untouched, 4 values raised an f2py error and a 0-d array an
        IndexError; each is refused naming M and the shape, before BLAS."""
        import scipy.linalg.blas
        import scipy.linalg.lapack

        sys = fit_weights(KernelSpec.isotropic(0.8, 2, 1e-3),
                          np.random.default_rng(27).uniform(-2, 2, size=(5, 2)))
        for module, name in ((scipy.linalg.blas, "dtrsv"), (scipy.linalg.lapack, "dpftrs")):
            monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("solved"))
        with pytest.raises(ValueError, match=rf"M = 5.*got shape {re.escape(str(values.shape))}"):
            sys.solve(values)

    def test_factor_failure_reports_the_failing_minor_and_ridge(self):
        """Exact duplicates make the system singular to rounding: the error
        names the leading minor that failed, which holds the first
        duplicate, and M lam."""
        rng = np.random.default_rng(13)
        pts = rng.uniform(-1, 1, size=(20, 2))
        x = np.vstack([pts, pts[:5]])
        with pytest.raises(NumericError, match=r"leading minor of order (\d+) \(of 25\)") as info:
            fit_weights(KernelSpec.isotropic(1.0, 2, 1e-300), x)
        message = str(info.value)
        order = int(message.split("order ")[1].split()[0])
        assert 21 <= order <= 25
        assert "M*lam = 2.500e-299" in message

    def test_factor_failure_holds_one_system_array(self):
        """A failed factorization raises without rebuilding the system or
        taking its spectrum: the call's peak stays within one packed system
        array, n(n+1)/2 doubles (half an M x M array), and the Gram build's
        scratch: a strip of _TRIANGLE_ROWS rows and a gram_matrix block."""
        import scipy.linalg.lapack  # noqa: F401  (its import would count towards the peak)

        m = 1000
        n = _padded(m)
        x = np.zeros((m, 2))
        tracemalloc.start()
        try:
            with pytest.raises(NumericError):
                fit_weights(KernelSpec.isotropic(1.0, 2, 1e-300), x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * (n + 1) + 8 * _BLOCK_ENTRIES + 8 * 64 * n
        assert peak < 0.6 * 8 * m * m

    def test_non_finite_inputs_rejected(self):
        x = np.random.default_rng(19).uniform(-1, 1, size=(10, 2))
        x[3, 1] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            fit_weights(KernelSpec.isotropic(1.0, 2, 1e-3), x)

    def test_duplicate_points_with_zero_ridge_raise(self):
        x = np.zeros((3, 2))
        with pytest.raises(NumericError):
            fit_weights(KernelSpec.isotropic(1.0, 2, 1e-300), x)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_weights(KernelSpec.isotropic(1.0, 3, 1e-3), np.zeros((4, 2)))


class TestQueryBlocks:
    @pytest.mark.parametrize("n,m", [(0, 500), (1, 500), (5000, 500), (2 * 1040 + 1, 500),
                                     (1600, 2000), (100, 10**6), (17, 1)])
    def test_blocks_cover_the_batch_in_bounded_rows(self, n, m):
        blocks = query_blocks(n, m)
        assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
        if n == 0:
            assert blocks == []
        else:
            assert (blocks[0].start, blocks[-1].stop) == (0, n)
        rows = query_blocks(2**20, m)[0].stop
        assert rows % kernels._SOLVE_GRANULE == 0 and rows % 16 == 0
        # a block holds about QUERY_BLOCK_BYTES of kernel values, or 512 rows
        assert rows >= 512
        assert rows * m * 8 <= QUERY_BLOCK_BYTES or rows == 512
        for b in blocks[:-1]:
            assert b.stop - b.start == rows
        # a one-row tail joins the block before it
        if n > 1:
            assert blocks[-1].stop - blocks[-1].start > 1

    @pytest.mark.parametrize("tail", [13, 1])
    def test_expand_gives_the_bytes_of_one_product(self, tail, one_blas_thread):
        """Over 2 blocks and a partial one (or a one-row tail, which joins the
        block before), the streamed expansion equals the product over the
        whole batch byte for byte."""
        rng = np.random.default_rng(20)
        m = 500
        x = rng.uniform(-2, 2, size=(m, 2))
        spec = KernelSpec(lengthscales=(0.9, 0.6), lam=1e-4)
        sys = fit_weights(spec, x)
        alpha = sys.solve(rng.uniform(0, 1, size=m))
        rows = query_blocks(2**20, m)[0].stop
        q = rng.uniform(-2, 2, size=(2 * rows + tail, 2))
        assert len(query_blocks(q.shape[0], m)) == (3 if tail > 1 else 2)
        got = sys.expand(q, alpha)
        want = gram_matrix(spec, q, x) @ alpha
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [2000, 2001])
    def test_weights_in_blocks_give_the_bytes_of_one_call(self, m, one_blas_thread):
        """At one BLAS thread ``dpftrs`` solves a column to the same bytes
        whatever columns it is solved beside, for systems padded to a
        multiple of 16 (n = 2000 and 2016 here), so ``weights_at`` over the
        blocks of ``query_blocks`` gives the bytes of one call."""
        rng = np.random.default_rng(28)
        x = rng.uniform(-2, 2, size=(m, 2))
        sys = fit_weights(KernelSpec(lengthscales=(0.9, 0.6), lam=1e-4), x)
        q = rng.uniform(-2, 2, size=(1100, 2))
        blocks = query_blocks(q.shape[0], m)
        assert len(blocks) == 3
        got = np.vstack([sys.weights_at(q[rows]) for rows in blocks])
        assert got.tobytes() == sys.weights_at(q).tobytes()

    def test_expand_holds_no_query_by_input_array(self):
        """20000 queries against M = 500 inputs would be an 80 MB kernel
        matrix built whole; streamed, the call peaks near one block."""
        rng = np.random.default_rng(21)
        x = rng.uniform(-2, 2, size=(500, 2))
        sys = fit_weights(KernelSpec(lengthscales=(0.9, 0.6), lam=1e-4), x)
        alpha = sys.solve(rng.uniform(0, 1, size=500))
        q = rng.uniform(-2, 2, size=(20000, 2))
        tracemalloc.start()
        try:
            out = sys.expand(q, alpha)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (20000,)
        assert peak < 2 * QUERY_BLOCK_BYTES


@pytest.fixture(scope="module")
def desk_systems(desk_pairs, desk_spec) -> tuple[GramSystem, GramSystem]:
    """(low rank, dense): the ridge system over the desk inputs with their
    next states as extra points, as fit_system builds it, and with the rank
    cap at zero, which sends the same inputs down the dense path."""
    x, extra = desk_pairs.x, desk_pairs.x_next
    low = fit_system(desk_spec, x, extra)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_RANK_SHARE", x.shape[0] + 1)
        dense = fit_system(desk_spec, x, extra)
    return low, dense


class TestLowRank:
    def test_desk_system_takes_the_low_rank_path(self, desk_systems):
        low, dense = desk_systems
        m = low.size
        assert dense.rank is None
        assert 0 < low.rank <= m // kernels._RANK_SHARE
        assert low._basis.shape == (low.rank, m) and low._extra.shape == (low.rank, m)
        assert low._factor.shape == (low.rank, low.rank)

    def test_solves_match_the_dense_core(self, desk_systems):
        """Vector and column solves agree with the dense core within 1e-8 of
        the coefficients' scale (|alpha| reaches about 600 here), and the
        expansions at the extra points within 1e-8."""
        low, dense = desk_systems
        rng = np.random.default_rng(41)
        b = rng.uniform(0, 1, size=(low.size, 3))
        want = dense.solve(b)
        scale = np.max(np.abs(want))
        assert scale > 1.0
        assert np.max(np.abs(low.solve(b) - want)) <= 1e-8 * scale
        vec = low.solve(b[:, 0])
        assert vec.shape == (low.size,)
        assert np.max(np.abs(vec - want[:, 0])) <= 1e-8 * scale
        assert np.max(np.abs(low.extra_expansion(b[:, 0], vec)
                              - dense.extra_expansion(b[:, 0], want[:, 0]))) <= 1e-8
        assert low.representer_norm(b[:, 0], vec) == pytest.approx(
            dense.representer_norm(b[:, 0], want[:, 0]), abs=1e-8)

    def test_weights_match_the_dense_core(self, desk_systems):
        low, dense = desk_systems
        q = np.random.default_rng(42).uniform((-0.5, -0.5), (5.0, 2.5), size=(300, 2))
        got = low.weights_at(q)
        assert got.shape == (300, low.size)
        assert np.max(np.abs(got - dense.weights_at(q))) <= 1e-8

    @pytest.mark.parametrize("extra, named", [
        (np.zeros((3, 3)), "extra points of dimension 3, but training inputs of dimension 2"),
        (np.array([[0.0, np.inf]]), "extra points must not contain infs or NaNs"),
    ], ids=["dimension", "inf"])
    def test_bad_extra_points_are_refused(self, extra, named):
        x = np.random.default_rng(45).uniform(-2, 2, size=(100, 2))
        with pytest.raises(ValueError, match=re.escape(named)):
            fit_system(KernelSpec.isotropic(0.8, 2, 1e-3), x, extra)

    def test_high_rank_system_keeps_the_dense_bytes(self):
        """At a lengthscale far below the spacing of the inputs the pivoted
        build's residual hardly falls and its rows are dropped: the system
        holds the RFP factor and K(extra, inputs) of the dense build alone."""
        rng = np.random.default_rng(43)
        x = rng.uniform(-2, 2, size=(400, 2))
        extra = rng.uniform(-2, 2, size=(50, 2))
        spec = KernelSpec.isotropic(0.02, 2, 1e-4)
        sys = fit_system(spec, x, extra)
        assert sys.rank is None and sys._basis is None
        assert sys._factor.tobytes() == _dense_factor(spec, x).tobytes()
        assert sys._extra.tobytes() == gram_matrix(spec, extra, x).tobytes()

    def test_build_stops_on_its_residual_diagonal(self, desk_pairs, desk_spec):
        """The residual diagonal d the pivoted build stops on is at most tol
        = _PIVOT_TOL * M lam everywhere.  It is updated one row at a time, so
        it holds the bytes of 1 - L[0]^2 - L[1]^2 - ... recomputed from the
        rows, but at the pivots, where it is set to 0: at most rank entries
        differ."""
        x, extra = desk_pairs.x, desk_pairs.x_next
        m = x.shape[0]
        tol = kernels._PIVOT_TOL * m * desk_spec.lam
        lx, lp, d = kernels._pivoted_rows(desk_spec, x, extra[_source_rows(x, extra) < 0], tol,
                                          m // kernels._RANK_SHARE)
        assert d.max() <= tol
        fresh = np.ones(d.size)
        for row in np.hstack([lx, lp]):
            fresh -= row * row
        assert np.count_nonzero(d != fresh) <= lx.shape[0]

    def test_residual_diagonal_stays_above_minus_four_tol(self, desk_systems, desk_pairs):
        """The diagonal of K - L^T L at 1500 of the stacked points [x;
        unmatched x+] stays above -4 tol: the block build measured -1.8 tol
        at worst and the greedy one -0.15 tol.  Pivots accepted against the
        residual as it stood before their block, not against the block's
        Schur complement, overshot K by 1e6 tol."""
        low, _ = desk_systems
        points = np.vstack([low.inputs, desk_pairs.x_next[low._source < 0]])
        rows = np.hstack([low._basis, low._extra])
        at = np.random.default_rng(44).choice(points.shape[0], 1500, replace=False)
        resid = gram_matrix(low.spec, points[at]) - rows[:, at].T @ rows[:, at]
        tol = kernels._PIVOT_TOL * low.size * low.spec.lam
        assert resid.diagonal().min() >= -4 * tol

    def test_two_fits_give_the_same_bytes(self, desk_pairs, desk_spec, one_blas_thread):
        """The pivots are chosen without randomness, so at one BLAS thread a
        second fit of the same inputs holds the bytes of the first."""
        first, again = (fit_system(desk_spec, desk_pairs.x, desk_pairs.x_next) for _ in range(2))
        assert first.rank is not None
        for name in ("_basis", "_extra", "_factor", "_source"):
            assert getattr(again, name).tobytes() == getattr(first, name).tobytes()

    def test_high_rank_build_gives_up_within_a_block_past_a_quarter_of_the_cap(
            self, monkeypatch):
        """On the system of test_high_rank_system_keeps_the_dense_bytes the
        largest residual has not decayed at cap / 4 rows, so the build gives
        up at the first block boundary past it, and a high-rank system costs
        at most a block more rows than a quarter of the capped build."""
        rng = np.random.default_rng(43)
        x = rng.uniform(-2, 2, size=(400, 2))
        extra = rng.uniform(-2, 2, size=(50, 2))
        spec = KernelSpec.isotropic(0.02, 2, 1e-4)
        built = []
        gaussian = kernels._gaussian

        def counted(u, vt, out):
            if out.shape[1] == x.shape[0]:  # the training-input part of new rows
                built.append(out.shape[0])
            gaussian(u, vt, out)

        monkeypatch.setattr(kernels, "_gaussian", counted)
        cap = x.shape[0] // kernels._RANK_SHARE
        tol = kernels._PIVOT_TOL * x.shape[0] * spec.lam
        assert kernels._pivoted_rows(spec, x, extra, tol, cap) is None
        assert cap // 4 <= sum(built) < cap // 4 + min(kernels._PIVOT_BLOCK, cap // 4)

    def test_block_that_accepts_no_pivot_ends_the_build(self, monkeypatch):
        """A block whose largest residual falls below the acceptance share
        of the largest d (rounding dominates d) would leave every buffer as
        it was and loop: the build gives up instead."""
        monkeypatch.setattr(kernels, "_ACCEPT_SHARE", 2.0)  # no residual reaches 2 max d
        x = np.random.default_rng(49).uniform(-2, 2, size=(400, 2))
        assert kernels._pivoted_rows(KernelSpec.isotropic(0.8, 2, 1e-3), x, x[:0], 1e-8, 50) is None

    def test_singular_low_rank_core_is_refused(self):
        """1000 copies of one point have rank 1, but at M lam = 1e-297 the
        Woodbury division would overflow: NumericError, as the dense factor
        would raise."""
        with pytest.raises(NumericError, match=r"M\*lam = 1\.000e-297 is below rounding"):
            fit_system(KernelSpec.isotropic(1.0, 2, 1e-300), np.zeros((1000, 2)))


@pytest.fixture(scope="module")
def matched_systems() -> tuple[np.ndarray, np.ndarray, dict[str, GramSystem]]:
    """(inputs, extra points, {representation: system}): 2001 inputs, and
    500 extra points of which the first 300 are bitwise inputs (duplicates
    among them); low rank as fit_system builds it (rank about 230 of 250),
    dense with the rank cap at zero."""
    rng = np.random.default_rng(46)
    m = 2001
    x = rng.uniform(-2, 2, size=(m, 2))
    extra = np.vstack([x[rng.integers(0, m, size=300)], rng.uniform(-2, 2, size=(200, 2))])
    spec = KernelSpec(lengthscales=(0.7, 0.9), lam=1e-3)
    low = fit_system(spec, x, extra)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_RANK_SHARE", m + 1)
        dense = fit_system(spec, x, extra)
    return x, extra, {"low rank": low, "dense": dense}


class TestExtraPoints:
    @pytest.mark.parametrize("seed", range(4))
    def test_source_rows_match_a_dict_of_row_bytes(self, seed):
        """The sorted lookup gives what a dict from each input row's bytes
        to its first index gives, on rows with duplicates and signed zeros."""
        rng = np.random.default_rng(seed)
        m = 200
        x = rng.integers(-3, 4, size=(m, 2)) * 0.5
        x[rng.random((m, 2)) < 0.1] = -0.0
        x_next = np.vstack([x[rng.integers(0, m, size=m // 2)],
                            rng.integers(-3, 4, size=(m - m // 2, 2)) * 0.25])
        x_next[rng.random((m, 2)) < 0.1] *= -1.0
        first: dict[bytes, int] = {}
        for j, row in enumerate(x):
            first.setdefault(row.tobytes(), j)
        want = [first.get(row.tobytes(), -1) for row in x_next]
        got = _source_rows(x, x_next)
        assert got.dtype == np.intp and got.tolist() == want
        assert 0 < np.count_nonzero(got >= 0) < m

    @pytest.mark.parametrize("form", ["low rank", "dense"])
    def test_rows_are_stored_for_unmatched_points_only(self, matched_systems, form):
        x, extra, systems = matched_systems
        sys = systems[form]
        assert (sys.rank is None) == (form == "dense")
        assert sys._source.tolist() == _source_rows(x, extra).tolist()
        unmatched = extra[sys._source < 0]
        assert unmatched.shape[0] == 200
        if sys.rank is None:
            assert sys._extra.tobytes() == gram_matrix(sys.spec, unmatched, x).tobytes()
        else:
            assert sys._extra.shape == (sys.rank, 200)

    @pytest.mark.parametrize("form, tol", [("low rank", 1e-8), ("dense", 1e-10)])
    def test_extra_expansion_matches_the_kernel_product(self, matched_systems, form, tol):
        """Matched points read values_j - M lam alpha_j off the ridge system,
        the others the stored rows: both match K(extra, inputs) @ alpha,
        for a vector and for columns."""
        x, extra, systems = matched_systems
        sys = systems[form]
        values = np.random.default_rng(47).uniform(0, 1, size=(x.shape[0], 3))
        alpha = sys.solve(values)
        k = gram_matrix(sys.spec, extra, x)
        cols = sys.extra_expansion(values, alpha)
        vec = sys.extra_expansion(values[:, 0], alpha[:, 0])
        assert cols.shape == (500, 3) and vec.shape == (500,)
        assert np.max(np.abs(cols - k @ alpha)) <= tol
        assert np.max(np.abs(vec - k @ alpha[:, 0])) <= tol

    def test_no_extra_points_skip_the_lookup(self, monkeypatch):
        monkeypatch.setattr(kernels, "_source_rows", lambda *a: pytest.fail("looked up"))
        x = np.random.default_rng(48).uniform(-2, 2, size=(40, 2))
        sys = fit_weights(KernelSpec.isotropic(0.8, 2, 1e-3), x)
        assert sys._source.shape == (0,) and sys._extra.shape == (0, 40)
