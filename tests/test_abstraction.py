import gc
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from safecert import (
    DpModel,
    IntervalModel,
    KernelSpec,
    OneStepPairs,
    SafeRegion,
    SsrParams,
    build_partition,
    empirical_cell_probs,
    evaluate_abstraction,
    fit_dp,
    imp_inner_min,
    imp_value_iteration,
    ssr_backward,
    ssr_value_iteration,
)
from safecert.abstraction import _ROW_BLOCK, _order_max
from safecert.kernels import GramSystem, query_blocks

UNIT_SQUARE = SafeRegion(
    low=(0.0, 0.0), high=(1.0, 1.0), obstacles=(((0.3, 0.3), (0.45, 0.45)),)
)


def boxes_overlap(alo, ahi, blo, bhi) -> bool:
    """Closed-box intersection test, written independently of the library."""
    return all(al <= bh and ah >= bl for al, ah, bl, bh in zip(alo, ahi, blo, bhi))


def unit_square_pairs(n: int, seed: int) -> OneStepPairs:
    """Noisy contraction toward the center of the unit square."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 2))
    x_next = 0.5 + 0.7 * (x - 0.5) + 0.05 * rng.standard_normal((n, 2))
    return OneStepPairs(x=x, x_next=x_next)


def fitted_dp(n: int = 300, seed: int = 0) -> DpModel:
    return fit_dp(KernelSpec.isotropic(0.3, 2, 1e-5), unit_square_pairs(n, seed), UNIT_SQUARE)


def scatter_reference(part, dp_model) -> np.ndarray:
    """Cell probabilities by an unbuffered scatter of the transposed weights,
    then a clip and a divide, without the in-place steps of the library."""
    w = dp_model.gram.weights_at(part.centers)
    m_idx, inbox = part.locate(dp_model.x_next)
    acc = np.zeros((part.n_cells, part.n_cells))
    np.add.at(acc, m_idx[inbox], w[:, inbox].T)
    probs = np.clip(acc.T, 0.0, 1.0)
    sums = probs.sum(axis=1)
    dead = sums <= 0.0
    probs[dead] = 1.0 / part.n_cells
    sums[dead] = 1.0
    return probs / sums[:, None]


def loop_inner_min(lower, upper, v, order):
    """Order-maximization one coordinate at a time: the scalar reference."""
    p = lower.copy()
    budget = max(1.0 - lower.sum(), 0.0)
    for i in order:
        if budget <= 0.0:
            break
        add = min(upper[i] - lower[i], budget)
        p[i] += add
        budget -= add
    return p, float(p @ v)


def loop_value_iteration(model, part, T):
    """Robust backward iteration calling the scalar reference per safe cell."""
    safe = part.safe_flags
    lower, upper = model.bounds(slice(None))
    v = safe.astype(float)
    for _ in range(T):
        order = np.argsort(v, kind="stable")
        new_v = np.zeros_like(v)
        for i in np.flatnonzero(safe):
            new_v[i] = loop_inner_min(lower[i], upper[i], v, order)[1]
        v = new_v
    return v


def explicit(lower, upper):
    """The bounds callable of ``_order_max`` over two explicit bound matrices."""
    return lambda idx: (lower[idx], upper[idx])


def dense_value_iteration(phat, radius, part, T):
    """Robust backward iteration over explicit n x n bound matrices
    clip(phat -+ radius, 0, 1): lower @ v in one product over every row,
    then the library's order-maximisation on the safe rows."""
    lower = np.clip(phat - radius, 0.0, 1.0)
    upper = np.clip(phat + radius, 0.0, 1.0)
    rows = np.flatnonzero(part.safe_flags)
    budget = np.maximum(1.0 - lower[rows].sum(axis=1), 0.0)
    v = part.safe_flags.astype(float)
    for _ in range(T):
        order = np.argsort(v, kind="stable")
        new_v = np.zeros_like(v)
        new_v[rows] = _order_max(explicit(lower, upper), rows, v, order, budget, (lower @ v)[rows])
        v = new_v
    return v


def cell_box(part, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The (low, high) corners of cell i, read off the partition's edges."""
    multi = np.unravel_index(i, part.counts)
    low = np.array([part.edges[k][j] for k, j in enumerate(multi)])
    high = np.array([part.edges[k][j + 1] for k, j in enumerate(multi)])
    return low, high


class TestPartition:
    def test_cell_layout(self, region):
        part = build_partition(region, (8, 8))
        assert part.n_cells == 64
        assert part.centers.shape == (64, 2)
        for i in range(part.n_cells):
            low, high = cell_box(part, i)
            assert np.all(low < high)
            assert np.array_equal(part.centers[i], 0.5 * (low + high))

    def test_locate_centers_roundtrip(self, region):
        part = build_partition(region, (6, 5))
        idx, inbox = part.locate(part.centers)
        assert np.all(inbox)
        assert np.array_equal(idx, np.arange(30))

    def test_locate_boundary_conventions(self, region):
        part = build_partition(region, (4, 4))
        lo, hi = region.box_array()
        idx_hi, inbox_hi = part.locate(hi[None, :])
        assert inbox_hi[0]
        assert idx_hi[0] == part.n_cells - 1
        _, inbox_out = part.locate((hi + 0.01)[None, :])
        assert not inbox_out[0]

    def test_interior_edge_goes_to_upper_cell(self):
        part = build_partition(UNIT_SQUARE, (4, 4))
        idx, inbox = part.locate(np.array([[0.25, 0.0]]))
        assert inbox[0]
        row, col = np.unravel_index(idx[0], (4, 4))
        assert row == 1

    def test_safe_flags_match_independent_overlap_oracle(self, region):
        part = build_partition(region, (9, 7))
        for i in range(part.n_cells):
            hit = any(
                boxes_overlap(*cell_box(part, i), np.asarray(ol), np.asarray(oh))
                for ol, oh in region.obstacles
            )
            assert part.safe_flags[i] == (not hit)

    def test_touching_cell_is_unsafe(self):
        # obstacle [0.3, 0.45]^2 shares only the face x=0.3 with cell [0.25, 0.3)x...
        part = build_partition(UNIT_SQUARE, (20, 20))
        idx, _ = part.locate(np.array([[0.26, 0.31]]))
        assert not part.safe_flags[idx[0]]

    def test_center_safety_differs_from_whole_cell_flags(self, region):
        """A straddling cell is flagged unsafe even when its center is clear."""
        part = build_partition(region, (8, 8))
        diff = np.flatnonzero(part.center_safe != part.safe_flags)
        assert len(diff) > 0
        assert np.all(part.center_safe[diff])

    def test_counts_must_match_dimension(self, region):
        with pytest.raises(ValueError):
            build_partition(region, (4,))


def one_call_probs(part, dp_model) -> np.ndarray:
    """Cell probabilities from one ``weights_at`` call over every center,
    then the library's steps row by row: the unstreamed form."""
    w = dp_model.gram.weights_at(part.centers)
    m_idx, inbox = part.locate(dp_model.x_next)
    n = part.n_cells
    probs = np.empty((n, n))
    for i, row in enumerate(w):
        probs[i] = np.bincount(m_idx[inbox], weights=row[inbox], minlength=n)
    np.clip(probs, 0.0, 1.0, out=probs)
    sums = probs.sum(axis=1)
    dead = sums <= 0.0
    probs[dead] = 1.0 / n
    sums[dead] = 1.0
    probs /= sums[:, None]
    return probs


@pytest.fixture(scope="module")
def wide_model() -> DpModel:
    """A model of M = 2000 samples: the 1600 cells of a 40 x 40 partition
    span three query blocks of 512 centers and a partial one of 64.  Each
    test builds its own partition, which holds the matrix it builds."""
    return fitted_dp(2000, 3)


@pytest.fixture
def weights_at_calls(monkeypatch) -> list:
    """The number of queries of each ``GramSystem.weights_at`` call."""
    calls = []
    weights_at = GramSystem.weights_at
    monkeypatch.setattr(GramSystem, "weights_at",
                        lambda self, query: calls.append(len(query)) or weights_at(self, query))
    return calls


class TestEmpiricalCellProbs:
    def test_streamed_blocks_match_one_weights_call(self, wide_model, one_blas_thread):
        part, dp_model = build_partition(UNIT_SQUARE, (40, 40)), wide_model
        blocks = query_blocks(part.n_cells, dp_model.gram.size)
        assert len(blocks) > 2 and blocks[-1].stop - blocks[-1].start < blocks[0].stop
        got = empirical_cell_probs(part, dp_model)
        assert got.tobytes() == one_call_probs(part, dp_model).tobytes()

    def test_streamed_blocks_match_one_weights_call_at_default_threads(self, wide_model):
        """With several BLAS threads the solve of a block of columns splits
        its products by the block's width, so the last bits may move; about
        1e-13 was seen at two threads."""
        part, dp_model = build_partition(UNIT_SQUARE, (40, 40)), wide_model
        got = empirical_cell_probs(part, dp_model)
        assert np.max(np.abs(got - one_call_probs(part, dp_model))) <= 1e-12

    def test_low_rank_blocks_match_one_weights_call(self, desk_pairs, desk_spec, region,
                                                    one_blas_thread):
        """A low-rank model's weights take products with its pivoted rows in
        granules of a fixed number of columns, so at one BLAS thread the
        streamed matrix over 584 cells (a block of 512 centers and one of
        72, whose last granule is partial) has the bytes of one call."""
        dp_model = fit_dp(desk_spec, desk_pairs, region)
        part = build_partition(region, (73, 8))
        assert dp_model.gram.rank is not None
        blocks = query_blocks(part.n_cells, dp_model.gram.size)
        assert [b.stop - b.start for b in blocks] == [512, 72]
        got = empirical_cell_probs(part, dp_model)
        assert got.tobytes() == one_call_probs(part, dp_model).tobytes()

    def test_holds_no_cells_by_samples_array(self, wide_model):
        """The (1600, 2000) weight matrix would be 25.6 MB; streamed, the
        call holds its (1600, 1600) result and about one block beside it."""
        part, dp_model = build_partition(UNIT_SQUARE, (40, 40)), wide_model
        empirical_cell_probs(build_partition(UNIT_SQUARE, (2, 2)), dp_model)  # imports done
        tracemalloc.start()
        try:
            probs = empirical_cell_probs(part, dp_model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = query_blocks(part.n_cells, dp_model.gram.size)[0].stop * dp_model.gram.size * 8
        assert peak < probs.nbytes + 1.5 * block
        assert 1.5 * block < part.n_cells * dp_model.gram.size * 8

    def test_rows_are_distributions(self):
        part = build_partition(UNIT_SQUARE, (5, 5))
        dp_model = fitted_dp()
        probs = empirical_cell_probs(part, dp_model)
        assert probs.shape == (25, 25)
        assert probs.flags.c_contiguous
        assert np.all(probs >= 0) and np.all(probs <= 1)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.max(np.abs(probs - scatter_reference(part, dp_model))) <= 1e-14

    def test_mass_flows_toward_the_contraction_image(self):
        part = build_partition(UNIT_SQUARE, (5, 5))
        probs = empirical_cell_probs(part, fitted_dp())
        corner = np.array([[0.1, 0.1]])
        corner_cell = part.locate(corner)[0][0]
        image_cell = part.locate(0.5 + 0.7 * (corner - 0.5))[0][0]
        assert image_cell != corner_cell
        assert probs[corner_cell, image_cell] == np.max(probs[corner_cell])

    def test_dead_rows_fall_back_to_uniform_with_warning(self):
        """A model trained far away assigns every cell-center weight ~0, so
        rows die and are replaced by the uniform distribution."""
        x = np.full((20, 2), 40.0) + 0.01 * np.random.default_rng(1).standard_normal((20, 2))
        pairs = OneStepPairs(x=x, x_next=x)
        far_region = SafeRegion(low=(30.0, 30.0), high=(50.0, 50.0), obstacles=(((44.0, 44.0), (45.0, 45.0)),))
        model = fit_dp(KernelSpec.isotropic(0.05, 2, 1e-6), pairs, far_region)
        part = build_partition(UNIT_SQUARE, (3, 3))
        with pytest.warns(RuntimeWarning):
            probs = empirical_cell_probs(part, model)
        assert np.allclose(probs, 1.0 / 9.0)

    def test_some_dead_rows_match_the_transposed_scatter(self):
        """Data clustered in one corner under a narrow kernel: far cell
        centers get exactly zero weight, the others keep theirs."""
        x = 0.1 + 0.01 * np.random.default_rng(2).standard_normal((20, 2))
        pairs = OneStepPairs(x=x, x_next=x)
        model = fit_dp(KernelSpec.isotropic(0.01, 2, 1e-6), pairs, UNIT_SQUARE)
        part = build_partition(UNIT_SQUARE, (5, 5))
        with pytest.warns(RuntimeWarning):
            probs = empirical_cell_probs(part, model)
        uniform = np.all(probs == 1.0 / 25.0, axis=1)
        assert 0 < np.sum(uniform) < 25
        assert probs.flags.c_contiguous
        assert np.all(probs >= 0) and np.all(probs <= 1)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.max(np.abs(probs - scatter_reference(part, model))) <= 1e-14


class TestHeldCellMatrix:
    """The partition holds the matrix built from each live model."""

    def test_second_call_returns_the_held_matrix(self, weights_at_calls):
        part, dp_model = build_partition(UNIT_SQUARE, (5, 5)), fitted_dp()
        probs = empirical_cell_probs(part, dp_model)
        assert weights_at_calls == [25]
        assert empirical_cell_probs(part, dp_model) is probs
        assert weights_at_calls == [25]

    def test_ssr_reads_the_held_matrix(self, weights_at_calls):
        part, dp_model = build_partition(UNIT_SQUARE, (5, 5)), fitted_dp()
        probs = empirical_cell_probs(part, dp_model)
        weights_at_calls.clear()
        v = ssr_value_iteration(part, dp_model, SsrParams(delta=0.01), 6)
        assert weights_at_calls == []
        assert v.tobytes() == ssr_backward(probs, part, SsrParams(delta=0.01), 6).tobytes()

    def test_another_model_or_partition_builds_again(self, weights_at_calls):
        part, dp_model = build_partition(UNIT_SQUARE, (5, 5)), fitted_dp()
        probs = empirical_cell_probs(part, dp_model)
        refit = empirical_cell_probs(part, fitted_dp())
        fresh = empirical_cell_probs(build_partition(UNIT_SQUARE, (5, 5)), dp_model)
        assert refit is not probs and fresh is not probs
        assert empirical_cell_probs(part, dp_model) is probs
        assert weights_at_calls == [25, 25, 25]

    @pytest.mark.parametrize("dropped", ["model", "partition"])
    def test_matrix_dies_with_its_model_or_partition(self, dropped):
        live = {"partition": build_partition(UNIT_SQUARE, (5, 5)), "model": fitted_dp()}
        held = weakref.ref(empirical_cell_probs(live["partition"], live["model"]))
        gc.collect()
        assert held() is not None
        del live[dropped]
        gc.collect()
        assert held() is None

    def test_matrix_is_read_only(self):
        probs = empirical_cell_probs(build_partition(UNIT_SQUARE, (5, 5)), fitted_dp())
        assert not probs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            probs[0, 0] = 1.0


class TestIntervalInnerMin:
    @staticmethod
    def vertex_oracle(lower, upper, v):
        """Exhaustive minimum of v @ p over the interval simplex: every
        vertex fixes all coordinates at a bound except at most one, which
        absorbs the remaining mass."""
        n = len(v)
        best = None
        for free in range(-1, n):
            fixed = [i for i in range(n) if i != free]
            for bits in range(2 ** len(fixed)):
                p = np.empty(n)
                for b, i in enumerate(fixed):
                    p[i] = upper[i] if (bits >> b) & 1 else lower[i]
                if free >= 0:
                    rest = 1.0 - p[fixed].sum()
                    if rest < lower[free] - 1e-12 or rest > upper[free] + 1e-12:
                        continue
                    p[free] = rest
                elif abs(p.sum() - 1.0) > 1e-12:
                    continue
                val = float(p @ v)
                if best is None or val < best:
                    best = val
        return best

    @staticmethod
    def random_feasible(rng, n):
        lower = rng.uniform(0, 1, n)
        lower *= rng.uniform(0, 1) / max(lower.sum(), 1e-12)
        upper = lower + rng.uniform(0, 1, n) * (1 - lower)
        if upper.sum() < 1.0:
            upper[rng.integers(n)] = min(1.0, upper[rng.integers(n)] + 1.0)
            upper = np.minimum(np.maximum(upper, lower), 1.0)
            upper[rng.integers(n)] = 1.0
        return lower, upper

    def test_matches_vertex_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(2, 5))
            lower, upper = self.random_feasible(rng, n)
            v = rng.uniform(-1, 2, n)
            p, val = imp_inner_min(lower, upper, v)
            assert np.all(p >= lower - 1e-12) and np.all(p <= upper + 1e-12)
            assert abs(p.sum() - 1.0) < 1e-9
            assert val == pytest.approx(self.vertex_oracle(lower, upper, v), abs=1e-10)

    def test_zero_width_returns_the_point(self):
        p = np.array([0.2, 0.5, 0.3])
        v = np.array([1.0, 0.0, 0.5])
        got_p, got_val = imp_inner_min(p, p, v)
        assert np.array_equal(got_p, p)
        assert got_val == pytest.approx(float(p @ v), abs=1e-15)

    def test_mass_goes_to_smallest_values_first(self):
        lower = np.array([0.1, 0.1, 0.1])
        upper = np.array([1.0, 1.0, 1.0])
        v = np.array([0.9, 0.1, 0.5])
        p, val = imp_inner_min(lower, upper, v)
        assert np.allclose(p, [0.1, 0.8, 0.1])
        assert val == pytest.approx(0.9 * 0.1 + 0.1 * 0.8 + 0.5 * 0.1)

    def test_ties_resolved_by_index(self):
        lower = np.zeros(3)
        upper = np.ones(3)
        v = np.array([0.5, 0.5, 0.5])
        p, _ = imp_inner_min(lower, upper, v)
        assert np.array_equal(p, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("lengths", [(3, 1, 3), (3, 3, 2), (2, 3, 3)])
    def test_unequal_lengths_rejected(self, lengths):
        """Unequal lengths would end in an IndexError, or broadcast into a
        misleading infeasibility message."""
        lower, upper, v = (np.full(k, 0.5) for k in lengths)
        a, b, c = lengths
        with pytest.raises(ValueError, match=re.escape(f"shapes ({a},), ({b},) and ({c},)")):
            imp_inner_min(lower, upper, v)

    def test_infeasible_inputs_rejected(self):
        with pytest.raises(ValueError):
            imp_inner_min(np.array([0.6, 0.6]), np.array([1.0, 1.0]), np.zeros(2))
        with pytest.raises(ValueError):
            imp_inner_min(np.array([0.0, 0.0]), np.array([0.3, 0.3]), np.zeros(2))
        with pytest.raises(ValueError):
            imp_inner_min(np.array([0.5]), np.array([0.4]), np.zeros(1))


class TestOrderMaxKernel:
    """The row-batched kernel against the scalar reference ``loop_inner_min``."""

    @staticmethod
    def interval_rows(rng, n_rows, n):
        """Feasible interval rows around sparse random distributions, with
        zero-width rows, zero-budget rows (lower sums to 1) and wide rows
        whose budget runs through several column chunks."""
        phat = rng.exponential(size=(n_rows, n)) * (rng.uniform(size=(n_rows, n)) < 0.2)
        phat[:, 0] += 1e-3
        phat /= phat.sum(axis=1, keepdims=True)
        r = rng.uniform(0.0, 0.02, size=(n_rows, 1))
        lower = np.clip(phat - r, 0.0, 1.0)
        upper = np.clip(phat + r, 0.0, 1.0)
        lower[0] = upper[0] = phat[0]                # zero width
        lower[1] = 0.0                               # lower sums to exactly 1
        lower[1, 0] += 0.5
        lower[1, -1] += 0.5
        upper[1] = np.minimum(lower[1] + 0.1, 1.0)
        lower[2], upper[2] = 0.0, min(1.5 / n, 1.0)  # budget reaches 2n/3 columns
        lower[3], upper[3] = 0.0, 1.0                # all mass to the first column
        return lower, upper

    @staticmethod
    def values(rng, n):
        """Negative entries and ties: values drawn from a few levels."""
        return rng.choice(rng.uniform(-1.0, 2.0, size=max(n // 4, 2)), size=n)

    @pytest.mark.parametrize("n", [1, 5, 40, 300])
    def test_batch_matches_scalar_reference(self, n):
        rng = np.random.default_rng(n)
        lower, upper = self.interval_rows(rng, 12, n)
        rows = np.arange(12)
        for _ in range(5):
            v = self.values(rng, n)
            order = np.argsort(v, kind="stable")
            budget = np.maximum(1.0 - lower.sum(axis=1), 0.0)
            p = lower.copy()
            got = _order_max(explicit(lower, upper), rows, v, order, budget, lower @ v, p)
            for i in rows:
                want_p, want = loop_inner_min(lower[i], upper[i], v, order)
                assert abs(got[i] - want) <= 1e-12
                assert np.max(np.abs(p[i] - want_p)) <= 1e-12

    def test_single_row_matches_scalar_reference(self):
        rng = np.random.default_rng(8)
        lower, upper = self.interval_rows(rng, 8, 200)
        for i in range(8):
            v = self.values(rng, 200)
            p, val = imp_inner_min(lower[i], upper[i], v)
            want_p, want = loop_inner_min(lower[i], upper[i], v, np.argsort(v, kind="stable"))
            assert abs(val - want) <= 1e-12
            assert np.max(np.abs(p - want_p)) <= 1e-12

    def test_subset_of_rows(self):
        rng = np.random.default_rng(9)
        lower, upper = self.interval_rows(rng, 10, 60)
        rows = np.array([7, 2, 3, 9])
        v = self.values(rng, 60)
        order = np.argsort(v, kind="stable")
        budget = np.maximum(1.0 - lower[rows].sum(axis=1), 0.0)
        got = _order_max(explicit(lower, upper), rows, v, order, budget, (lower @ v)[rows])
        want = [loop_inner_min(lower[i], upper[i], v, order)[1] for i in rows]
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_value_iteration_matches_scalar_reference(self):
        part = build_partition(UNIT_SQUARE, (12, 12))
        probs = empirical_cell_probs(part, fitted_dp())
        model = IntervalModel.from_radii(probs, 0.01)
        got = imp_value_iteration(model, part, 6)
        assert np.max(got) > 0.1
        assert np.max(np.abs(got - loop_value_iteration(model, part, 6))) <= 1e-12

    def test_infeasible_row_past_the_first_block_is_named(self):
        n = 300
        phat = np.full((n, n), 1.0 / n)
        phat[280, :2] = 0.6
        with pytest.raises(ValueError, match="row 280: sum of lower bounds"):
            IntervalModel.from_radii(phat, 0.5 / n)

    @pytest.mark.parametrize("counts", [(20, 20), (23, 29)])
    def test_value_iteration_matches_dense_bounds(self, counts, one_blas_thread):
        """Over more than one row block with a partial last one (400 cells:
        256 + 144; 667: 256 + 256 + 155), bounds read off the matrix give
        the bytes of explicit bound matrices.  lower @ v taken over the
        gathered safe rows alone moves the last bits of some values at 400
        cells."""
        part = build_partition(UNIT_SQUARE, counts)
        probs = empirical_cell_probs(part, fitted_dp())
        radius = 1.0 / part.n_cells
        got = imp_value_iteration(IntervalModel.from_radii(probs, radius), part, 6)
        assert np.max(got) > 0.1
        assert got.tobytes() == dense_value_iteration(probs, radius, part, 6).tobytes()


class TestIntervalModel:
    def test_from_radii_clips_to_unit_interval(self):
        phat = np.array([[0.95, 0.05], [0.5, 0.5]])
        model = IntervalModel.from_radii(phat, 0.1)
        lower, upper = model.bounds(slice(None))
        assert np.all(upper <= 1.0) and np.all(lower >= 0.0)
        assert upper[0, 0] == 1.0
        assert lower[0, 1] == 0.0
        assert np.array_equal(model.bounds(np.array([1]))[1], [[0.6, 0.6]])

    def test_infeasible_rows_rejected(self):
        with pytest.raises(ValueError, match="row 0: sum of lower bounds 1.2 > 1"):
            IntervalModel.from_radii(np.array([[0.8, 0.5], [0.5, 0.5]]), 0.05)
        with pytest.raises(ValueError, match="row 1: sum of upper bounds 0.5 < 1"):
            IntervalModel.from_radii(np.array([[0.5, 0.5], [0.2, 0.2]]), 0.05)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_bounds_rejected(self, side, bad):
        """A NaN bound passes every feasibility comparison, and the clip of
        phat -+ radius would turn an infinite entry into a finite bound; the
        entry is named, of the empirical matrix or of the explicit bounds."""
        phat = np.full((3, 3), 1.0 / 3.0)
        phat[2, 1] = bad
        with pytest.raises(ValueError, match=rf"phat\[2,1\] = {bad} is not finite"):
            IntervalModel.from_radii(phat, 0.1)
        bounds = {"lower": np.full(3, 0.2), "upper": np.full(3, 0.5)}
        bounds[side][1] = bad
        with pytest.raises(ValueError, match=rf"{side}\[0,1\] = {bad} is not finite"):
            imp_inner_min(bounds["lower"], bounds["upper"], np.zeros(3))

    @pytest.mark.parametrize("phat", [np.full((2, 3), 1.0 / 3.0), np.full(3, 1.0 / 3.0),
                                      np.float64(1.0)])
    def test_non_square_matrix_rejected(self, phat):
        with pytest.raises(ValueError, match=rf"must be square, not of shape {re.escape(str(phat.shape))}"):
            IntervalModel.from_radii(phat, 0.1)

    def test_matrix_held_by_reference_and_never_written(self):
        """A read-only matrix is accepted, held without a copy and left as it was."""
        part = build_partition(UNIT_SQUARE, (17, 17))
        probs = empirical_cell_probs(part, fitted_dp())
        before = probs.tobytes()
        probs.setflags(write=False)
        model = IntervalModel.from_radii(probs, 0.01)
        assert model.phat is probs
        imp_value_iteration(model, part, 4)
        assert probs.tobytes() == before

    def test_holds_less_than_one_extra_cell_matrix(self, wide_model):
        """At 1600 cells one n x n array is 20.5 MB; building the model and
        iterating hold the budgets, one block of bounds and one chunk of
        order-maximisation beside the caller's matrix, where two explicit
        bound matrices would be 41 MB."""
        part, dp_model = build_partition(UNIT_SQUARE, (40, 40)), wide_model
        probs = empirical_cell_probs(part, dp_model)
        small = build_partition(UNIT_SQUARE, (2, 2))
        imp_value_iteration(IntervalModel.from_radii(np.eye(4), 0.01), small, 2)  # imports done
        tracemalloc.start()
        try:
            imp_value_iteration(IntervalModel.from_radii(probs, 0.002), part, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < probs.nbytes

    def test_thin_rows_hold_a_few_row_blocks(self):
        """Uniform 1/n rows with radius 0.5/n keep budget to the last column,
        so every row stays active through the widest chunk of
        order-maximisation (n/2 columns); each chunk runs one block of
        _ROW_BLOCK rows at a time, so the iteration holds a few (_ROW_BLOCK,
        n) arrays beside the 20.5 MB matrix, where whole chunks took 28.7 MB."""
        part = build_partition(UNIT_SQUARE, (40, 40))
        n = part.n_cells
        probs = np.full((n, n), 1.0 / n)
        small = build_partition(UNIT_SQUARE, (2, 2))
        imp_value_iteration(IntervalModel.from_radii(np.eye(4), 0.01), small, 2)  # imports done
        tracemalloc.start()
        try:
            v = imp_value_iteration(IntervalModel.from_radii(probs, 0.5 / n), part, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all((v >= 0) & (v <= 1)) and np.any(v > 0)
        assert peak < 4 * _ROW_BLOCK * n * 8 < probs.nbytes

    @pytest.mark.parametrize("radius", [np.nan, [[0.1, np.nan], [0.1, 0.1]], -0.1,
                                        np.full((2, 2), 0.1), np.full((2, 1), 0.1)])
    def test_negative_or_nan_radius_rejected(self, radius):
        """NaN bounds pass every feasibility comparison, so a NaN radius is
        refused where the bounds are made.  A radius per entry or per row is
        refused as an array, naming its shape."""
        shape = np.shape(radius)
        named = rf"not an array of shape {re.escape(str(shape))}" if shape else "radius must be nonnegative"
        with pytest.raises(ValueError, match=named):
            IntervalModel.from_radii(np.array([[0.5, 0.5], [0.5, 0.5]]), radius)


class TestValueIterations:
    def test_imp_partition_must_match_the_model(self):
        model = IntervalModel.from_radii(np.full((9, 9), 1.0 / 9.0), 0.01)
        with pytest.raises(ValueError, match="9 cells, the partition 16"):
            imp_value_iteration(model, build_partition(UNIT_SQUARE, (4, 4)), 2)

    @pytest.mark.parametrize("shape", [(9, 9), (16, 9), (16,)])
    def test_ssr_probs_must_match_the_partition(self, shape):
        probs = np.full(shape, 1.0 / shape[-1])
        with pytest.raises(ValueError, match=rf"probs of shape {re.escape(str(shape))}, not \(16, 16\)"):
            ssr_backward(probs, build_partition(UNIT_SQUARE, (4, 4)), SsrParams(), 2)

    def test_imp_unsafe_cells_pinned_to_zero(self):
        part = build_partition(UNIT_SQUARE, (4, 4))
        probs = empirical_cell_probs(part, fitted_dp())
        model = IntervalModel.from_radii(probs, 0.05)
        v = imp_value_iteration(model, part, 6)
        assert np.all(v[~part.safe_flags] == 0.0)
        assert np.all((v >= 0) & (v <= 1))

    def test_imp_horizon_zero_is_the_flag_vector(self):
        part = build_partition(UNIT_SQUARE, (4, 4))
        probs = empirical_cell_probs(part, fitted_dp())
        model = IntervalModel.from_radii(probs, 0.05)
        assert np.array_equal(imp_value_iteration(model, part, 0), part.safe_flags.astype(float))

    def test_wider_intervals_never_help(self):
        part = build_partition(UNIT_SQUARE, (4, 4))
        probs = empirical_cell_probs(part, fitted_dp())
        narrow = imp_value_iteration(IntervalModel.from_radii(probs, 0.02), part, 5)
        wide = imp_value_iteration(IntervalModel.from_radii(probs, 0.10), part, 5)
        assert np.all(wide <= narrow + 1e-12)

    def test_zero_width_imp_equals_ssr_on_aligned_geometry(self):
        """The obstacle sits strictly inside one cell, so whole-cell flags
        and center membership agree and the two recursions coincide."""
        part = build_partition(UNIT_SQUARE, (4, 4))
        assert np.array_equal(part.safe_flags, part.center_safe)
        dp_model = fitted_dp()
        probs = empirical_cell_probs(part, dp_model)
        v_imp = imp_value_iteration(IntervalModel.from_radii(probs, 0.0), part, 7)
        v_ssr = ssr_value_iteration(part, dp_model, SsrParams(delta=0.0), 7)
        assert np.max(np.abs(v_imp - v_ssr)) < 1e-10

    def test_imp_never_exceeds_ssr_at_zero_slack(self, region, small_pairs, dp_spec):
        """imp takes the worst case in an interval around the rows ssr uses,
        and its terminal flags are the stricter whole-cell ones."""
        part = build_partition(region, (12, 12))
        dp_model = fit_dp(dp_spec, small_pairs, region)
        probs = empirical_cell_probs(part, dp_model)
        v_imp = imp_value_iteration(IntervalModel.from_radii(probs, 0.01), part, 6)
        v_ssr = ssr_value_iteration(part, dp_model, SsrParams(delta=0.0), 6)
        assert np.max(v_imp) > 0.1
        assert np.all(v_imp <= v_ssr + 1e-12)

    def test_ssr_slack_only_lowers_values(self):
        part = build_partition(UNIT_SQUARE, (4, 4))
        dp_model = fitted_dp()
        v0 = ssr_value_iteration(part, dp_model, SsrParams(delta=0.0), 5)
        v1 = ssr_value_iteration(part, dp_model, SsrParams(delta=0.05), 5)
        v2 = ssr_value_iteration(part, dp_model, SsrParams(delta=0.2), 5)
        assert np.all(v1 <= v0 + 1e-12)
        assert np.all(v2 <= v1 + 1e-12)

    def test_invalid_slack_rejected(self):
        part = build_partition(UNIT_SQUARE, (3, 3))
        with pytest.raises(ValueError):
            ssr_value_iteration(part, fitted_dp(), SsrParams(delta=-0.1), 2)
        # one slack per cell is refused when the parameters are built
        with pytest.raises(ValueError, match=r"delta must be one number, not an array of shape \(9,\)"):
            SsrParams(delta=np.linspace(0, 0.1, part.n_cells))


class TestEvaluation:
    def test_lookup_and_out_of_box(self):
        part = build_partition(UNIT_SQUARE, (4, 4))
        v0 = np.arange(16, dtype=float) / 16
        idx, _ = part.locate(np.array([[0.9, 0.9]]))
        batch = evaluate_abstraction(v0, part, np.array([[0.9, 0.9], [1.5, 0.5]]))
        assert batch.tolist() == [v0[idx[0]], 0.0]
