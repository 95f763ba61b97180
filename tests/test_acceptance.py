"""Release acceptance suite.

Each test covers one numbered acceptance criterion, prints a single
PASS/FAIL line with the measured quantities, and asserts the documented
tolerance.  Run with

    pytest tests/test_acceptance.py -v -s

to watch the lines appear as the checks finish.  The desk-scale sweep
behind the first three criteria fits 30 direct and 20 dp models plus the
Monte Carlo reference grids and takes a couple of minutes; everything else
completes in seconds.
"""

import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from safecert import (
    DpModel,
    KernelSpec,
    OneStepPairs,
    SafeRegion,
    SynthSystemParams,
    backward_value,
    brier_decomposition_mc,
    calibrate,
    certified_lower_bound,
    check_barrier,
    default_kernel_spec,
    default_safe_region,
    eval_grid,
    evaluate_dp,
    excess_rmse,
    extract_onestep_pairs,
    fit_direct,
    fit_dp,
    gen_dataset,
    imp_inner_min,
    mc_ground_truth,
    predict,
    rmse,
    smoothed_safety,
    spectral_decay,
    uniform_mc_oracle,
)
from safecert.cli import main

from golden.regen import GOLDEN, compare, manifest
from test_barrier import (
    LINE_1D,
    SIGMA_W,
    X0_BOX,
    contraction_pairs,
    contraction_rollout,
    quadratic_candidate,
)

SEEDS = tuple(range(1, 11))
SWEEP_T = 15
SWEEP_N = 300
SWEEP_NMC = 300
ALPHAS_DIRECT = (0.0, 0.5, 0.95)
ALPHAS_DP = (0.0, 0.95)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


@dataclass
class CellMetrics:
    rmse: float
    excess: float
    rel: float


@pytest.fixture(scope="session")
def desk_sweep():
    """Shared desk-scale sweep: seeds 1-10, T=15, 20x20 grid, N_MC=300.

    Direct models are fit on N=300 trajectories per cell; dp models on
    N_hat = 300*T iid one-step pairs, both with the shipped tuned kernels.
    Estimates are clipped to [0, 1] before scoring, matching the pipeline.
    """
    region = default_safe_region()
    grid = eval_grid(region, (20, 20))
    cells: dict[tuple[str, float, int], CellMetrics] = {}
    t0 = time.perf_counter()
    for seed in SEEDS:
        for alpha in ALPHAS_DIRECT:
            params = SynthSystemParams(alpha=alpha)
            truth = mc_ground_truth(params, region, grid, SWEEP_T, SWEEP_NMC, seed).p_mc
            ts = gen_dataset(params, region, SWEEP_N, SWEEP_T, seed)
            dm = fit_direct(default_kernel_spec("direct", SWEEP_T, "iid"), ts, region)
            est = np.clip(predict(dm, grid), 0.0, 1.0)
            cells[("direct", alpha, seed)] = CellMetrics(
                rmse=rmse(est, truth),
                excess=excess_rmse(est, truth),
                rel=brier_decomposition_mc(est, truth, n_bins=10).rel,
            )
            if alpha in ALPHAS_DP:
                pairs = extract_onestep_pairs(
                    ts, SWEEP_N * SWEEP_T, "iid", seed, params=params, region=region
                )
                pm = fit_dp(default_kernel_spec("dp", SWEEP_T, "iid"), pairs, region)
                est = np.clip(evaluate_dp(pm, backward_value(pm, SWEEP_T), grid), 0.0, 1.0)
                cells[("dp", alpha, seed)] = CellMetrics(
                    rmse=rmse(est, truth),
                    excess=excess_rmse(est, truth),
                    rel=brier_decomposition_mc(est, truth, n_bins=10).rel,
                )
    return {"cells": cells, "elapsed": time.perf_counter() - t0}


class TestSweepCriteria:
    def test_c01_non_markov_degradation(self, desk_sweep):
        cells = desk_sweep["cells"]
        d0 = np.array([cells[("direct", 0.0, s)].rmse for s in SEEDS])
        d95 = np.array([cells[("direct", 0.95, s)].rmse for s in SEEDS])
        p95 = np.array([cells[("dp", 0.95, s)].rmse for s in SEEDS])
        direct_ok = int(np.sum(d95 <= 1.5 * d0))
        dp_ok = int(np.sum(p95 >= 2.0 * d95))
        seeds_ok = int(np.sum((d95 <= 1.5 * d0) & (p95 >= 2.0 * d95)))
        mean_ok = d95.mean() <= 1.5 * d0.mean() and p95.mean() >= 2.0 * d95.mean()
        elapsed = desk_sweep["elapsed"]
        ok = seeds_ok >= 8 and mean_ok and elapsed <= 600.0
        _verdict(
            1,
            "non-markov degradation",
            ok,
            f"direct rmse a0={d0.mean():.4f} a95={d95.mean():.4f} "
            f"({direct_ok}/10 seeds <=1.5x), dp a95={p95.mean():.4f} "
            f"({dp_ok}/10 seeds >=2x direct), both {seeds_ok}/10, "
            f"sweep {elapsed:.0f}s",
        )

    def test_c02_direct_reliability(self, desk_sweep):
        cells = desk_sweep["cells"]
        rels = {
            alpha: np.array([cells[("direct", alpha, s)].rel for s in SEEDS])
            for alpha in ALPHAS_DIRECT
        }
        means = {alpha: float(r.mean()) for alpha, r in rels.items()}
        worst = max(float(r.max()) for r in rels.values())
        ok = all(m <= 0.02 for m in means.values())
        _verdict(
            2,
            "direct reliability",
            ok,
            "mean REL "
            + " ".join(f"a{alpha:g}={means[alpha]:.4f}" for alpha in ALPHAS_DIRECT)
            + f", per-seed max {worst:.4f}, threshold 0.02",
        )

    def test_c03_overestimation_attribution(self, desk_sweep):
        cells = desk_sweep["cells"]
        ratios = np.array(
            [
                cells[("dp", 0.95, s)].excess / cells[("dp", 0.95, s)].rmse
                for s in SEEDS
            ]
        )
        n_ok = int(np.sum(ratios >= 0.8))
        _verdict(
            3,
            "overestimation attribution",
            n_ok >= 8,
            f"dp a0.95 excess/rmse mean {ratios.mean():.3f}, "
            f"min {ratios.min():.3f}, {n_ok}/10 seeds >= 0.8",
        )


CHAIN_P = np.array(
    [
        [0.5, 0.3, 0.1, 0.1],
        [0.0, 0.6, 0.2, 0.2],
        [0.1, 0.1, 0.7, 0.1],
        [0.0, 0.0, 0.0, 1.0],
    ]
)
CHAIN_SAFE = np.array([1.0, 1.0, 1.0, 0.0])


def chain_value_oracle(P: np.ndarray, safe: np.ndarray, T: int) -> np.ndarray:
    """Matrix-power recursion V_0 = (diag(safe) P)^T applied to diag(safe) 1."""
    v = safe.astype(float).copy()
    for _ in range(T):
        v = safe * (P @ v)
    return v


class TestExactOracles:
    def test_c04_dp_matrix_power_equivalence(self):
        model = DpModel.from_transfer(CHAIN_P, CHAIN_SAFE)
        worst = 0.0
        for T in (1, 5, 20):
            got = backward_value(model, T)[0].v
            want = chain_value_oracle(CHAIN_P, CHAIN_SAFE, T)
            worst = max(worst, float(np.max(np.abs(got - want))))
        _verdict(
            4,
            "dp matrix-power equivalence",
            worst <= 1e-10,
            f"max |backward - matrix power| = {worst:.3e} over T in {{1, 5, 20}}",
        )

    @staticmethod
    def _vertex_min(lower: np.ndarray, upper: np.ndarray, v: np.ndarray) -> float:
        """Exhaustive vertex enumeration for min p@v over the interval simplex.

        Every vertex fixes each coordinate at its lower or upper bound except
        at most one free coordinate that absorbs the remaining mass.
        """
        n = lower.size
        best = np.inf
        for pattern in itertools.product((0, 1), repeat=n):
            p = np.where(pattern, upper, lower)
            s = p.sum()
            if abs(s - 1.0) <= 1e-12:
                best = min(best, float(p @ v))
            for free in range(n):
                q = p.copy()
                q[free] = 1.0 - (s - p[free])
                if lower[free] - 1e-12 <= q[free] <= upper[free] + 1e-12:
                    best = min(best, float(q @ v))
        return best

    @staticmethod
    def _random_feasible(rng: np.random.Generator, n: int):
        while True:
            lower = rng.uniform(0.0, 1.0, n)
            s = lower.sum()
            if s > 0:
                lower *= rng.uniform(0.0, 1.0) / s
            upper = lower + rng.uniform(0.0, 1.0, n) * (1.0 - lower)
            if upper.sum() >= 1.0 + 1e-9:
                return lower, upper

    def test_c05_imp_inner_minimization(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 5))
            lower, upper = self._random_feasible(rng, n)
            v = rng.uniform(-1.0, 2.0, n)
            _, got = imp_inner_min(lower, upper, v)
            want = self._vertex_min(lower, upper, v)
            worst = max(worst, abs(got - want))

        # Zero-width intervals collapse the robust recursion onto the exact
        # chain DP of the previous criterion.
        chain_worst = 0.0
        for T in (1, 5, 20):
            v = CHAIN_SAFE.copy()
            for _ in range(T):
                v = CHAIN_SAFE * np.array(
                    [imp_inner_min(row, row, v)[1] for row in CHAIN_P]
                )
            want = chain_value_oracle(CHAIN_P, CHAIN_SAFE, T)
            chain_worst = max(chain_worst, float(np.max(np.abs(v - want))))

        ok = worst <= 1e-12 and chain_worst <= 1e-12
        _verdict(
            5,
            "imp inner minimization",
            ok,
            f"1000 instances n<=4 max |order-max - vertex enum| = {worst:.3e}; "
            f"zero-width vs chain DP = {chain_worst:.3e}",
        )


class TestCalibrationCriteria:
    def test_c06_coverage(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        misses = 0
        reps = 500
        for _ in range(reps):
            p = rng.uniform(0.0, 1.0, 500)
            y = (rng.uniform(0.0, 1.0, 500) < p).astype(float)
            cal = calibrate(p, y, n_bins=10, delta_conf=0.1)
            p_test = float(rng.uniform(0.0, 1.0))
            bound = float(certified_lower_bound(cal, np.array([p_test]))[0])
            if p_test < bound:
                misses += 1
        elapsed = time.perf_counter() - t0
        rate = misses / reps
        ok = rate <= 0.13 and elapsed <= 60.0
        _verdict(
            6,
            "calibration coverage",
            ok,
            f"miscoverage {rate:.3f} over {reps} replicates "
            f"(threshold 0.13), {elapsed:.1f}s",
        )

    def test_c07_hoeffding_width(self):
        rng = np.random.default_rng(3)
        scores = (np.arange(1000) + 0.5) / 1000.0
        outcomes = (rng.uniform(0, 1, 1000) < scores).astype(float)
        cal = calibrate(scores, outcomes, n_bins=10, delta_conf=0.1)
        want = math.sqrt(math.log(10 / 0.1) / (2 * 100))
        counts_ok = cal.counts.tolist() == [100] * 10
        worst = float(np.max(np.abs(cal.widths - 0.15174)))
        ok = counts_ok and worst <= 1e-5
        _verdict(
            7,
            "hoeffding width",
            ok,
            f"10 bins of 100, widths within {worst:.2e} of 0.15174 "
            f"(exact {want:.6f})",
        )

    def test_c08_brier_murphy_identity(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(20, 300))
            scores = rng.uniform(0, 1, n)
            outcomes = (rng.uniform(0, 1, n) < rng.uniform(0, 1, n)).astype(float)
            rep = brier_decomposition_mc(scores, outcomes, n_bins=int(rng.integers(2, 15)))
            worst = max(worst, abs(rep.brier_binned - (rep.rel - rep.res + rep.unc)))
        _verdict(
            8,
            "brier-murphy identity",
            worst <= 1e-12,
            f"max |binned brier - (REL - RES + UNC)| = {worst:.3e} over 100 sets",
        )


class TestNumericCriteria:
    def test_c09_smoothing_quadrature(self):
        region = SafeRegion(low=(0.0,), high=(1.0,), obstacles=())
        points = np.array([[0.15], [0.5], [0.97]])
        worst = 0.0
        for gamma_n in (0.05, 0.2, 0.8):
            got = smoothed_safety(region, points[:, None, :], gamma_n, order=1)
            std = gamma_n / math.sqrt(2.0)
            for x, g in zip(points[:, 0], got):
                val, err = quad(
                    lambda u, x=x: math.exp(-((u - x) ** 2) / (2 * std * std))
                    / (std * math.sqrt(2 * math.pi)),
                    0.0,
                    1.0,
                    epsabs=1e-12,
                    epsrel=1e-12,
                )
                assert err < 1e-9
                worst = max(worst, abs(float(g) - val))
        _verdict(
            9,
            "smoothing quadrature",
            worst <= 1e-6,
            f"max |closed form - quad| = {worst:.3e} over 3 bandwidths x 3 points",
        )

    @staticmethod
    def _random_model(seed: int, lam: float) -> DpModel:
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2, 2, size=(20, 2))
        x_next = x + 0.3 * rng.standard_normal((20, 2))
        region = SafeRegion(
            low=(-4.0, -4.0), high=(4.0, 4.0), obstacles=(((1.0, 1.0), (2.0, 2.0)),)
        )
        pairs = OneStepPairs(x=x, x_next=x_next)
        return fit_dp(KernelSpec.isotropic(0.8, 2, lam), pairs, region)

    def test_c10_spectral_diagnostic(self):
        worst = 0.0
        contracting: list[DpModel] = []
        # near-interpolating ridges expand, strong ridges contract; both must
        # agree with a dense eigensolver
        for seed in range(15):
            for lam in (1e-4, 0.05):
                model = self._random_model(seed, lam)
                est = spectral_decay(model, T=10)
                dense = float(
                    np.max(
                        np.abs(
                            np.linalg.eigvals(
                                model.safe_mask_next[:, None] * model.transfer
                            )
                        )
                    )
                )
                worst = max(worst, abs(est.rho - dense))
                if est.rho < 1.0:
                    contracting.append(model)

        decays_ok = len(contracting) >= 10
        for model in contracting[:3]:
            seq = [spectral_decay(model, T).rho_pow_T for T in (1, 2, 5, 10, 50)]
            decays_ok = decays_ok and all(a > b for a, b in zip(seq, seq[1:]))
        ok = worst <= 1e-8 and decays_ok
        _verdict(
            10,
            "spectral diagnostic",
            ok,
            f"max |power iter - dense eig| = {worst:.3e} over 30 models "
            f"(20x20 transfer), {len(contracting)} with rho<1, rho^T decay monotone",
        )

    def test_c11_barrier_soundness(self):
        dp_model = fit_dp(KernelSpec.isotropic(0.4, 1, 1e-6), contraction_pairs(500, 3), LINE_1D)
        cand = quadratic_candidate()
        details = []
        sound = True
        for T in (5, 20):
            rep = check_barrier(cand, dp_model, LINE_1D, X0_BOX, T, grids=41)
            oracle = uniform_mc_oracle(
                contraction_rollout, LINE_1D, X0_BOX, T, n_mc=4000, seed=5
            )
            assert rep.feasible
            ceiling = oracle.value + 3.0 * max(oracle.stderr, math.sqrt(0.25 / 4000))
            sound = sound and rep.bound <= ceiling
            details.append(f"T={T}: bound {rep.bound:.4f} <= mc {oracle.value:.4f}+3se")
        bounds = [check_barrier(cand, dp_model, LINE_1D, X0_BOX, T, grids=41).bound
                  for T in (1, 5, 10, 20)]
        beta = check_barrier(cand, dp_model, LINE_1D, X0_BOX, 5, grids=41).beta
        decreasing = all(a > b for a, b in zip(bounds, bounds[1:]))
        ok = sound and beta > 0 and decreasing
        _verdict(
            11,
            "barrier soundness",
            ok,
            "; ".join(details) + f"; beta {beta:.4f} > 0, bounds strictly decrease "
            f"{' > '.join(f'{b:.4f}' for b in bounds)}",
        )


SWEEP_CONFIG = """
system.alphas = 0.0, 0.95
horizons = 3
seeds = 1, 2
methods = direct, dp, imp, ssr, barrier
data.n_trajectories = 40
data.n_calibration = 60
data.mode = iid
grid.nx = 6
grid.ny = 6
mc.rollouts = 50
abstraction.nx = 5
abstraction.ny = 5
calibration.bins = 5
"""


class TestPipelineCriteria:
    def test_c12_sweep_determinism(self, tmp_path: Path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_CONFIG)

        def digest(root: Path) -> dict[str, str]:
            import hashlib

            return {
                str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        code1 = main(["sweep", "--config", str(cfg), "--out", str(out1)])
        code2 = main(["sweep", "--config", str(cfg), "--out", str(out2)])
        d1, d2 = digest(out1), digest(out2)
        # the first run against the checked-in outputs of the code that made them
        problems, _ = compare(json.loads(GOLDEN.read_text()), manifest(out1))
        ok = code1 == 0 and code2 == 0 and d1 == d2 and len(d1) > 0 and not problems
        n_diff = sum(1 for k in d1 if d2.get(k) != d1[k]) + len(set(d2) - set(d1))
        _verdict(
            12,
            "sweep determinism",
            ok,
            f"{len(d1)} files byte-identical across reruns ({n_diff} differ); "
            f"{len(problems)} mismatches with {GOLDEN.name}"
            + "".join(f"; {p}" for p in problems[:5]),
        )
