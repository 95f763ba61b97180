"""The three benchmark workloads: inputs from a seed, one timed pass, output checks.

Each workload is a safecert config text plus the workload seed.  ``setup``
turns them into the program's inputs (datasets and Monte Carlo truth for the
library workloads, the config file for the staged CLI); ``run_pass`` is the
timed part and returns the accuracy of what it produced.  Every call into
safecert goes through a module attribute looked up at call time, so the
traced run's wrappers see it.

Why these three (README.md has the layer map):

* desk-dp  -- kernel ridge fits at the acceptance desk scale (M = 4500); the
  fit-dominated use of ``kernels`` and ``dp``, with no I/O in the timed part.
* pipeline -- the staged CLI end to end on small fits (M <= 1000); the only
  workload timing data generation, the MC oracle, CSV I/O and calibration,
  and the only one whose cells share fit inputs (22 of 28 fits repeat).
* diag     -- abstraction, barrier and spectral routes on dependent pairs;
  ``spectral_decay`` applies the dp operator hundreds of times where the
  backward pass applies it T times.
"""

from __future__ import annotations

import csv
import math
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import safecert.abstraction
import safecert.barrier
import safecert.benchmark
import safecert.cli
import safecert.config
import safecert.direct
import safecert.dp
import safecert.metrics

# config texts per workload and scale; "{seed}" is the workload seed
CONFIGS = {
    ("desk-dp", "full"): """
        system.alphas = 0.0, 0.95
        horizons = 15
        seeds = {seed}
        methods = direct, dp
        data.n_trajectories = 300
        data.n_pairs = 4500
        grid.nx = 20
        grid.ny = 20
        mc.rollouts = 300
    """,
    ("desk-dp", "toy"): """
        system.alphas = 0.0, 0.95
        horizons = 5
        seeds = {seed}
        methods = direct, dp
        data.n_trajectories = 40
        data.n_pairs = 200
        grid.nx = 6
        grid.ny = 6
        mc.rollouts = 30
    """,
    ("pipeline", "full"): """
        system.alphas = 0.0, 0.95
        horizons = 5, 10
        seeds = {seed}
        methods = direct, dp, imp, ssr, barrier
        data.n_trajectories = 1000
        data.n_pairs = 1000
        data.n_calibration = 1000
        grid.nx = 20
        grid.ny = 20
        mc.rollouts = 1000
    """,
    ("pipeline", "toy"): """
        system.alphas = 0.0, 0.95
        horizons = 3, 5
        seeds = {seed}
        methods = direct, dp, imp, ssr, barrier
        data.n_trajectories = 40
        data.n_pairs = 80
        data.n_calibration = 60
        grid.nx = 5
        grid.ny = 5
        mc.rollouts = 20
        abstraction.nx = 5
        abstraction.ny = 5
    """,
    ("diag", "full"): """
        system.alphas = 0.0, 0.95
        horizons = 10
        seeds = {seed}
        data.mode = dependent
        data.n_trajectories = 200
        data.n_pairs = 2000
        abstraction.nx = 40
        abstraction.ny = 40
        imp.radius = 0.002
        ssr.delta = 0.0
        grid.nx = 20
        grid.ny = 20
        mc.rollouts = 300
    """,
    ("diag", "toy"): """
        system.alphas = 0.0, 0.95
        horizons = 5
        seeds = {seed}
        data.mode = dependent
        data.n_trajectories = 30
        data.n_pairs = 150
        abstraction.nx = 8
        abstraction.ny = 8
        grid.nx = 6
        grid.ny = 6
        mc.rollouts = 30
        imp.radius = 0.002
        ssr.delta = 0.0
    """,
}

PIPELINE_METHODS = ("direct", "dp", "imp", "ssr")  # methods evaluate scores
V_TOL = 1e-12


class CellFailed(Exception):
    """An operation raised; the rest of its cell is skipped."""


@dataclass
class Ops:
    """Operations attempted and failed; an operation fails if it raises or
    its output check does not hold."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def call(self, what: str, fn, *args, check=None, **kwargs):
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # counted, reported, and the cell abandoned
            self.failed += 1
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            raise CellFailed(what) from exc
        if check is not None and not check(result):
            self.failed += 1
            self.failures.append(f"{what}: output check failed")
        return result

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: output check failed")


def config_text(workload: str, seed: int, scale: str) -> str:
    body = CONFIGS[(workload, scale)].format(seed=seed)
    return "\n".join(line.strip() for line in body.strip().splitlines()) + "\n"


def _finite(a) -> bool:
    return bool(np.all(np.isfinite(np.asarray(a, dtype=float))))


def _unit(a) -> bool:
    a = np.asarray(a, dtype=float)
    return bool(np.all(np.isfinite(a)) and np.all(a >= 0.0) and np.all(a <= 1.0))


def _params(cfg, alpha: float):
    return safecert.benchmark.SynthSystemParams(
        alpha=alpha, sigma=cfg["system.sigma"], h=cfg["system.h"],
        beta_c=cfg["system.beta_c"], gamma_c=cfg["system.gamma_c"],
    )


@dataclass
class Inputs:
    workload: str
    seed: int
    cfg: object
    work_dir: Path
    cells: list[dict] = field(default_factory=list)
    passes: int = 0


# ------------------------------------------------------------------ set-up

def setup(workload: str, seed: int, scale: str, work_dir: Path) -> Inputs:
    """Generate the workload's inputs from its seed; nothing here is timed as a pass."""
    text = config_text(workload, seed, scale)
    if workload == "pipeline":
        work_dir.mkdir(parents=True, exist_ok=True)
        (work_dir / "config.txt").write_text(text)
        cfg = safecert.config.load_config(work_dir / "config.txt")
        return Inputs(workload, seed, cfg, work_dir)

    cfg = safecert.config.load_config(text=text)
    bm = safecert.benchmark
    region = bm.default_safe_region()
    (T,) = cfg["horizons"]
    inputs = Inputs(workload, seed, cfg, work_dir)
    for k, alpha in enumerate(cfg["system.alphas"]):
        # desk-dp cells take seeds s, s+1: iid pairs and start states depend
        # on the seed only, so equal seeds would share inputs across alpha
        cell_seed = seed + k if workload == "desk-dp" else seed
        params = _params(cfg, alpha)
        ts = bm.gen_dataset(params, region, cfg["data.n_trajectories"], T, cell_seed)
        pairs = bm.extract_onestep_pairs(
            ts, cfg.n_pairs(T), cfg["data.mode"], cell_seed, params=params, region=region
        )
        grid = bm.eval_grid(region, (cfg["grid.nx"], cfg["grid.ny"]))
        truth = bm.mc_ground_truth(params, region, grid, T, cfg["mc.rollouts"], cell_seed).p_mc
        inputs.cells.append({"alpha": alpha, "seed": cell_seed, "T": T, "region": region,
                             "ts": ts, "pairs": pairs, "grid": grid, "truth": truth})
    return inputs


# ------------------------------------------------------------------ passes

def run_pass(inputs: Inputs, ops: Ops, span=None, cli_threads: int = 1) -> dict:
    """One timed pass over the workload's cells.

    Returns the accuracy of the estimates for the library workloads; for the
    pipeline it returns stage times and the output directory, which
    ``score_pass`` checks after the timer has stopped.
    """
    span = span or (lambda name: nullcontext())
    inputs.passes += 1
    if inputs.workload == "desk-dp":
        return _desk_pass(inputs, ops)
    if inputs.workload == "diag":
        return _diag_pass(inputs, ops)
    return _pipeline_pass(inputs, ops, span, cli_threads)


def score_pass(inputs: Inputs, ops: Ops, result: dict) -> dict:
    """Untimed checks of a pass; returns the pass's accuracy figures."""
    if inputs.workload != "pipeline":
        return result
    out = result["out"]
    scores = _pipeline_checks(inputs.cfg, out, ops) if result["complete"] else {}
    shutil.rmtree(out, ignore_errors=True)
    return scores


def _desk_pass(inputs: Inputs, ops: Ops) -> dict:
    cfg = inputs.cfg
    direct, dp, mx = safecert.direct, safecert.dp, safecert.metrics
    rows = []
    for cell in inputs.cells:
        T, region, grid, truth = cell["T"], cell["region"], cell["grid"], cell["truth"]
        tag = f"a{cell['alpha']:g} s{cell['seed']}"
        try:
            dm = ops.call(f"fit_direct {tag}", direct.fit_direct,
                          cfg.kernel_spec("direct", T), cell["ts"], region)
            est_d = ops.call(f"predict {tag}", direct.predict, dm, grid, check=_finite)
            del dm
            pm = ops.call(f"fit_dp {tag}", dp.fit_dp, cfg.kernel_spec("dp", T), cell["pairs"], region)
            dp_scores = _dp_scores(ops, pm, cell, tag)
            del pm
        except CellFailed:
            continue
        est_d = np.clip(est_d, 0.0, 1.0)
        row = {
            "direct.rmse": mx.rmse(est_d, truth),
            "direct.rel": mx.brier_decomposition_mc(est_d, truth, n_bins=10).rel,
            **dp_scores,
        }
        ops.check(f"scores {tag}", _unit(est_d) and _finite(list(row.values())))
        rows.append(row)
    return _mean_rows(rows)


def _dp_scores(ops: Ops, pm, cell: dict, tag: str) -> dict:
    """Backward pass, V0 on the grid, clipping and scoring against MC truth."""
    dp, mx, T = safecert.dp, safecert.metrics, cell["T"]
    stack = ops.call(f"backward_value {tag}", dp.backward_value, pm, T,
                     check=lambda s: len(s) == T + 1 and all(_unit(v.v) for v in s))
    est = ops.call(f"evaluate_dp {tag}", dp.evaluate_dp, pm, stack, cell["grid"], check=_unit)
    est = np.clip(est, 0.0, 1.0)
    return {"rmse_dp": mx.rmse(est, cell["truth"]), "dp.excess_rmse": mx.excess_rmse(est, cell["truth"])}


def _barrier_candidate(region, spec):
    """The CLI's demonstration candidate: a ridge fit of the normalized squared
    distance from the box centre on a 9-point-per-axis mesh."""
    lo, hi = region.box_array()
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    axes = [np.linspace(lo[k], hi[k], 9) for k in range(region.dim)]
    centers = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    targets = np.sum(((centers - center) / half) ** 2, axis=1) / region.dim + 0.05
    x0_box = (center - 0.1 * half, center + 0.1 * half)
    return spec, centers, targets, x0_box


def _diag_pass(inputs: Inputs, ops: Ops) -> dict:
    cfg = inputs.cfg
    ab, bar, dp = safecert.abstraction, safecert.barrier, safecert.dp
    rows = []
    for cell in inputs.cells:
        T, region = cell["T"], cell["region"]
        tag = f"a{cell['alpha']:g} s{cell['seed']}"
        spec = cfg.kernel_spec("dp", T)
        try:
            pm = ops.call(f"fit_dp {tag}", dp.fit_dp, spec, cell["pairs"], region)
            dp_scores = _dp_scores(ops, pm, cell, tag)
            part = ops.call(f"build_partition {tag}", ab.build_partition,
                            region, (cfg["abstraction.nx"], cfg["abstraction.ny"]))
            probs = ops.call(f"empirical_cell_probs {tag}", ab.empirical_cell_probs, part, pm,
                             check=lambda p: _unit(p) and np.allclose(p.sum(axis=1), 1.0))
            imodel = ab.IntervalModel.from_radii(probs, cfg["imp.radius"])
            v_imp = ops.call(f"imp_value_iteration {tag}", ab.imp_value_iteration, imodel, part, T,
                             check=_unit)
            v_ssr = ops.call(f"ssr_value_iteration {tag}", ab.ssr_value_iteration,
                             part, pm, ab.SsrParams(delta=cfg["ssr.delta"]), T, check=_unit)
            decay = ops.call(f"spectral_decay {tag}", dp.spectral_decay, pm, T,
                             check=lambda d: math.isfinite(d.rho) and math.isfinite(d.rho_pow_T))
            spec_b, centers, targets, x0_box = _barrier_candidate(region, spec)
            cand = ops.call(f"fit_barrier_candidate {tag}", bar.fit_barrier_candidate,
                            spec_b, centers, targets, check=lambda c: _finite(c.alpha))
            ops.call(f"check_barrier {tag}", bar.check_barrier,
                     cand, pm, region, x0_box, T, grids=21,
                     check=lambda r: _finite([r.eta, r.gamma_lvl, r.beta]))
            del pm
        except CellFailed:
            continue
        # imp takes the worst case in an interval around the rows ssr uses,
        # so at delta = 0 it can never exceed ssr
        ops.check(f"imp <= ssr {tag}", bool(np.all(v_imp <= v_ssr + V_TOL)))
        rows.append({"abstraction.imp_v0_mean": float(np.mean(v_imp)), "dp.rho": decay.rho, **dp_scores})
    return _mean_rows(rows)


def _first_line(path: Path) -> str:
    with path.open() as fh:
        return fh.readline()


def _grid_values(path: Path) -> np.ndarray:
    with path.open() as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    return np.asarray([float(r[2]) for r in rows[1:] if r])


def _pipeline_pass(inputs: Inputs, ops: Ops, span, cli_threads: int) -> dict:
    cli = safecert.cli
    out = inputs.work_dir / f"pass{inputs.passes}"
    config = inputs.work_dir / "config.txt"
    stages = {}
    for stage in ("gen-data", "mc-oracle", "certify", "calibrate", "evaluate"):
        argv = [stage, "--config", str(config), "--out", str(out), "--threads", str(cli_threads)]
        t0 = time.perf_counter()
        with span(f"cli.{stage}"):
            code = ops.call(f"cli {stage}", cli.main, argv, check=lambda c: c == 0)
        stages[stage] = time.perf_counter() - t0
        if code != 0:
            return {"out": out, "stages": stages, "complete": False}
    return {"out": out, "stages": stages, "complete": True}


def _pipeline_checks(cfg, out: Path, ops: Ops) -> dict:
    """Check every file the stages wrote and read back their accuracy."""
    head = f"config={cfg.config_hash} "
    cells = [(a, T, s) for a in cfg["system.alphas"] for T in cfg["horizons"] for s in cfg["seeds"]]
    soundness = []
    for alpha, T, seed in cells:
        tag = f"a{alpha:g}_T{T}_s{seed}"
        files = [f"data/trajs_{tag}.csv", f"data/pairs_{tag}.csv", f"mc/mc_{tag}.csv",
                 *(f"pred/{m}_{tag}.csv" for m in PIPELINE_METHODS),
                 f"pred/barrier_{tag}.json", f"cal/calibrator_direct_{tag}.json",
                 f"cal/bounds_direct_{tag}.csv"]
        for name in files:
            path = out / name
            ops.check(f"header {name}", path.exists() and head in _first_line(path))
        bounds_path, mc_path = out / f"cal/bounds_direct_{tag}.csv", out / f"mc/mc_{tag}.csv"
        if bounds_path.exists() and mc_path.exists():
            bounds, p_mc = _grid_values(bounds_path), _grid_values(mc_path)
            ops.check(f"bounds in [0, 1] {tag}", _unit(bounds) and bounds.shape == p_mc.shape)
            if bounds.shape == p_mc.shape:
                soundness.append(float(np.mean(bounds <= p_mc)))

    metrics_path = out / "metrics.csv"
    rows = []
    if metrics_path.exists():
        with metrics_path.open() as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    keys = sorted((r["method"], float(r["alpha"]), int(r["T"]), int(r["seed"])) for r in rows)
    want = sorted((m, a, T, s) for m in PIPELINE_METHODS for a, T, s in cells)
    ops.check("metrics.csv rows", bool(rows) and keys == want and head in _first_line(metrics_path))

    def mean(method: str, col: str) -> float:
        vals = [float(r[col]) for r in rows if r["method"] == method]
        return float(np.mean(vals)) if vals else float("nan")

    return {
        "rmse_dp": mean("dp", "rmse"),
        "dp.excess_rmse": mean("dp", "excess_rmse"),
        "direct.rmse": mean("direct", "rmse"),
        "direct.rel": mean("direct", "rel"),
        "calibration.bound_soundness": float(np.mean(soundness)) if soundness else float("nan"),
    }


def _mean_rows(rows: list[dict]) -> dict:
    if not rows:
        return {}
    return {k: float(np.mean([r[k] for r in rows])) for k in rows[0]}
