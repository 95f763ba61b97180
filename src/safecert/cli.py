"""Command-line pipeline over the library.

Subcommands mirror the experiment stages; only certify fits models:

  gen-data    data/{trajs,pairs,cal}_*: trajectories, one-step pairs and the
              calibration set (initial state x1, x2; whole-trajectory safe)
  mc-oracle   mc/mc_*: Monte Carlo ground-truth grids
  certify     pred/<method>_*: each method's grid estimates (a report for
              barrier), and cal/scores_<method>_*: its calibration-set scores
  calibrate   cal/calibrator_* and cal/bounds_*: binned calibration of the
              scores certify wrote for direct, dp, imp or ssr
  evaluate    metrics of predictions against the MC grids
  sweep       all of the above for the full config grid

Every stage runs over the cells of the config grid, one per (alpha, T, seed).
A cell record owns the cell's files: their names ``<name>_a<alpha>_T<T>_s<seed>``,
the provenance header each one starts with (config hash, seed, alpha, T), and
``read``, the one way a stage reads a table, which refuses one whose header
names another cell or config or that does not decode (a non-finite cell, say).
A stage reads all its tables before it writes, and a config whose cells
would share a file name is refused before any stage runs.

Exit codes: 0 on success, 1 on runtime or numeric failure (missing data
files and tables written under another config hash, seed, alpha or T
included), 2 on usage or config errors (cells that would share file names
included).  File writes are atomic.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import abstraction as ab
from . import barrier as bar
from . import benchmark as bm
from . import calibration as cal
from . import metrics as mx
from .config import METHODS, ConfigError, ExperimentConfig, load_config
from .direct import fit_direct, predict
from .dp import DpModel, backward_value, evaluate_dp, fit_dp
from .io import atomic_write, format_table, header_comment, read_table, table_array
from .kernels import NumericError

__all__ = ["main"]


@dataclass(frozen=True)
class _Cell:
    """One (alpha, T, seed) cell of the config grid and the files it owns under ``out``.

    Each file is ``out/<name>_<tag>.csv`` (``.json`` for reports), headed by
    the cell's provenance; ``read`` refuses a table whose header differs.
    """

    cfg: ExperimentConfig
    out: Path
    alpha: float
    T: int
    seed: int

    @property
    def alpha_text(self) -> str:
        return f"{self.alpha:g}"

    @property
    def tag(self) -> str:
        return f"a{self.alpha_text}_T{self.T}_s{self.seed}"

    @property
    def params(self) -> bm.SynthSystemParams:
        cfg = self.cfg
        return bm.SynthSystemParams(alpha=self.alpha, sigma=cfg["system.sigma"], h=cfg["system.h"],
                                    beta_c=cfg["system.beta_c"], gamma_c=cfg["system.gamma_c"])

    def path(self, name: str, suffix: str = ".csv") -> Path:
        return self.out / f"{name}_{self.tag}{suffix}"

    def header(self, **extra) -> str:
        return header_comment(self.cfg.config_hash, self.seed, alpha=self.alpha_text, T=self.T,
                              **extra)

    def read(self, name: str, decode=table_array):
        """``decode`` (the cell array by default) of ``<name>_<tag>.csv``; a file
        ``decode`` refuses or written under another config is refused."""
        return read_table(self.path(name), decode, config=self.cfg.config_hash, seed=self.seed,
                          alpha=self.alpha_text, T=self.T)

    def write_table(self, name: str, table, **extra) -> None:
        """Write ``<name>_<tag>.csv`` under the cell's header plus ``extra``:
        ``table`` is a dataset record or a (columns, rows) pair."""
        head = self.header(**extra)
        text = format_table(*table, head) if isinstance(table, tuple) else table.to_csv(head)
        atomic_write(self.path(name), text)

    def write_json(self, name: str, body: str, **extra) -> None:
        atomic_write(self.path(name, ".json"), f"// {self.header(**extra)}\n{body}\n")


def _cells(cfg: ExperimentConfig, out: Path, seed_offset: int) -> list[_Cell]:
    """The config grid's cells; a ConfigError if two of them share a file tag."""
    cells = [_Cell(cfg, out, alpha, T, seed + seed_offset) for alpha in cfg["system.alphas"]
             for T in cfg["horizons"] for seed in cfg["seeds"]]
    seen: dict[str, _Cell] = {}
    for cell in cells:
        other = seen.setdefault(cell.tag, cell)
        if other is not cell:
            raise ConfigError(
                f"cells (alpha={other.alpha!r}, T={other.T}, seed={other.seed}) and "
                f"(alpha={cell.alpha!r}, T={cell.T}, seed={cell.seed}) share the file tag "
                f"{cell.tag}; system.alphas, horizons and seeds must name distinct cells"
            )
    return cells


def _grid(cfg: ExperimentConfig, region: bm.SafeRegion) -> np.ndarray:
    return bm.eval_grid(region, (cfg["grid.nx"], cfg["grid.ny"]))


def _grid_table(grid: np.ndarray, values: np.ndarray, value_name: str) -> tuple:
    return ["gx", "gy", value_name], np.column_stack([grid, values]).tolist()


# ---------------------------------------------------------------- gen-data

def _gen_cell(cell: _Cell) -> None:
    cfg, params, T, seed = cell.cfg, cell.params, cell.T, cell.seed
    region = bm.default_safe_region()
    ts = bm.gen_dataset(params, region, cfg["data.n_trajectories"], T, seed)
    cell.write_table("data/trajs", ts, kind="trajectories")

    mode = cfg["data.mode"]
    pairs = bm.extract_onestep_pairs(ts, cfg.n_pairs(T), mode, seed, params=params, region=region)
    cell.write_table("data/pairs", pairs, kind=f"pairs-{mode}")

    cal_ts = bm.gen_dataset(params, region, cfg["data.n_calibration"], T, seed, purpose="cal-traj")
    rows = np.column_stack([cal_ts.initial_states, bm.trajectory_safe(region, cal_ts.states)])
    cell.write_table("data/cal", (["x1", "x2", "safe"], rows.tolist()), kind="calibration")


# ---------------------------------------------------------------- mc-oracle

def _mc_cell(cell: _Cell) -> None:
    region = bm.default_safe_region()
    gt = bm.mc_ground_truth(cell.params, region, _grid(cell.cfg, region), cell.T,
                            cell.cfg["mc.rollouts"], cell.seed)
    cell.write_table("mc/mc", gt, kind="mc")


# ---------------------------------------------------------------- certify

def _certify_estimates(cell: _Cell, method: str, ts: bm.TrajectorySet | None,
                       model: DpModel | None, abstraction: tuple[ab.Partition, np.ndarray] | None,
                       x_cal: np.ndarray) -> None:
    cfg, T = cell.cfg, cell.T
    region = bm.default_safe_region()
    if method == "direct":
        direct = fit_direct(cfg.kernel_spec("direct", T), ts, region)
        score_at = lambda pts: predict(direct, pts)
    elif method == "dp":
        stack = backward_value(model, T)
        score_at = lambda pts: evaluate_dp(model, stack, pts)
    else:  # imp or ssr, on the cell's one (partition, cell matrix) pair
        part, probs = abstraction
        if method == "imp":
            imodel = ab.IntervalModel.from_radii(probs, cfg["imp.radius"])
            v0 = ab.imp_value_iteration(imodel, part, T)
        else:
            v0 = ab.ssr_backward(probs, part, ab.SsrParams(delta=cfg["ssr.delta"]), T)
        score_at = lambda pts: ab.evaluate_abstraction(v0, part, pts)
    grid = _grid(cfg, region)
    cell.write_table(f"pred/{method}", _grid_table(grid, score_at(grid), "estimate"),
                     method=method)
    # the same fit scored at the calibration set, for calibrate to bin
    cell.write_table(f"cal/scores_{method}", (["score"], score_at(x_cal)[:, None].tolist()),
                     method=method)


def _certify_barrier(cell: _Cell, model: DpModel) -> None:
    # demonstration candidate: ridge fit of the normalized squared distance
    # from the box center, checked against the fitted one-step model
    region = bm.default_safe_region()
    lo, hi = region.box_array()
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    centers = bar.box_mesh(lo, hi, (9,) * region.dim)
    targets = np.sum(((centers - center) / half) ** 2, axis=1) / region.dim + 0.05
    candidate = bar.fit_barrier_candidate(cell.cfg.kernel_spec("dp", cell.T), centers, targets)
    x0_box = (center - 0.1 * half, center + 0.1 * half)
    report = bar.check_barrier(candidate, model, region, x0_box, cell.T, grids=21)
    cell.write_json("pred/barrier", report.to_json(), method="barrier")


def _certify_cell(cell: _Cell, methods: tuple[str, ...]) -> None:
    cfg = cell.cfg
    region = bm.default_safe_region()
    # every table the methods need comes first, so a refused one writes no file
    x_cal = cell.read("data/cal")[:, :2]
    ts = cell.read("data/trajs", bm.TrajectorySet.from_csv) if "direct" in methods else None
    pairs = (cell.read("data/pairs", bm.OneStepPairs.from_csv)
             if set(methods) - {"direct"} else None)
    # dp, imp, ssr and barrier share one dp fit, and imp and ssr one partition
    # and cell matrix; each is made when the first method that needs it comes
    # up, so that none is held while direct fits its own model
    dp_model = abstraction = None
    for method in methods:
        if method != "direct" and dp_model is None:
            dp_model = fit_dp(cfg.kernel_spec("dp", cell.T), pairs, region,
                              ambiguity=cfg["dp.ambiguity"])
        if method in ("imp", "ssr") and abstraction is None:
            part = ab.build_partition(region, (cfg["abstraction.nx"], cfg["abstraction.ny"]))
            abstraction = part, ab.empirical_cell_probs(part, dp_model)
        if method == "barrier":
            _certify_barrier(cell, dp_model)
        else:
            _certify_estimates(cell, method, ts, dp_model, abstraction, x_cal)


# ---------------------------------------------------------------- calibrate

def _calibrate_cell(cell: _Cell, methods: tuple[str, ...]) -> None:
    # post-processing only: the scores and grid estimates are certify's
    outcomes = cell.read("data/cal")[:, 2]
    # every method's calibrator and bounds come first, so a refused table or
    # score writes none of the cell's files
    results = []
    for method in methods:
        scores = cell.read(f"cal/scores_{method}")[:, 0]
        pred = cell.read(f"pred/{method}")
        calibrator = cal.calibrate(scores, outcomes, n_bins=cell.cfg["calibration.bins"],
                                   delta_conf=cell.cfg["calibration.delta"])
        bounds = cal.certified_lower_bound(calibrator, pred[:, 2])
        results.append((method, calibrator, _grid_table(pred[:, :2], bounds, "lower_bound")))
    for method, calibrator, bounds in results:
        cell.write_json(f"cal/calibrator_{method}", calibrator.to_json(), method=method)
        cell.write_table(f"cal/bounds_{method}", bounds, method=method)


# ---------------------------------------------------------------- evaluate

_METRIC_COLS = ["rmse", "excess_rmse", "brier", "brier_binned", "rel", "res", "unc", "res_norm"]


def _evaluate(cells: list[_Cell], methods: tuple[str, ...], seed_offset: int) -> None:
    rows = []  # method, alpha, T, seed, then the _METRIC_COLS values
    for cell in cells:
        mc = cell.read("mc/mc", bm.GroundTruthGrid.from_csv)
        p_mc = mc.p_mc
        for method in methods:
            pred = cell.read(f"pred/{method}")
            # rows are joined by position; both tables write eval_grid's points
            # through the same format, so their coordinates agree exactly
            if not np.array_equal(pred[:, :2], mc.grid):
                raise ValueError(f"{cell.path(f'pred/{method}')} ({len(pred)} rows) and "
                                 f"{cell.path('mc/mc')} ({len(p_mc)} rows) do not list the same "
                                 "grid points in the same order")
            est = np.clip(pred[:, 2], 0.0, 1.0)
            rep = mx.brier_decomposition_mc(est, p_mc, n_bins=10)
            rows.append([method, cell.alpha_text, cell.T, cell.seed, mx.rmse(est, p_mc),
                         mx.excess_rmse(est, p_mc), rep.brier, rep.brier_binned,
                         rep.rel, rep.res, rep.unc, rep.res_norm])
    cfg, out = cells[0].cfg, cells[0].out
    head = header_comment(cfg.config_hash, seed_offset, kind="metrics")
    columns = ["method", "alpha", "T", "seed"] + _METRIC_COLS
    atomic_write(out / "metrics.csv", format_table(columns, rows, head))

    groups: dict[tuple, list[list]] = {}
    for r in rows:
        groups.setdefault(tuple(r[:3]), []).append(r[4:])
    agg_rows = []
    for key, members in sorted(groups.items()):
        per_metric = list(zip(*members))
        means = [float(np.mean(vals)) for vals in per_metric]
        twosd = [2.0 * float(np.std(vals, ddof=1)) if len(members) > 1 else 0.0
                 for vals in per_metric]
        agg_rows.append([*key, len(members), *means, *twosd])
    columns = (["method", "alpha", "T", "n_seeds"] + [f"mean_{c}" for c in _METRIC_COLS]
               + [f"twosd_{c}" for c in _METRIC_COLS])
    atomic_write(out / "metrics_aggregate.csv", format_table(columns, agg_rows, head))


# ---------------------------------------------------------------- plumbing

# the pipeline in sweep order: stage -> (help, function, the methods it takes).
# evaluate runs once over all cells, every other stage once per cell.  Methods
# are None for stages without any, "all" for certify's, or "scored" for those
# that write estimates: all but barrier, which writes a report.
_STAGES = {
    "gen-data": ("generate trajectory and one-step pair datasets", _gen_cell, None),
    "mc-oracle": ("Monte Carlo ground-truth safety grids", _mc_cell, None),
    "certify": ("fit a method and write grid estimates", _certify_cell, "all"),
    "calibrate": ("histogram-binning calibration of a method's scores", _calibrate_cell, "scored"),
    "evaluate": ("metrics of stored predictions against MC grids", _evaluate, "scored"),
}


def _methods(cfg: ExperimentConfig, method: str | None, takes: str) -> tuple[str, ...]:
    """The config's methods, or the one ``--method`` names, that a stage takes."""
    scored = takes == "scored"
    if method:
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}; valid: {METHODS}")
        if scored and method == "barrier":
            raise ConfigError("barrier writes a report, not estimates; only certify takes "
                              "--method barrier")
        return (method,)
    return tuple(m for m in cfg["methods"] if not (scored and m == "barrier"))


def _run_cells(fn, cells: list[_Cell], threads: int, **kwargs) -> None:
    if threads <= 1:
        for cell in cells:
            fn(cell, **kwargs)
        return
    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, cell, **kwargs) for cell in cells]
        for fut in futures:
            fut.result()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safecert",
        description="certified safety-probability bounds from sampled trajectories",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [(name, helptext) for name, (helptext, _, _) in _STAGES.items()]
    for name, helptext in commands + [("sweep", "run the full pipeline over the config grid")]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", default=None, help="path to the experiment config file")
        p.add_argument("--method", default=None, help="restrict to one method")
        p.add_argument("--seed-offset", type=int, default=0, dest="seed_offset")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--threads", type=int, default=1)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cells = _cells(cfg, Path(args.out or cfg["out_dir"]), args.seed_offset)
        # every usage error is raised here, before the first stage writes
        stages = []
        for name in list(_STAGES) if args.command == "sweep" else [args.command]:
            _, fn, takes = _STAGES[name]
            stages.append((fn, {} if takes is None else {"methods": _methods(cfg, args.method, takes)}))
        for fn, kwargs in stages:
            if fn is _evaluate:
                _evaluate(cells, seed_offset=args.seed_offset, **kwargs)
            else:
                _run_cells(fn, cells, args.threads, **kwargs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, NumericError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
