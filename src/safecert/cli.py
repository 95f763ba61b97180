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

Exit codes: 0 on success, 1 on runtime or numeric failure (missing data
files and tables written under another config hash, seed, alpha or T
included), 2 on usage or config errors.  Every output file embeds the config
hash and seed in a leading comment line, and file writes are atomic.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import abstraction as ab
from . import barrier as bar
from . import benchmark as bm
from . import calibration as cal
from . import metrics as mx
from .config import ConfigError, ExperimentConfig, load_config
from .direct import fit_direct, predict
from .dp import DpModel, backward_value, evaluate_dp, fit_dp
from .io import atomic_write, format_table, header_comment, parse_table, read_table
from .kernels import NumericError

__all__ = ["main"]

_CERTIFY_METHODS = ("direct", "dp", "imp", "ssr", "barrier")


def _system(cfg: ExperimentConfig, alpha: float) -> bm.SynthSystemParams:
    return bm.SynthSystemParams(
        alpha=alpha,
        sigma=cfg["system.sigma"],
        h=cfg["system.h"],
        beta_c=cfg["system.beta_c"],
        gamma_c=cfg["system.gamma_c"],
    )


def _grid(cfg: ExperimentConfig, region: bm.SafeRegion) -> np.ndarray:
    return bm.eval_grid(region, (cfg["grid.nx"], cfg["grid.ny"]))


def _cells(cfg: ExperimentConfig, seed_offset: int):
    for alpha in cfg["system.alphas"]:
        for T in cfg["horizons"]:
            for seed in cfg["seeds"]:
                yield alpha, T, seed + seed_offset


def _tag(alpha: float, T: int, seed: int) -> str:
    return f"a{alpha:g}_T{T}_s{seed}"


def _out_dir(cfg: ExperimentConfig, args) -> Path:
    return Path(args.out) if args.out else Path(cfg["out_dir"])


def _read_cell(cfg: ExperimentConfig, out: Path, name: str, alpha: float, T: int,
               seed: int) -> str:
    """Text of the cell's table ``<name>_<tag>.csv``; a file written under
    another config hash, seed, alpha or T is refused with a ValueError."""
    path = out / f"{name}_{_tag(alpha, T, seed)}.csv"
    return read_table(path, config=cfg.config_hash, seed=seed, alpha=f"{alpha:g}", T=T)


def _write_grid_csv(path: Path, grid: np.ndarray, values: np.ndarray,
                    value_name: str, header: str) -> None:
    rows = np.column_stack([grid, values]).tolist()
    atomic_write(path, format_table(["gx", "gy", value_name], rows, header))


# ---------------------------------------------------------------- gen-data

def _gen_cell(cfg: ExperimentConfig, out: Path, alpha: float, T: int, seed: int) -> None:
    params = _system(cfg, alpha)
    region = bm.default_safe_region()
    ts = bm.gen_dataset(params, region, cfg["data.n_trajectories"], T, seed)
    head = header_comment(cfg.config_hash, seed, alpha=f"{alpha:g}", T=T, kind="trajectories")
    atomic_write(out / "data" / f"trajs_{_tag(alpha, T, seed)}.csv", ts.to_csv(head))

    mode = cfg["data.mode"]
    pairs = bm.extract_onestep_pairs(
        ts, cfg.n_pairs(T), mode, seed, params=params, region=region
    )
    head = header_comment(cfg.config_hash, seed, alpha=f"{alpha:g}", T=T, kind=f"pairs-{mode}")
    atomic_write(out / "data" / f"pairs_{_tag(alpha, T, seed)}.csv", pairs.to_csv(head))

    cal_ts = bm.gen_dataset(params, region, cfg["data.n_calibration"], T, seed, purpose="cal-traj")
    rows = np.column_stack([cal_ts.initial_states, bm.trajectory_safe(region, cal_ts.states)])
    head = header_comment(cfg.config_hash, seed, alpha=f"{alpha:g}", T=T, kind="calibration")
    atomic_write(out / "data" / f"cal_{_tag(alpha, T, seed)}.csv",
                 format_table(["x1", "x2", "safe"], rows.tolist(), head))


def cmd_gen_data(cfg: ExperimentConfig, args) -> int:
    _run_cells(_gen_cell, cfg, _out_dir(cfg, args), args)
    return 0


# ---------------------------------------------------------------- mc-oracle

def _mc_cell(cfg: ExperimentConfig, out: Path, alpha: float, T: int, seed: int) -> None:
    params = _system(cfg, alpha)
    region = bm.default_safe_region()
    grid = _grid(cfg, region)
    gt = bm.mc_ground_truth(params, region, grid, T, cfg["mc.rollouts"], seed)
    head = header_comment(cfg.config_hash, seed, alpha=f"{alpha:g}", T=T, kind="mc")
    atomic_write(out / "mc" / f"mc_{_tag(alpha, T, seed)}.csv", gt.to_csv(head))


def cmd_mc_oracle(cfg: ExperimentConfig, args) -> int:
    _run_cells(_mc_cell, cfg, _out_dir(cfg, args), args)
    return 0


# ---------------------------------------------------------------- certify

def _load_pairs(cfg: ExperimentConfig, out: Path, alpha: float, T: int, seed: int) -> bm.OneStepPairs:
    text = _read_cell(cfg, out, "data/pairs", alpha, T, seed)
    return bm.OneStepPairs.from_csv(text, params=_system(cfg, alpha), seed=seed)


def _fit_dp_cell(cfg: ExperimentConfig, out: Path, alpha: float, T: int, seed: int) -> DpModel:
    pairs = _load_pairs(cfg, out, alpha, T, seed)
    return fit_dp(cfg.kernel_spec("dp", T), pairs, bm.default_safe_region(),
                  ambiguity=cfg["dp.ambiguity"])


def _certify_estimates(cfg: ExperimentConfig, out: Path, method: str, model: DpModel | None,
                       x_cal: np.ndarray, alpha: float, T: int, seed: int) -> None:
    region = bm.default_safe_region()
    if method == "direct":
        ts = bm.TrajectorySet.from_csv(_read_cell(cfg, out, "data/trajs", alpha, T, seed),
                                       params=_system(cfg, alpha), seed=seed)
        direct = fit_direct(cfg.kernel_spec("direct", T), ts, region)
        score_at = lambda pts: predict(direct, pts)
    elif method == "dp":
        stack = backward_value(model, T)
        score_at = lambda pts: evaluate_dp(model, stack, pts)
    else:  # imp or ssr
        part = ab.build_partition(region, (cfg["abstraction.nx"], cfg["abstraction.ny"]))
        if method == "imp":
            probs = ab.empirical_cell_probs(part, model)
            imodel = ab.IntervalModel.from_radii(probs, cfg["imp.radius"])
            v0 = ab.imp_value_iteration(imodel, part, T)
        else:
            v0 = ab.ssr_value_iteration(part, model, ab.SsrParams(delta=cfg["ssr.delta"]), T)
        score_at = lambda pts: ab.evaluate_abstraction(v0, part, pts)
    grid = _grid(cfg, region)
    head = header_comment(cfg.config_hash, seed, alpha=f"{alpha:g}", T=T, method=method)
    tag = _tag(alpha, T, seed)
    _write_grid_csv(out / "pred" / f"{method}_{tag}.csv", grid, score_at(grid), "estimate", head)
    # the same fit scored at the calibration set, for calibrate to bin
    atomic_write(out / "cal" / f"scores_{method}_{tag}.csv",
                 format_table(["score"], score_at(x_cal)[:, None].tolist(), head))


def _certify_barrier(cfg: ExperimentConfig, out: Path, model: DpModel, alpha: float, T: int,
                     seed: int) -> None:
    # demonstration candidate: ridge fit of the normalized squared distance
    # from the box center, checked against the fitted one-step model
    region = bm.default_safe_region()
    lo, hi = region.box_array()
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    centers = bar.box_mesh(lo, hi, (9,) * region.dim)
    targets = np.sum(((centers - center) / half) ** 2, axis=1) / region.dim + 0.05
    candidate = bar.fit_barrier_candidate(cfg.kernel_spec("dp", T), centers, targets)
    x0_box = (center - 0.1 * half, center + 0.1 * half)
    report = bar.check_barrier(candidate, model, region, x0_box, T, grids=21)
    head = header_comment(cfg.config_hash, seed, alpha=f"{alpha:g}", T=T, method="barrier")
    atomic_write(
        out / "pred" / f"barrier_{_tag(alpha, T, seed)}.json",
        f"// {head}\n" + report.to_json() + "\n",
    )


def _certify_cell(cfg: ExperimentConfig, out: Path, alpha: float, T: int, seed: int,
                  methods: tuple[str, ...] = ()) -> None:
    x_cal = parse_table(_read_cell(cfg, out, "data/cal", alpha, T, seed))[2][:, :2]
    # dp, imp, ssr and barrier share one dp fit, made when the first of them
    # comes up so that it is not held while direct fits its own model
    dp_model = None
    for method in methods:
        if method != "direct" and dp_model is None:
            dp_model = _fit_dp_cell(cfg, out, alpha, T, seed)
        if method == "barrier":
            _certify_barrier(cfg, out, dp_model, alpha, T, seed)
        else:
            _certify_estimates(cfg, out, method, dp_model, x_cal, alpha, T, seed)


def _certify_methods(cfg: ExperimentConfig, args) -> tuple[str, ...]:
    if getattr(args, "method", None):
        if args.method not in _CERTIFY_METHODS:
            raise ConfigError(f"unknown method {args.method!r}; valid: {_CERTIFY_METHODS}")
        return (args.method,)
    return tuple(m for m in cfg["methods"] if m in _CERTIFY_METHODS)


def _scored_methods(cfg: ExperimentConfig, args) -> tuple[str, ...]:
    """certify's methods that write estimates: all but barrier, which is a
    usage error when asked for by ``--method``."""
    if getattr(args, "method", None) == "barrier":
        raise ConfigError("barrier writes a report, not estimates; only certify takes "
                          "--method barrier")
    return tuple(m for m in _certify_methods(cfg, args) if m != "barrier")


def cmd_certify(cfg: ExperimentConfig, args) -> int:
    methods = _certify_methods(cfg, args)
    _run_cells(_certify_cell, cfg, _out_dir(cfg, args), args, methods=methods)
    return 0


# ---------------------------------------------------------------- calibrate

def _calibrate_cell(cfg: ExperimentConfig, out: Path, alpha: float, T: int, seed: int,
                    methods: tuple[str, ...] = ()) -> None:
    # post-processing only: the scores and grid estimates are certify's
    outcomes = parse_table(_read_cell(cfg, out, "data/cal", alpha, T, seed))[2][:, 2]
    tag = _tag(alpha, T, seed)
    for method in methods:
        scores = parse_table(_read_cell(cfg, out, f"cal/scores_{method}", alpha, T, seed))[2][:, 0]
        pred = parse_table(_read_cell(cfg, out, f"pred/{method}", alpha, T, seed))[2]
        calibrator = cal.calibrate(scores, outcomes, n_bins=cfg["calibration.bins"],
                                   delta_conf=cfg["calibration.delta"])
        head = header_comment(cfg.config_hash, seed, alpha=f"{alpha:g}", T=T, method=method)
        atomic_write(out / "cal" / f"calibrator_{method}_{tag}.json",
                     f"// {head}\n" + calibrator.to_json() + "\n")
        bounds = cal.certified_lower_bound(calibrator, pred[:, 2])
        _write_grid_csv(out / "cal" / f"bounds_{method}_{tag}.csv",
                        pred[:, :2], bounds, "lower_bound", head)


def cmd_calibrate(cfg: ExperimentConfig, args) -> int:
    _run_cells(_calibrate_cell, cfg, _out_dir(cfg, args), args, methods=_scored_methods(cfg, args))
    return 0


# ---------------------------------------------------------------- evaluate

_METRIC_COLS = ["rmse", "excess_rmse", "brier", "brier_binned", "rel", "res", "unc", "res_norm"]


def cmd_evaluate(cfg: ExperimentConfig, args) -> int:
    out = _out_dir(cfg, args)
    methods = _scored_methods(cfg, args)
    rows = []  # method, alpha, T, seed, then the _METRIC_COLS values
    for alpha, T, seed in _cells(cfg, args.seed_offset):
        p_mc = parse_table(_read_cell(cfg, out, "mc/mc", alpha, T, seed))[2][:, 2]
        for method in methods:
            est = parse_table(_read_cell(cfg, out, f"pred/{method}", alpha, T, seed))[2][:, 2]
            est = np.clip(est, 0.0, 1.0)
            rep = mx.brier_decomposition_mc(est, p_mc, n_bins=10)
            rows.append([method, f"{alpha:g}", T, seed, mx.rmse(est, p_mc),
                         mx.excess_rmse(est, p_mc), rep.brier, rep.brier_binned,
                         rep.rel, rep.res, rep.unc, rep.res_norm])
    head = header_comment(cfg.config_hash, args.seed_offset, kind="metrics")
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
    return 0


# ---------------------------------------------------------------- sweep

def cmd_sweep(cfg: ExperimentConfig, args) -> int:
    for step in (cmd_gen_data, cmd_mc_oracle, cmd_certify, cmd_calibrate, cmd_evaluate):
        code = step(cfg, args)
        if code != 0:
            return code
    return 0


# ---------------------------------------------------------------- plumbing

def _run_cells(fn, cfg: ExperimentConfig, out: Path, args, **kwargs) -> None:
    cells = list(_cells(cfg, args.seed_offset))
    threads = max(1, args.threads)
    if threads == 1:
        for alpha, T, seed in cells:
            fn(cfg, out, alpha, T, seed, **kwargs)
        return
    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [
            pool.submit(fn, cfg, out, alpha, T, seed, **kwargs) for alpha, T, seed in cells
        ]
        for fut in futures:
            fut.result()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safecert",
        description="certified safety-probability bounds from sampled trajectories",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("gen-data", "generate trajectory and one-step pair datasets"),
        ("mc-oracle", "Monte Carlo ground-truth safety grids"),
        ("certify", "fit a method and write grid estimates"),
        ("calibrate", "histogram-binning calibration of a method's scores"),
        ("evaluate", "metrics of stored predictions against MC grids"),
        ("sweep", "run the full pipeline over the config grid"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", default=None, help="path to the experiment config file")
        p.add_argument("--method", default=None, help="restrict to one method")
        p.add_argument("--seed-offset", type=int, default=0, dest="seed_offset")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--threads", type=int, default=1)
    return parser


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "mc-oracle": cmd_mc_oracle,
    "certify": cmd_certify,
    "calibrate": cmd_calibrate,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, NumericError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
