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

The config grid has one cell per (alpha, T, seed).  calibrate runs once per
cell, evaluate once over all of them, and gen-data and mc-oracle once per
seed: every random stream they read is keyed by seed, purpose and index,
never by alpha, so each is drawn once, at the seed's longest horizon, and
rolled out once per alpha.  Each alpha's cells are written from that alpha's
rollouts, since a shorter horizon's draws and states are a prefix of a longer
one's.  certify runs once per (T, seed) row and fits once per distinct
training set in it: the cells whose decoded data/pairs are equal share one dp
fit (iid pairs do not depend on alpha), and those whose trajectories start at
equal states one direct factor, each cell keeping its own labels.  Every cell
still gets its own files.  A cell record owns the cell's files: their names
``<name>_a<alpha>_T<T>_s<seed>``, the provenance header each one starts with
(config hash, seed, alpha, T), and ``read``, the one way a stage reads a
table, which refuses one whose header names another cell or config, whose
column line is not its writer's, or that does not decode (a non-finite cell or
a ``safe`` label other than 0 or 1, say); it parses each file once.  A data
table must also hold as many rows as the config asks for, and a ``gx, gy``
grid table the config grid's points in order.  A stage reads all the tables
of its unit before it writes, and a config whose cells would share a file name
is refused before any stage runs.

Exit codes: 0 on success, 1 on runtime or numeric failure (missing data
files and tables written under another config hash, seed, alpha or T
included), 2 on usage or config errors (cells that would share file names
included).  File writes are atomic.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import abstraction as ab
from . import barrier as bar
from . import benchmark as bm
from . import calibration as cal
from . import metrics as mx
from .config import METHODS, ConfigError, ExperimentConfig, load_config
from .direct import fit_direct, predict
from .dp import backward_value, evaluate_dp, fit_dp
from .io import atomic_write, format_table, header_comment, read_table
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

    def read(self, name: str, columns: list[str], decode=None):
        """The cells of ``<name>_<tag>.csv``, or ``decode`` of them; a file
        written under another config, with a column line other than ``columns``
        or whose cells ``parse_table`` or ``decode`` refuses is refused."""
        return read_table(self.path(name), columns, decode, config=self.cfg.config_hash,
                          seed=self.seed, alpha=self.alpha_text, T=self.T)

    def write_table(self, name: str, table, **extra) -> None:
        """Write ``<name>_<tag>.csv`` under the cell's header plus ``extra``:
        ``table`` is a dataset record or a (columns, rows) pair."""
        head = self.header(**extra)
        text = format_table(*table, head) if isinstance(table, tuple) else table.to_csv(head)
        atomic_write(self.path(name), text)

    def write_json(self, name: str, body: str, **extra) -> None:
        atomic_write(self.path(name, ".json"), f"// {self.header(**extra)}\n{body}\n")


def _cells(cfg: ExperimentConfig, out: Path) -> list[_Cell]:
    """The config grid's cells; a ConfigError if two of them share a file tag."""
    cells = [_Cell(cfg, out, alpha, T, seed) for alpha in cfg["system.alphas"]
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
    return ["gx", "gy", value_name], np.column_stack([grid, values])


# the column line of every table a stage reads, as its writer writes it (the
# dataset records' to_csv at d = 2, or the stage); _Cell.read refuses any other
_TRAJ_COLUMNS = ["traj_id", "t", "x1", "x2"]
_PAIR_COLUMNS = ["x1", "x2", "xn1", "xn2"]
_CAL_COLUMNS = ["x1", "x2", "safe"]
_SCORE_COLUMNS = ["score"]


def _calibration_set(table: np.ndarray) -> np.ndarray:
    """The cells of a ``data/cal`` table, whose ``safe`` labels must be 0 or 1."""
    bad = np.flatnonzero((table[:, 2] != 0.0) & (table[:, 2] != 1.0))
    if bad.size:
        raise ValueError(f"row {bad[0]}, column safe is not 0 or 1 ({table[bad[0], 2]})")
    return table


def _check_rows(cell: _Cell, name: str, got: int, want: int, rule: str) -> None:
    if got != want:
        raise ValueError(f"{cell.path(name)}: {got} rows, but {rule} is {want}")


def _read_cal(cell: _Cell) -> np.ndarray:
    """``data/cal``, whose rows number data.n_calibration."""
    table = cell.read("data/cal", _CAL_COLUMNS, _calibration_set)
    _check_rows(cell, "data/cal", len(table), cell.cfg["data.n_calibration"],
                "data.n_calibration")
    return table


def _read_trajs(cell: _Cell) -> bm.TrajectorySet:
    """``data/trajs``: data.n_trajectories trajectories of T + 1 states."""
    ts = cell.read("data/trajs", _TRAJ_COLUMNS, bm.TrajectorySet.from_table)
    n, steps = ts.states.shape[:2]
    want = cell.cfg["data.n_trajectories"]
    if (n, steps) != (want, cell.T + 1):
        raise ValueError(f"{cell.path('data/trajs')}: {n} trajectories of {steps} states "
                         f"({n * steps} rows), but data.n_trajectories * (T + 1) is "
                         f"{want} * {cell.T + 1} = {want * (cell.T + 1)}")
    return ts


def _read_pairs(cell: _Cell) -> bm.OneStepPairs:
    """``data/pairs``, whose rows number the config's n_pairs(T)."""
    pairs = cell.read("data/pairs", _PAIR_COLUMNS, bm.OneStepPairs.from_table)
    rule = "data.n_pairs" if cell.cfg["data.n_pairs"] > 0 else "data.n_trajectories * T"
    _check_rows(cell, "data/pairs", pairs.n, cell.cfg.n_pairs(cell.T), rule)
    return pairs


def _read_grid(cell: _Cell, name: str, value_column: str) -> np.ndarray:
    """The values of ``<name>_<tag>.csv``, a ``gx, gy, <value_column>`` table
    whose rows must be the config grid's points in order: the stages join
    grid tables by row."""
    table = cell.read(name, ["gx", "gy", value_column])
    grid = _grid(cell.cfg, bm.default_safe_region())
    if not np.array_equal(table[:, :2], grid):
        raise ValueError(f"{cell.path(name)}: its {len(table)} (gx, gy) rows are not the "
                         f"{len(grid)} points of the config grid in order")
    return table[:, 2]


# ---------------------------------------------------------------- gen-data

def _columns(cells: tuple[_Cell, ...]) -> list[list[_Cell]]:
    """A seed's cells by alpha, in the order of ``cells``: each alpha's
    (alpha, seed) column of horizons."""
    columns: dict[str, list[_Cell]] = {}
    for cell in cells:
        columns.setdefault(cell.alpha_text, []).append(cell)
    return list(columns.values())


def _gen_seed(cells: tuple[_Cell, ...]) -> None:
    # one draw per purpose for the whole seed, at its longest horizon, rolled
    # out at every alpha (the draws do not depend on alpha); each shorter
    # horizon's rollouts are its first T + 1 states (gen_dataset's prefix
    # contract), and its pairs are drawn for the cell alone
    first = cells[0]
    cfg, seed = first.cfg, first.seed
    region = bm.default_safe_region()
    columns = _columns(cells)
    params = [column[0].params for column in columns]
    T_max = max(cell.T for cell in cells)
    trajs = bm.gen_dataset(params, region, cfg["data.n_trajectories"], T_max, seed)
    cal_trajs = bm.gen_dataset(params, region, cfg["data.n_calibration"], T_max, seed,
                               purpose="cal-traj")
    mode = cfg["data.mode"]
    for column, system, ts, cal_ts in zip(columns, params, trajs, cal_trajs):
        for cell in column:
            cell_ts = bm.TrajectorySet(states=ts.states[:, :cell.T + 1])
            cell.write_table("data/trajs", cell_ts, kind="trajectories")
            pairs = bm.extract_onestep_pairs(cell_ts, cfg.n_pairs(cell.T), mode, seed,
                                             params=system, region=region)
            cell.write_table("data/pairs", pairs, kind=f"pairs-{mode}")
            safe = bm.trajectory_safe(region, cal_ts.states[:, :cell.T + 1])
            rows = np.column_stack([cal_ts.initial_states, safe])
            cell.write_table("data/cal", (_CAL_COLUMNS, rows), kind="calibration")


# ---------------------------------------------------------------- mc-oracle

def _mc_seed(cells: tuple[_Cell, ...]) -> None:
    # every alpha and horizon of the seed is scored off one draw of each
    # point's noise, rolled out once per alpha
    first = cells[0]
    region = bm.default_safe_region()
    columns = _columns(cells)
    # every column lists the config's horizons in the same order
    grids = bm.mc_ground_truth([column[0].params for column in columns], region,
                               _grid(first.cfg, region), [cell.T for cell in columns[0]],
                               first.cfg["mc.rollouts"], first.seed)
    for column, column_grids in zip(columns, grids):
        for cell, gt in zip(column, column_grids):
            cell.write_table("mc/mc", gt, kind="mc")


# ---------------------------------------------------------------- certify

def _groups(items: list) -> list[list[int]]:
    """The indices of ``items`` grouped by equal content, in first-seen order;
    an item is a tuple of arrays, equal when every array is."""
    groups: list[list[int]] = []
    for i, item in enumerate(items):
        group = next((g for g in groups
                      if all(np.array_equal(a, b) for a, b in zip(items[g[0]], item))), None)
        if group is None:
            groups.append([i])
        else:
            group.append(i)
    return groups


def _estimate_writes(cells: list[_Cell], method: str, score_at, x_cal: list[np.ndarray]) -> list:
    """The ``pred/`` and ``cal/scores_`` writes of cells that share one fit:
    the grid is scored once, and each distinct calibration set once."""
    grid = _grid(cells[0].cfg, bm.default_safe_region())
    estimates = _grid_table(grid, score_at(grid), "estimate")
    writes = []
    for group in _groups([(x,) for x in x_cal]):
        scores = (_SCORE_COLUMNS, score_at(x_cal[group[0]])[:, None])
        for i in group:
            writes += [partial(cells[i].write_table, f"pred/{method}", estimates, method=method),
                       partial(cells[i].write_table, f"cal/scores_{method}", scores, method=method)]
    return writes


def _certify_direct(cells: list[_Cell], trajs: list[bm.TrajectorySet],
                    x_cal: list[np.ndarray]) -> list:
    # one factor over the group's start states; every other cell swaps in its
    # own trajectories and labels
    region = bm.default_safe_region()
    model = fit_direct(cells[0].cfg.kernel_spec("direct", cells[0].T), trajs[0], region)
    writes = []
    for cell, ts, xc in zip(cells, trajs, x_cal):
        if ts is not trajs[0]:
            model = replace(model, labels=bm.trajectory_safe(region, ts.states).astype(float),
                            trajectories=ts.states)
        writes += _estimate_writes([cell], "direct", lambda pts: predict(model, pts), [xc])
    return writes


def _barrier_candidate(cfg: ExperimentConfig, T: int) -> tuple[bar.BarrierCandidate, tuple]:
    # demonstration candidate: ridge fit of the normalized squared distance
    # from the box center, and the initial box it is checked on against each
    # fitted one-step model
    region = bm.default_safe_region()
    lo, hi = region.box_array()
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    centers = bar.box_mesh(lo, hi, (9,) * region.dim)
    targets = np.sum(((centers - center) / half) ** 2, axis=1) / region.dim + 0.05
    candidate = bar.fit_barrier_candidate(cfg.kernel_spec("dp", T), centers, targets)
    return candidate, (center - 0.1 * half, center + 0.1 * half)


def _certify_dp(cells: list[_Cell], pairs: bm.OneStepPairs, x_cal: list[np.ndarray],
                methods: tuple[str, ...], barrier: tuple | None) -> list:
    # dp, imp, ssr and barrier share the group's one dp fit, and imp and ssr
    # one partition and cell matrix
    cfg, T = cells[0].cfg, cells[0].T
    region = bm.default_safe_region()
    model = fit_dp(cfg.kernel_spec("dp", T), pairs, region, ambiguity=cfg["dp.ambiguity"])
    part = probs = None
    writes = []
    for method in methods:
        if method == "barrier":
            candidate, x0_box = barrier
            report = bar.check_barrier(candidate, model, region, x0_box, T, grids=21).to_json()
            writes += [partial(cell.write_json, "pred/barrier", report, method="barrier")
                       for cell in cells]
            continue
        if method == "dp":
            stack = backward_value(model, T)
            score_at = lambda pts: evaluate_dp(model, stack, pts)
        else:
            if probs is None:
                part = ab.build_partition(region, (cfg["abstraction.nx"], cfg["abstraction.ny"]))
                probs = ab.empirical_cell_probs(part, model)
            if method == "imp":
                v0 = ab.imp_value_iteration(ab.IntervalModel.from_radii(probs, cfg["imp.radius"]),
                                            part, T)
            else:
                v0 = ab.ssr_backward(probs, part, ab.SsrParams(delta=cfg["ssr.delta"]), T)
            score_at = lambda pts: ab.evaluate_abstraction(v0, part, pts)
        writes += _estimate_writes(cells, method, score_at, x_cal)
    return writes


def _certify_row(cells: tuple[_Cell, ...], methods: tuple[str, ...]) -> None:
    cfg, T = cells[0].cfg, cells[0].T
    # every table of every cell comes first, so a refused one writes no file
    # of the row
    x_cal = [_read_cal(cell)[:, :2] for cell in cells]
    trajs = [_read_trajs(cell) for cell in cells] if "direct" in methods else []
    dp_methods = tuple(m for m in methods if m != "direct")
    pairs = [_read_pairs(cell) for cell in cells] if dp_methods else []
    # one fit per distinct training set, each in a helper of its own, so that
    # no fitted model is held while the next one is fitted; the files are
    # written once every fit of the row has succeeded
    writes = []
    for group in _groups([(ts.initial_states,) for ts in trajs]):
        writes += _certify_direct([cells[i] for i in group], [trajs[i] for i in group],
                                  [x_cal[i] for i in group])
    barrier = _barrier_candidate(cfg, T) if "barrier" in dp_methods else None
    for group in _groups([(p.x, p.x_next) for p in pairs]):
        writes += _certify_dp([cells[i] for i in group], pairs[group[0]],
                              [x_cal[i] for i in group], dp_methods, barrier)
    for write in writes:
        write()


# ---------------------------------------------------------------- calibrate

def _calibrate_cell(cell: _Cell, methods: tuple[str, ...]) -> None:
    # post-processing only: the scores and grid estimates are certify's
    outcomes = _read_cal(cell)[:, 2]
    grid = _grid(cell.cfg, bm.default_safe_region())
    # every method's calibrator and bounds come first, so a refused table or
    # score writes none of the cell's files
    results = []
    for method in methods:
        scores = cell.read(f"cal/scores_{method}", _SCORE_COLUMNS)[:, 0]
        if len(scores) != len(outcomes):
            raise ValueError(f"{cell.path(f'cal/scores_{method}')}: {len(scores)} scores, but "
                             f"{cell.path('data/cal')} has {len(outcomes)} rows")
        estimates = _read_grid(cell, f"pred/{method}", "estimate")
        calibrator = cal.calibrate(scores, outcomes, n_bins=cell.cfg["calibration.bins"],
                                   delta_conf=cell.cfg["calibration.delta"])
        bounds = cal.certified_lower_bound(calibrator, estimates)
        results.append((method, calibrator, _grid_table(grid, bounds, "lower_bound")))
    for method, calibrator, bounds in results:
        cell.write_json(f"cal/calibrator_{method}", calibrator.to_json(), method=method)
        cell.write_table(f"cal/bounds_{method}", bounds, method=method)


# ---------------------------------------------------------------- evaluate

_METRIC_COLS = ["rmse", "excess_rmse", "brier", "brier_binned", "rel", "res", "unc", "res_norm"]


def _evaluate(cells: list[_Cell], methods: tuple[str, ...]) -> None:
    rows = []  # method, alpha, T, seed, then the _METRIC_COLS values
    for cell in cells:
        # rows are joined by position: both tables hold the config grid in order
        p_mc = _read_grid(cell, "mc/mc", "p_mc")
        for method in methods:
            est = np.clip(_read_grid(cell, f"pred/{method}", "estimate"), 0.0, 1.0)
            rep = mx.brier_decomposition_mc(est, p_mc, n_bins=10)
            rows.append([method, cell.alpha_text, cell.T, cell.seed, mx.rmse(est, p_mc),
                         mx.excess_rmse(est, p_mc), rep.brier, rep.brier_binned,
                         rep.rel, rep.res, rep.unc, rep.res_norm])
    cfg, out = cells[0].cfg, cells[0].out
    # the tables span every seed of the grid, so the header's seed names none
    head = header_comment(cfg.config_hash, 0, kind="metrics")
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

# the pipeline in sweep order: stage -> (help, function, the methods it takes,
# the unit it runs over).  Methods are None for stages without any, "all" for
# certify's, or "scored" for those that write estimates: all but barrier, which
# writes a report.  A stage's function is called once per unit: a "cell", a
# "seed" of cells in (alpha, T) order, a (T, seed) "row" of cells in alpha
# order, or the whole "grid".  gen-data and mc-oracle run per seed so that
# each stream is drawn once and rolled out at every alpha; certify runs per
# row so that it fits once per distinct training set of the row.
_STAGES = {
    "gen-data": ("generate trajectory and one-step pair datasets", _gen_seed, None, "seed"),
    "mc-oracle": ("Monte Carlo ground-truth safety grids", _mc_seed, None, "seed"),
    "certify": ("fit a method and write grid estimates", _certify_row, "all", "row"),
    "calibrate": ("histogram-binning calibration of a method's scores", _calibrate_cell,
                  "scored", "cell"),
    "evaluate": ("metrics of stored predictions against MC grids", _evaluate, "scored", "grid"),
}


def _units(cells: list[_Cell], unit: str) -> list:
    """The units a stage runs over, in the order of ``cells``."""
    if unit == "cell":
        return cells
    if unit == "grid":
        return [cells]
    units: dict[object, list[_Cell]] = {}
    for cell in cells:
        key = cell.seed if unit == "seed" else (cell.T, cell.seed)
        units.setdefault(key, []).append(cell)
    return [tuple(members) for members in units.values()]


def _methods(cfg: ExperimentConfig, method: str | None, takes: str) -> tuple[str, ...]:
    """The config's methods, or the one ``--method`` names, that a stage takes;
    a ConfigError if a scored stage is left with none."""
    scored = takes == "scored"
    if method:
        if method not in METHODS:
            raise ConfigError(f"unknown method {method!r}; valid: {METHODS}")
        if scored and method == "barrier":
            raise ConfigError("barrier writes a report, not estimates; only certify takes "
                              "--method barrier")
        return (method,)
    methods = tuple(m for m in cfg["methods"] if not (scored and m == "barrier"))
    if not methods:
        raise ConfigError(f"methods = {', '.join(cfg['methods'])} names no method that writes "
                          "estimates; calibrate and evaluate take direct, dp, imp or ssr")
    return methods


# the OpenBLAS builds that the numpy and scipy wheels bundle, next to the
# packages, and each one's thread-count setter
_OPENBLAS = (("numpy.libs/libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
             ("scipy.libs/libscipy_openblas*.so", "scipy_openblas_set_num_threads"))


def _one_blas_thread() -> None:
    """Pool initializer: one thread for each bundled OpenBLAS, as the workers
    already take a core each.  A library or symbol that is not there is skipped."""
    import ctypes
    import glob

    # a build that loads later reads the variable and starts no threads
    # (a setter call would start them, and they spin a while first); one that
    # is loaded already, as numpy's always is, takes the setter
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    site = Path(np.__file__).parent.parent
    for pattern, symbol in _OPENBLAS:
        for lib in glob.glob(str(site / pattern)):
            setter = getattr(ctypes.CDLL(lib), symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


def _run_cells(fn, units: list, threads: int, **kwargs) -> list:
    """``fn(unit, **kwargs)`` for each unit, in order: in a pool of up to
    ``threads`` processes of one BLAS thread each when there is more than one
    of each, else in this process."""
    if threads <= 1 or len(units) <= 1:
        return [fn(unit, **kwargs) for unit in units]
    with ProcessPoolExecutor(max_workers=min(threads, len(units)),
                             initializer=_one_blas_thread) as pool:
        futures = [pool.submit(fn, unit, **kwargs) for unit in units]
        return [fut.result() for fut in futures]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safecert",
        description="certified safety-probability bounds from sampled trajectories",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [(name, helptext) for name, (helptext, *_) in _STAGES.items()]
    for name, helptext in commands + [("sweep", "run the full pipeline over the config grid")]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", default=None, help="path to the experiment config file")
        p.add_argument("--method", default=None, help="restrict to one method")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--threads", type=int, default=1)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be at least 1, not {args.threads}")
        cfg = load_config(args.config)
        cells = _cells(cfg, Path(args.out or cfg["out_dir"]))
        # every usage error is raised here, before the first stage writes
        stages = []
        for name in list(_STAGES) if args.command == "sweep" else [args.command]:
            _, fn, takes, unit = _STAGES[name]
            kwargs = {} if takes is None else {"methods": _methods(cfg, args.method, takes)}
            stages.append((fn, _units(cells, unit), kwargs))
        for fn, units, kwargs in stages:
            _run_cells(fn, units, args.threads, **kwargs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, NumericError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
