import gc
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import safecert.barrier
import safecert.cli
import safecert.direct
import safecert.dp
import safecert.kernels
from safecert import abstraction as ab
from safecert import benchmark as bm
from safecert import calibration as cal
from safecert import load_config
from safecert.cli import main
from safecert.direct import fit_direct, predict
from safecert.io import atomic_write, format_table, header_comment, parse_table

from conftest import openblas

TINY_CONFIG = """
system.alphas = 0.0
horizons = 2
seeds = 1
methods = direct, dp, imp, ssr, barrier
data.n_trajectories = 30
data.n_calibration = 40
data.mode = iid
grid.nx = 5
grid.ny = 5
mc.rollouts = 40
abstraction.nx = 4
abstraction.ny = 4
calibration.bins = 4
"""


def config_with(base: str, lines: str) -> str:
    """``base`` with ``lines`` appended and the lines of ``base`` that set
    the same keys dropped: a config sets each key once."""
    keys = {line.split("=", 1)[0].strip() for line in lines.splitlines()}
    kept = [line for line in base.splitlines() if line.split("=", 1)[0].strip() not in keys]
    return "\n".join(kept) + "\n" + lines


# two alphas and two horizons of one seed: gen-data and mc-oracle draw the
# seed's streams once, at T = 4, and roll them out at each alpha
TWO_HORIZON_CONFIG = config_with(TINY_CONFIG, "system.alphas = 0, 0.95\nhorizons = 2, 4\n")

# three alphas, two horizons and two seeds: two seed units for gen-data and
# mc-oracle, each of whose draws is rolled out at three alphas
SEEDS_CONFIG = config_with(TWO_HORIZON_CONFIG, "system.alphas = 0, 0.5, 0.95\nseeds = 1, 2\n")


@pytest.fixture()
def cfg_path(tmp_path: Path) -> Path:
    p = tmp_path / "tiny.cfg"
    p.write_text(TINY_CONFIG)
    return p


def run(*argv: str) -> int:
    return main(list(argv))


# runs stages in a fresh interpreter and reports their exit codes and the
# scipy modules loaded by the end
_FRESH_STAGES = """
import json, sys
import safecert
from safecert.cli import main
config, out, *stages = sys.argv[1:]
codes = [main([stage, "--config", config, "--out", out]) for stage in stages]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def run_fresh(cfg_path: Path, out: Path, *stages: str) -> dict:
    src = str(Path(safecert.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FRESH_STAGES, str(cfg_path), str(out), *stages],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestIoHelpers:
    def test_atomic_write(self, tmp_path):
        target = tmp_path / "deep" / "file.csv"
        atomic_write(target, "# header\na,b\n1,2\n")
        assert target.read_text() == "# header\na,b\n1,2\n"
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_header_comment_is_sorted_and_stable(self):
        h = header_comment("abc123def456", 7, T=5, alpha="0.5")
        assert h == "config=abc123def456 seed=7 T=5 alpha=0.5"


# every (stage, table it reads) pair, with the files the stage writes; the
# edits: a nan or a 0.5 label as the last value of the first row, the row of
# trajectory 3 at t = 1 (another table's last row) dropped or written twice,
# every row of the last trajectory dropped, the last column renamed (upper
# case), or the last two columns swapped, names and values.  "{out}" in a
# message is the output directory
_STAGE_WRITES = {"certify": ("pred/*", "cal/scores_*"),
                 "calibrate": ("cal/calibrator_*", "cal/bounds_*"),
                 "evaluate": ("metrics*.csv",)}
_FAULTS = [
    ("certify", "data/cal", "nan", "row 0, column safe is not finite (nan)"),
    ("certify", "data/trajs", "nan", "row 0, column x2 is not finite (nan)"),
    ("certify", "data/trajs", "drop", "row 10: expected trajectory 3 at t = 1, "
                                      "found trajectory 3 at t = 2"),
    ("certify", "data/trajs", "duplicate", "row 11: expected trajectory 3 at t = 2, "
                                           "found trajectory 3 at t = 1"),
    ("certify", "data/pairs", "nan", "row 0, column xn2 is not finite (nan)"),
    # tables whose row count is not the one the config asks for
    ("certify", "data/cal", "drop", "39 rows, but data.n_calibration is 40"),
    ("calibrate", "data/cal", "drop", "39 rows, but data.n_calibration is 40"),
    ("certify", "data/pairs", "drop", "59 rows, but data.n_trajectories * T is 60"),
    ("certify", "data/trajs", "drop-trajectory", "29 trajectories of 3 states (87 rows), but "
                                                 "data.n_trajectories * (T + 1) is 30 * 3 = 90"),
    ("calibrate", "data/cal", "nan", "row 0, column safe is not finite (nan)"),
    ("calibrate", "cal/scores_direct", "nan", "row 0, column score is not finite (nan)"),
    ("calibrate", "pred/direct", "nan", "row 0, column estimate is not finite (nan)"),
    ("calibrate", "pred/direct", "drop", "its 24 (gx, gy) rows are not the 25 points of the "
                                         "config grid in order"),
    ("calibrate", "cal/scores_direct", "drop", "39 scores, but {out}/data/cal_a0_T2_s1.csv "
                                               "has 40 rows"),
    ("certify", "data/cal", "label", "row 0, column safe is not 0 or 1 (0.5)"),
    ("calibrate", "data/cal", "label", "row 0, column safe is not 0 or 1 (0.5)"),
    ("evaluate", "mc/mc", "nan", "row 0, column p_mc is not finite (nan)"),
    ("evaluate", "pred/dp", "nan", "row 0, column estimate is not finite (nan)"),
    ("evaluate", "pred/dp", "drop", "its 24 (gx, gy) rows are not the 25 points of the config "
                                    "grid in order"),
    ("evaluate", "mc/mc", "drop", "its 24 (gx, gy) rows are not the 25 points of the config "
                                  "grid in order"),
]
_READS = [
    ("certify", "data/cal", ["x1", "x2", "safe"]),
    ("certify", "data/trajs", ["traj_id", "t", "x1", "x2"]),
    ("certify", "data/pairs", ["x1", "x2", "xn1", "xn2"]),
    ("calibrate", "data/cal", ["x1", "x2", "safe"]),
    ("calibrate", "cal/scores_direct", ["score"]),
    ("calibrate", "pred/direct", ["gx", "gy", "estimate"]),
    ("evaluate", "mc/mc", ["gx", "gy", "p_mc"]),
    ("evaluate", "pred/dp", ["gx", "gy", "estimate"]),
]
_FAULTS += [(stage, table, "rename", f"columns are {cols[:-1] + [cols[-1].upper()]}, not {cols}")
            for stage, table, cols in _READS]
# a one-column table has no other order
_FAULTS += [(stage, table, "reorder", f"columns are {cols[:-2] + cols[:-3:-1]}, not {cols}")
            for stage, table, cols in _READS if len(cols) > 1]
# a middle row that lost its last cell; in a one-column table that leaves a
# blank line, which the reader skips, so the score count is what refuses it
_FAULTS += [(stage, table, "ragged", f"row {{row}} has {len(cols) - 1} cells, not {len(cols)}")
            for stage, table, cols in _READS if len(cols) > 1]
_FAULTS += [("calibrate", "cal/scores_direct", "ragged",
             "39 scores, but {out}/data/cal_a0_T2_s1.csv has 40 rows")]


def _openblas_threads(_unit) -> list[int]:
    """The thread counts of ``openblas`` once scipy has loaded its own build,
    as a certify worker does after the pool started it."""
    import scipy.linalg  # noqa: F401
    return [get() for _, get, _ in openblas()]


@pytest.fixture(scope="module")
def certified(tmp_path_factory) -> tuple[Path, Path]:
    """(config, output) of gen-data, mc-oracle and certify on the tiny config."""
    root = tmp_path_factory.mktemp("certified")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CONFIG)
    for stage in ("gen-data", "mc-oracle", "certify"):
        assert run(stage, "--config", str(cfg), "--out", str(root / "o")) == 0
    return cfg, root / "o"


class TestExitCodes:
    def test_bad_config_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no.such.key = 1\n")
        assert run("gen-data", "--config", str(bad), "--out", str(tmp_path / "o")) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run("gen-data", "--config", str(tmp_path / "nope.cfg")) == 2

    def test_config_directory_exits_2(self, tmp_path, capsys):
        # it used to exit 1 with "[Errno 21] Is a directory"
        assert run("gen-data", "--config", str(tmp_path), "--out", str(tmp_path / "o")) == 2
        assert "not a regular file" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exits_2_before_any_write(self, cfg_path, tmp_path, capsys, threads):
        """Such counts used to run serially and exit 0."""
        out = tmp_path / "o"
        assert run("sweep", "--config", str(cfg_path), "--out", str(out), "--threads", threads) == 2
        assert "--threads must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_exits_2(self, cfg_path, tmp_path):
        assert run("certify", "--config", str(cfg_path), "--method", "oracle",
                   "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("line", ["kernel.dp.lam = -1e-6", "kernel.direct.variances = 1, 1, 1"])
    def test_bad_kernel_override_exits_2_before_any_write(self, tmp_path, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(config_with(TINY_CONFIG, line + "\n"))
        out = tmp_path / "o"
        assert run("sweep", "--config", str(bad), "--out", str(out)) == 2
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("lines, named", [
        # cells that would share a file tag, so one would overwrite the other
        ("system.alphas = 0.5, 0.5000001", "a0.5_T2_s1"),
        ("system.alphas = 0.5, 0.5", "a0.5_T2_s1"),
        ("seeds = 1, 1", "a0_T2_s1"),
        ("horizons = 2, 2", "a0_T2_s1"),
        # 30 trajectories of 2 steps hold 60 dependent pairs
        ("data.mode = dependent\ndata.n_pairs = 100", "data.n_pairs"),
        # non-finite values that the range tests let through would fail
        # only in a later stage, after data/, mc/ and pred/ were written
        ("system.sigma = nan", "system.sigma"),
        ("system.h = inf", "system.h"),
        ("system.beta_c = nan", "system.beta_c"),
        ("system.gamma_c = inf", "system.gamma_c"),
        ("imp.radius = nan", "imp.radius"),
        ("dp.ambiguity = inf", "dp.ambiguity"),
        # each of its metrics rows would be written and counted twice
        ("methods = direct, direct", "methods"),
        # nothing would be fitted: a header-only metrics.csv, exit 0
        ("methods =", "methods must be nonempty"),
    ])
    def test_refused_config_exits_2_before_any_write(self, tmp_path, capsys, lines, named):
        bad = tmp_path / "bad.cfg"
        bad.write_text(config_with(TINY_CONFIG, lines + "\n"))
        out = tmp_path / "o"
        assert run("sweep", "--config", str(bad), "--out", str(out)) == 2
        assert named in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_sweep_method_barrier_exits_2_before_any_write(self, cfg_path, tmp_path):
        out = tmp_path / "o"
        assert run("sweep", "--config", str(cfg_path), "--method", "barrier",
                   "--out", str(out)) == 2
        assert not out.exists()

    def test_config_of_barrier_alone_leaves_nothing_to_score(self, tmp_path, capsys):
        """``methods = barrier`` writes reports, no estimates: sweep exits 2
        before its first write, certify writes the reports, and calibrate and
        evaluate exit 2 and write nothing."""
        config = tmp_path / "barrier.cfg"
        config.write_text(config_with(TINY_CONFIG, "methods = barrier\n"))
        out = tmp_path / "o"
        assert run("sweep", "--config", str(config), "--out", str(out)) == 2
        assert "names no method that writes estimates" in capsys.readouterr().err
        assert not out.exists()
        for stage in ("gen-data", "mc-oracle", "certify"):
            assert run(stage, "--config", str(config), "--out", str(out)) == 0
        assert (out / "pred" / "barrier_a0_T2_s1.json").exists()
        before = sorted(p.relative_to(out) for p in out.rglob("*"))
        for stage in ("calibrate", "evaluate"):
            assert run(stage, "--config", str(config), "--out", str(out)) == 2
        assert sorted(p.relative_to(out) for p in out.rglob("*")) == before

    def test_certify_before_gen_data_exits_1(self, cfg_path, tmp_path):
        assert run("certify", "--config", str(cfg_path), "--method", "dp",
                   "--out", str(tmp_path / "o")) == 1

    def test_evaluate_without_mc_exits_1(self, cfg_path, tmp_path):
        assert run("evaluate", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 1

    def test_evaluate_barrier_exits_2(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "o"
        for stage in ("gen-data", "mc-oracle"):
            assert run(stage, "--config", str(cfg_path), "--out", str(out)) == 0
        capsys.readouterr()
        assert run("evaluate", "--config", str(cfg_path), "--method", "barrier",
                   "--out", str(out)) == 2
        assert "barrier writes a report" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("edit", ["swap", "drop"])
    def test_evaluate_refuses_pred_and_mc_on_other_grid_points(self, cfg_path, tmp_path, capsys,
                                                               edit):
        """Rows are joined by position: two swapped mc rows used to give wrong
        metrics and exit 0, a dropped one a broadcast error naming no file.
        The mc table is refused on its own, as not the config grid in order."""
        out = tmp_path / "o"
        for stage in ("gen-data", "mc-oracle", "certify"):
            assert run(stage, "--config", str(cfg_path), "--method", "direct",
                       "--out", str(out)) == 0
        mc = out / "mc" / "mc_a0_T2_s1.csv"
        lines = mc.read_text().splitlines(keepends=True)
        # the comment line, the column names, then the grid points
        if edit == "swap":
            lines[2], lines[3] = lines[3], lines[2]
        else:
            del lines[-1]
        mc.write_text("".join(lines))
        capsys.readouterr()
        assert run("evaluate", "--config", str(cfg_path), "--method", "direct",
                   "--out", str(out)) == 1
        rows = 25 if edit == "swap" else 24
        assert capsys.readouterr().err == (
            f"error: {mc}: its {rows} (gx, gy) rows are not the 25 points of the config grid "
            "in order\n")
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("stage, table, edit, message", _FAULTS,
                             ids=[f"{s}-{t.replace('/', '_')}-{e}" for s, t, e, _ in _FAULTS])
    def test_bad_table_writes_nothing(self, certified, tmp_path, capsys, stage, table, edit,
                                      message):
        """A stage exits 1 on a refused table, names it and writes none of its files."""
        cfg, built = certified
        out = tmp_path / "o"
        shutil.copytree(built, out)
        for pattern in _STAGE_WRITES[stage]:
            for p in out.glob(pattern):
                p.unlink()
        path = out / f"{table}_a0_T2_s1.csv"
        lines = path.read_text().splitlines(keepends=True)
        # the comment line, the column names, then the rows
        middle = (len(lines) - 2) // 2
        if edit in ("nan", "label"):
            value = "nan" if edit == "nan" else "0.5"
            lines[2] = "".join(lines[2].rpartition(",")[:2]) + value + "\n"
        elif edit == "rename":
            head, comma, last = lines[1].rstrip("\n").rpartition(",")
            lines[1] = f"{head}{comma}{last.upper()}\n"
        elif edit == "reorder":
            for i in range(1, len(lines)):
                fields = lines[i].rstrip("\n").split(",")
                fields[-2:] = fields[:-3:-1]
                lines[i] = ",".join(fields) + "\n"
        elif edit == "ragged":
            lines[2 + middle] = lines[2 + middle].rpartition(",")[0] + "\n"
        elif edit == "drop-trajectory":
            last = lines[-1].partition(",")[0]
            lines = lines[:2] + [line for line in lines[2:] if line.partition(",")[0] != last]
        else:
            # a trajectory table's row of trajectory 3 at t = 1, any other table's last row
            row = next((i for i, line in enumerate(lines) if line.startswith("3,1,")),
                       len(lines) - 1)
            lines[row:row + 1] = [] if edit == "drop" else [lines[row]] * 2
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run(stage, "--config", str(cfg), "--out", str(out)) == 1
        # the error line names the table, so a sweep's bad cell can be found
        assert f"error: {path}: {message.format(out=out, row=middle)}\n" in capsys.readouterr().err
        assert not [p for pattern in _STAGE_WRITES[stage] for p in out.glob(pattern)]

    def test_calibrate_writes_all_of_a_cell_or_none(self, cfg_path, tmp_path, capsys):
        """A bad table of the cell's last method used to leave the files of
        the methods before it written."""
        out = tmp_path / "o"
        for stage in ("gen-data", "certify"):
            assert run(stage, "--config", str(cfg_path), "--out", str(out)) == 0
        (pred,) = (out / "pred").glob("ssr_*")
        lines = pred.read_text().splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 1)[0] + ",nan\n"
        pred.write_text("".join(lines))
        capsys.readouterr()
        assert run("calibrate", "--config", str(cfg_path), "--out", str(out)) == 1
        assert str(pred) in capsys.readouterr().err
        assert not list((out / "cal").glob("calibrator_*"))
        assert not list((out / "cal").glob("bounds_*"))

    def test_certify_writes_all_of_a_row_or_none(self, tmp_path, capsys):
        """A refused table of one cell leaves no file of any cell of its
        (T, seed) row, although the other cells' tables are sound."""
        config = tmp_path / "row.cfg"
        config.write_text(config_with(TINY_CONFIG, "system.alphas = 0, 0.95\n"))
        out = tmp_path / "o"
        assert run("gen-data", "--config", str(config), "--out", str(out)) == 0
        pairs = out / "data" / "pairs_a0.95_T2_s1.csv"
        lines = pairs.read_text().splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 1)[0] + ",nan\n"
        pairs.write_text("".join(lines))
        capsys.readouterr()
        assert run("certify", "--config", str(config), "--out", str(out)) == 1
        assert str(pairs) in capsys.readouterr().err
        assert not list(out.glob("pred/*_a0_T2_s1.*"))
        assert not list(out.glob("cal/*"))

    def test_evaluate_refuses_mc_grid_of_another_config(self, cfg_path, tmp_path, capsys):
        other = tmp_path / "other.cfg"
        other.write_text(TINY_CONFIG.replace("mc.rollouts = 40", "mc.rollouts = 41"))
        out = str(tmp_path / "o")
        for stage in ("gen-data", "mc-oracle", "certify"):
            assert run(stage, "--config", str(cfg_path), "--method", "dp", "--out", out) == 0
        # same cell, same file name, another config: overwrites the MC grid
        assert run("mc-oracle", "--config", str(other), "--out", out) == 0
        capsys.readouterr()
        assert run("evaluate", "--config", str(cfg_path), "--method", "dp", "--out", out) == 1
        err = capsys.readouterr().err
        assert load_config(path=cfg_path).config_hash in err
        assert load_config(path=other).config_hash in err


class TestPipeline:
    def test_full_sweep_writes_every_stage(self, cfg_path, tmp_path):
        out = tmp_path / "results"
        umask = os.umask(0o027)
        try:
            assert run("sweep", "--config", str(cfg_path), "--out", str(out)) == 0
        finally:
            os.umask(umask)
        # every file gets the mode open gives under the umask (0o640), not mkstemp's 0o600
        modes = {p.stat().st_mode & 0o777 for p in out.rglob("*") if p.is_file()}
        assert modes == {0o640}

        assert (out / "data" / "trajs_a0_T2_s1.csv").exists()
        assert (out / "data" / "pairs_a0_T2_s1.csv").exists()
        assert (out / "mc" / "mc_a0_T2_s1.csv").exists()
        for method in ("direct", "dp", "imp", "ssr"):
            assert (out / "pred" / f"{method}_a0_T2_s1.csv").exists()
        assert (out / "pred" / "barrier_a0_T2_s1.json").exists()
        assert (out / "cal" / "calibrator_direct_a0_T2_s1.json").exists()
        assert (out / "cal" / "bounds_direct_a0_T2_s1.csv").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "metrics_aggregate.csv").exists()

    def test_every_cell_file_header_names_its_cell(self, cfg_path, tmp_path):
        out = tmp_path / "results"
        assert run("sweep", "--config", str(cfg_path), "--out", str(out)) == 0
        config_hash = load_config(path=cfg_path).config_hash
        cell_files = [p for p in sorted(out.rglob("*")) if p.is_file() and p.parent != out]
        # data 3, mc 1, pred 4 + barrier, and cal scores, calibrators and bounds 4 each
        assert len(cell_files) == 21
        for path in cell_files:
            cell = re.fullmatch(r".+_a(?P<alpha>[^_]+)_T(?P<T>\d+)_s(?P<seed>\d+)\.(csv|json)",
                                path.name)
            first = path.read_text().partition("\n")[0]
            fields = dict(tok.split("=", 1) for tok in first.split() if "=" in tok)
            assert fields["config"] == config_hash, path.name
            assert {k: fields[k] for k in ("alpha", "T", "seed")} == cell.groupdict(), path.name

    def test_outputs_carry_config_hash_and_seed(self, cfg_path, tmp_path):
        out = tmp_path / "results"
        assert run("gen-data", "--config", str(cfg_path), "--out", str(out)) == 0
        cfg = load_config(path=cfg_path)
        first = (out / "data" / "trajs_a0_T2_s1.csv").read_text().splitlines()[0]
        assert first.startswith("#")
        assert f"config={cfg.config_hash}" in first
        assert "seed=1" in first

    def test_metrics_rows_match_grid_shape(self, cfg_path, tmp_path):
        out = tmp_path / "results"
        assert run("sweep", "--config", str(cfg_path), "--out", str(out)) == 0
        _, header, rows = parse_table((out / "metrics.csv").read_text(), dtype=str)
        assert header[:4] == ["method", "alpha", "T", "seed"]
        assert "rmse" in header and "rel" in header
        # four non-barrier methods, one cell each
        assert rows.shape == (4, len(header))
        rmse = rows[:, header.index("rmse")].astype(float)
        assert np.all((rmse >= 0.0) & (rmse <= 1.0))

    def test_barrier_report_is_json_with_header(self, cfg_path, tmp_path):
        out = tmp_path / "results"
        assert run("gen-data", "--config", str(cfg_path), "--out", str(out)) == 0
        assert run("certify", "--config", str(cfg_path), "--method", "barrier",
                   "--out", str(out)) == 0
        text = (out / "pred" / "barrier_a0_T2_s1.json").read_text()
        comment, body = text.split("\n", 1)
        assert comment.startswith("// config=")
        data = json.loads(body)
        assert set(data) >= {"eta", "gamma_lvl", "beta", "bound", "feasible", "horizon"}

    def test_certify_fits_dp_once_per_cell(self, cfg_path, tmp_path, monkeypatch):
        out = str(tmp_path / "o")
        assert run("gen-data", "--config", str(cfg_path), "--out", out) == 0
        calls = []
        fit_dp = safecert.cli.fit_dp
        monkeypatch.setattr(safecert.cli, "fit_dp",
                            lambda *a, **kw: calls.append(1) or fit_dp(*a, **kw))
        # the tiny config's methods: direct, dp, imp, ssr and barrier; one cell
        assert run("certify", "--config", str(cfg_path), "--out", out) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("mode, dp_fits", [("iid", 4), ("dependent", 12)])
    def test_certify_fits_each_distinct_training_set_once(self, tmp_path, monkeypatch, mode,
                                                           dp_fits):
        """Three alphas, two horizons and two seeds: iid pairs and the start
        states of the trajectories are the same at every alpha, so each
        (T, seed) row fits dp once and direct once; dependent pairs differ by
        alpha, so dp fits once per cell."""
        config = tmp_path / "grid.cfg"
        config.write_text(config_with(TINY_CONFIG, "system.alphas = 0, 0.5, 0.95\nhorizons = 2, 3\n"
                                      f"seeds = 1, 2\ndata.mode = {mode}\n"))
        out = str(tmp_path / "o")
        assert run("gen-data", "--config", str(config), "--out", out) == 0
        calls = []
        for name in ("fit_direct", "fit_dp"):
            fit = getattr(safecert.cli, name)
            monkeypatch.setattr(safecert.cli, name, lambda *a, _fit=fit, _name=name, **kw:
                                calls.append(_name) or _fit(*a, **kw))
        assert run("certify", "--config", str(config), "--out", out) == 0
        assert (calls.count("fit_direct"), calls.count("fit_dp")) == (4, dp_fits)
        assert len(list((tmp_path / "o" / "pred").glob("dp_*"))) == 12

    def test_no_fitted_model_is_held_while_another_is_fitted(self, tmp_path, monkeypatch):
        """Each ridge fit of a row starts after every ridge system an earlier
        fit_direct or fit_dp built is freed, by reference counting alone."""
        # one (T, seed) row of two alphas whose dependent pairs differ, so
        # certify fits direct once and dp once per alpha
        config = tmp_path / "row.cfg"
        config.write_text(config_with(TINY_CONFIG, "system.alphas = 0, 0.95\ndata.mode = dependent\n"))
        out = str(tmp_path / "o")
        assert run("gen-data", "--config", str(config), "--out", out) == 0
        built, fits = [], []

        def tracked(fit):
            def wrapper(*a, **kw):
                model = fit(*a, **kw)
                built.append(weakref.ref(model.gram))
                return model

            return wrapper

        for name in ("fit_direct", "fit_dp"):
            monkeypatch.setattr(safecert.cli, name, tracked(getattr(safecert.cli, name)))
        def checked(fit):
            def wrapper(*a, **kw):
                fits.append([ref for ref in built if ref() is not None])
                return fit(*a, **kw)

            return wrapper

        # the modules that fit a ridge system hold its builder under their own names
        for module, name in ((safecert.direct, "fit_weights"), (safecert.dp, "fit_system"),
                             (safecert.barrier, "fit_weights")):
            monkeypatch.setattr(module, name, checked(getattr(module, name)))
        gc.disable()
        try:
            assert run("certify", "--config", str(config), "--out", out) == 0
        finally:
            gc.enable()
        # the ridge fits: direct, the barrier candidate, then dp per alpha
        assert len(built) == 3
        assert fits == [[]] * 4

    def test_certify_builds_one_cell_matrix_for_imp_and_ssr(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "two-cells.cfg"
        cfg_path.write_text(config_with(TINY_CONFIG, "seeds = 1, 2\n"))
        out = str(tmp_path / "o")
        assert run("gen-data", "--config", str(cfg_path), "--out", out) == 0
        calls = []
        probs = ab.empirical_cell_probs
        monkeypatch.setattr(ab, "empirical_cell_probs",
                            lambda *a, **kw: calls.append(1) or probs(*a, **kw))
        # the tiny config's methods include both imp and ssr; two cells
        assert run("certify", "--config", str(cfg_path), "--out", out) == 0
        assert len(calls) == 2

    def test_every_table_round_trips_through_the_parser(self, cfg_path, tmp_path):
        out = tmp_path / "results"
        assert run("sweep", "--config", str(cfg_path), "--out", str(out)) == 0
        tables = sorted(out.rglob("*.csv"))
        assert len(tables) == 18
        for path in tables:
            text = path.read_text()
            dtype = str if path.name.startswith("metrics") else float
            fields, columns, data = parse_table(text, dtype=dtype)
            header = " ".join(f"{k}={v}" for k, v in fields.items())
            assert format_table(columns, data.tolist(), header) == text, path.name

    def test_parallel_gen_matches_serial(self, cfg_path, tmp_path, monkeypatch):
        """gen-data and mc-oracle in a pool, over one cell or over two seeds
        of three alphas and two horizons, write the bytes a serial run writes;
        the two seeds go through the pool."""
        pools = []

        class Pool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(safecert.cli, "ProcessPoolExecutor", Pool)
        seeds = tmp_path / "seeds.cfg"
        seeds.write_text(SEEDS_CONFIG)
        for config in (cfg_path, seeds):
            a = tmp_path / config.stem / "serial"
            b = tmp_path / config.stem / "parallel"
            for stage in ("gen-data", "mc-oracle"):
                assert run(stage, "--config", str(config), "--out", str(a)) == 0
                assert run(stage, "--config", str(config), "--out", str(b), "--threads", "2") == 0
            assert tree_digest(a) == tree_digest(b)
        assert len(tree_digest(tmp_path / "seeds" / "serial")) == 3 * 2 * 2 * 4
        # the one-cell config runs in this process; each stage of the other pools its two seeds
        assert pools == [2, 2]

    def test_pool_workers_run_one_blas_thread(self, monkeypatch):
        """Each pooled unit sees one thread in both bundled OpenBLAS builds,
        also where the parent runs more, and the parent keeps its count."""
        if not all(lib for lib, _, _ in openblas()):
            pytest.skip("numpy's and scipy's bundled OpenBLAS builds are not installed")
        before = [get() for _, get, _ in openblas()]
        # workers that fork inherit the parent's count, and spawned ones the variable
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        for _, _, set_threads in openblas():
            set_threads(2)
        try:
            assert safecert.cli._run_cells(_openblas_threads, [0, 1], threads=2) == [[1, 1]] * 2
            assert _openblas_threads(None) == [2, 2]
        finally:
            for (_, _, set_threads), count in zip(openblas(), before):
                set_threads(count)

    def test_shared_rollouts_match_one_horizon_runs(self, tmp_path):
        """Below the provenance line, every data/ and mc/ file of a two-horizon
        run is the file a run of its horizon alone writes."""
        out = {}
        for name, text in [("both", TWO_HORIZON_CONFIG),
                           ("T2", config_with(TWO_HORIZON_CONFIG, "horizons = 2\n")),
                           ("T4", config_with(TWO_HORIZON_CONFIG, "horizons = 4\n"))]:
            config = tmp_path / f"{name}.cfg"
            config.write_text(text)
            out[name] = tmp_path / name
            for stage in ("gen-data", "mc-oracle"):
                assert run(stage, "--config", str(config), "--out", str(out[name])) == 0

        def bodies(root: Path) -> dict[str, str]:
            return {str(p.relative_to(root)): p.read_text().partition("\n")[2]
                    for p in sorted(root.rglob("*.csv"))}

        both = bodies(out["both"])
        alone = {}
        for T in (2, 4):
            files = bodies(out[f"T{T}"])
            assert len(files) == 2 * 4 and all(f"_T{T}_" in name for name in files)
            alone.update(files)
        # two alphas, one seed and two horizons; trajectories, pairs, calibration set and mc
        assert len(both) == 2 * 2 * 4
        assert both == alone

    def test_each_seed_is_simulated_once(self, tmp_path, monkeypatch):
        """gen-data draws the training and calibration sets once per seed and
        mc-oracle scores all its alphas and horizons in one call, so every
        trajectory and Monte Carlo stream is built once per seed."""
        config = tmp_path / "seeds.cfg"
        config.write_text(SEEDS_CONFIG)
        calls = {"gen_dataset": [], "mc_ground_truth": []}
        for name in calls:
            fn = getattr(bm, name)
            # each call's alphas, T (the horizons for mc_ground_truth) and seed
            monkeypatch.setattr(bm, name, lambda params, *a, _fn=fn, _name=name, **kw:
                                calls[_name].append(([p.alpha for p in params], a[2], a[-1]))
                                or _fn(params, *a, **kw))
        streams = []
        stream = bm.stream
        monkeypatch.setattr(bm, "stream", lambda *key: streams.append(key) or stream(*key))
        out = str(tmp_path / "o")
        assert run("gen-data", "--config", str(config), "--out", out) == 0
        # per seed, at its longest horizon and every alpha: training and calibration
        alphas = [0.0, 0.5, 0.95]
        assert calls["gen_dataset"] == [(alphas, 4, 1), (alphas, 4, 1),
                                        (alphas, 4, 2), (alphas, 4, 2)]
        assert run("mc-oracle", "--config", str(config), "--out", out) == 0
        assert calls["mc_ground_truth"] == [(alphas, [2, 4], 1), (alphas, [2, 4], 2)]
        # per seed: 30 training and 40 calibration trajectories, and the safe grid points
        region = bm.default_safe_region()
        n_safe = int(bm.is_safe(region, bm.eval_grid(region, (5, 5))).sum())
        drawn = [key for key in streams if key[1] in ("traj", "cal-traj", "mc")]
        assert len(drawn) == len(set(drawn)) == 2 * (30 + 40 + n_safe)

    def test_sweep_rerun_is_byte_identical(self, cfg_path, tmp_path):
        out = tmp_path / "results"
        assert run("sweep", "--config", str(cfg_path), "--out", str(out)) == 0
        first = tree_digest(out)
        assert run("sweep", "--config", str(cfg_path), "--out", str(out)) == 0
        assert tree_digest(out) == first

    def test_calibrated_bounds_are_conservative_scores(self, cfg_path, tmp_path):
        out = tmp_path / "results"
        assert run("gen-data", "--config", str(cfg_path), "--out", str(out)) == 0
        assert run("certify", "--config", str(cfg_path), "--out", str(out)) == 0
        assert run("calibrate", "--config", str(cfg_path), "--out", str(out)) == 0
        _, _, rows = parse_table((out / "cal" / "bounds_direct_a0_T2_s1.csv").read_text())
        bounds = rows[:, 2]
        assert np.all((bounds >= 0.0) & (bounds <= 1.0))

    def test_only_certify_loads_scipy(self, cfg_path, tmp_path):
        """The stages that fit nothing never pay for importing scipy."""
        out = tmp_path / "o"
        assert run_fresh(cfg_path, out, "gen-data", "mc-oracle") == {"codes": [0, 0], "scipy": []}
        fit = run_fresh(cfg_path, out, "certify")
        assert fit["codes"] == [0] and "scipy.linalg" in fit["scipy"]
        assert run_fresh(cfg_path, out, "calibrate", "evaluate") == {"codes": [0, 0], "scipy": []}


class TestCalibrateFromCertifyScores:
    """calibrate bins the scores certify wrote; it fits and draws nothing."""

    def test_sweep_fits_each_model_once(self, cfg_path, tmp_path, monkeypatch):
        calls = []
        for name in ("fit_direct", "fit_dp"):
            fit = getattr(safecert.cli, name)
            monkeypatch.setattr(safecert.cli, name,
                                lambda *a, _fit=fit, **kw: calls.append(1) or _fit(*a, **kw))
        assert run("sweep", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 0
        # one cell: one direct fit and one dp fit, both in certify
        assert len(calls) == 2

    def test_calibrate_neither_fits_nor_generates(self, cfg_path, tmp_path, monkeypatch):
        out = str(tmp_path / "o")
        for stage in ("gen-data", "certify"):
            assert run(stage, "--config", str(cfg_path), "--out", out) == 0

        def refuse(*a, **kw):
            raise AssertionError("calibrate must not fit or generate data")

        monkeypatch.setattr(safecert.cli, "fit_direct", refuse)
        monkeypatch.setattr(safecert.cli, "fit_dp", refuse)
        monkeypatch.setattr(bm, "gen_dataset", refuse)
        assert run("calibrate", "--config", str(cfg_path), "--out", out) == 0
        for method in ("direct", "dp", "imp", "ssr"):
            assert (tmp_path / "o" / "cal" / f"bounds_{method}_a0_T2_s1.csv").exists()

    def test_direct_bounds_match_a_refit_reference(self, cfg_path, tmp_path):
        out = tmp_path / "o"
        assert run("sweep", "--config", str(cfg_path), "--out", str(out)) == 0
        # the old calibrate: refit direct, redraw the calibration set, score both
        cfg = load_config(path=cfg_path)
        region = bm.default_safe_region()
        params = bm.SynthSystemParams(alpha=0.0, sigma=cfg["system.sigma"], h=cfg["system.h"],
                                      beta_c=cfg["system.beta_c"], gamma_c=cfg["system.gamma_c"])
        ts = bm.TrajectorySet.from_csv((out / "data" / "trajs_a0_T2_s1.csv").read_text())
        model = fit_direct(cfg.kernel_spec("direct", 2), ts, region)
        cal_ts = bm.gen_dataset(params, region, cfg["data.n_calibration"], 2, 1,
                                purpose="cal-traj")
        calibrator = cal.calibrate(predict(model, cal_ts.initial_states),
                                   bm.trajectory_safe(region, cal_ts.states),
                                   n_bins=cfg["calibration.bins"],
                                   delta_conf=cfg["calibration.delta"])
        grid = bm.eval_grid(region, (cfg["grid.nx"], cfg["grid.ny"]))
        bounds = cal.certified_lower_bound(calibrator, predict(model, grid))
        head = header_comment(cfg.config_hash, 1, alpha="0", T=2, method="direct")
        want = format_table(["gx", "gy", "lower_bound"],
                            np.column_stack([grid, bounds]).tolist(), head)
        assert (out / "cal" / "bounds_direct_a0_T2_s1.csv").read_text() == want
        calibrator_text = (out / "cal" / "calibrator_direct_a0_T2_s1.json").read_text()
        assert calibrator_text == f"// {head}\n" + calibrator.to_json() + "\n"

    def test_calibrate_before_certify_names_the_missing_scores(self, cfg_path, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert run("gen-data", "--config", str(cfg_path), "--out", out) == 0
        capsys.readouterr()
        assert run("calibrate", "--config", str(cfg_path), "--out", out) == 1
        assert "cal/scores_direct_a0_T2_s1.csv" in capsys.readouterr().err

    def test_calibrate_imp_writes_bounds_in_unit_interval(self, cfg_path, tmp_path):
        out = tmp_path / "o"
        for stage in ("gen-data", "certify", "calibrate"):
            assert run(stage, "--config", str(cfg_path), "--method", "imp",
                       "--out", str(out)) == 0
        _, _, rows = parse_table((out / "cal" / "bounds_imp_a0_T2_s1.csv").read_text())
        bounds = rows[:, 2]
        assert bounds.size == 25
        assert np.all((bounds >= 0.0) & (bounds <= 1.0))
        assert not (out / "cal" / "bounds_direct_a0_T2_s1.csv").exists()

    def test_calibrate_barrier_exits_2(self, cfg_path, tmp_path):
        assert run("calibrate", "--config", str(cfg_path), "--method", "barrier",
                   "--out", str(tmp_path / "o")) == 2
