"""Compare the sweep trees of a git revision and of the work tree, file by file.

    python tests/golden/tree_diff.py REV [--configs NAME,...]

exports REV with ``git archive`` into a temporary directory, then runs
``safecert sweep`` from REV's ``src`` and from the work tree's ``src`` on six
configs, each serially and at ``--threads 2``:

* ``sweep``: ``SWEEP_CONFIG`` of tests/test_acceptance.py (criterion c12);
* ``tiny``: ``TINY_CONFIG`` of tests/test_cli.py;
* ``pipeline``: the benchmark's pipeline config (bench/workloads.py) at seed 7;
* ``dependent``: all five methods at three alphas, two horizons and two
  seeds on dependent pairs, 1000 rollouts at each of the 24 safe points of a
  5x5 grid, so each seed's Monte Carlo fills two blocks, the last one
  partial, and imp and ssr over a 17x17 partition (289 cells: a 256-row
  block and a partial one); tier-1 also checks its sweep against
  tests/golden/sweep_dependent.json (tests/test_golden.py);
* ``penalised``: all five methods on dependent pairs at two horizons, with
  45 pairs per cell, fewer than the trajectories hold, so the pairs are a
  subsample drawn on the ``pairs-sub`` stream, and a dp ambiguity above 0,
  so every backward step subtracts the norm penalty;
* ``low-rank``: all five methods on 800 iid pairs per cell at two seeds,
  with a dp lengthscale of 2.5 and lam 1e-6, so every dp fit takes the
  low-rank path of ``kernels.fit_system`` (rank 90-92 under its cap of 100)
  and imp and ssr read the low-rank column solve, over a 17x17 partition;
  tier-1 also checks its sweep against tests/golden/sweep_low_rank.json
  (tests/test_golden.py).

The config texts are the work tree's, on both sides.  Every run pins one BLAS
thread (OPENBLAS_NUM_THREADS=1): the last bits of a product depend on how
OpenBLAS splits it between threads.  For each config, the work tree's
``--threads 2`` tree is also compared with its ``--threads 1`` tree, so one
command checks both halves of a byte claim: against the revision, and pooled
against serial.  One line is printed per file whose sha256 differs, with the
largest difference of its numbers when the two files differ in nothing else;
nothing is printed when every tree matches.  When a file differs, a summary
follows the per-file lines: for each config and kind of file (``data/``,
``mc/``, ``pred/``, ``cal/`` and the top-level metrics tables) the largest
shift between the revision and the work tree at either thread count, beside
the tolerance tests/golden/regen.py allows that kind.
The exit status is 0 when nothing differs, 1 when a file differs and 2 when
a sweep fails.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

DEPENDENT_CONFIG = """
system.alphas = 0, 0.5, 0.95
horizons = 2, 4
seeds = 1, 2
data.n_trajectories = 30
data.n_calibration = 40
data.mode = dependent
grid.nx = 5
grid.ny = 5
mc.rollouts = 1000
methods = direct, dp, imp, ssr, barrier
abstraction.nx = 17
abstraction.ny = 17
calibration.bins = 4
"""

PENALISED_CONFIG = """
system.alphas = 0, 0.95
horizons = 2, 4
seeds = 1
data.n_trajectories = 30
data.n_pairs = 45
data.n_calibration = 40
data.mode = dependent
dp.ambiguity = 0.002
grid.nx = 5
grid.ny = 5
mc.rollouts = 200
methods = direct, dp, imp, ssr, barrier
abstraction.nx = 6
abstraction.ny = 6
calibration.bins = 4
"""

LOW_RANK_CONFIG = """
system.alphas = 0, 0.95
horizons = 4
seeds = 1, 2
data.n_trajectories = 200
data.n_pairs = 800
data.n_calibration = 40
kernel.dp.variances = 6.25, 6.25
kernel.dp.lam = 1e-6
grid.nx = 5
grid.ny = 5
mc.rollouts = 200
methods = direct, dp, imp, ssr, barrier
abstraction.nx = 17
abstraction.ny = 17
calibration.bins = 4
"""

# the kinds of file a sweep writes, in summary order
KINDS = ("data/", "mc/", "pred/", "cal/", "metrics")

# a decimal number as the tables and JSON reports write them
_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan")


def configs() -> dict[str, str]:
    """The config text of each name, read from the work tree."""
    for path in (REPO / "src", REPO / "tests", REPO):
        sys.path.insert(0, str(path))
    from bench.workloads import config_text
    from test_acceptance import SWEEP_CONFIG
    from test_cli import TINY_CONFIG

    return {"sweep": SWEEP_CONFIG, "tiny": TINY_CONFIG,
            "pipeline": config_text("pipeline", 7, "full"), "dependent": DEPENDENT_CONFIG,
            "penalised": PENALISED_CONFIG, "low-rank": LOW_RANK_CONFIG}


def export(rev: str, dest: Path) -> Path:
    """Extract the files of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=zip", rev],
                             check=True, capture_output=True).stdout
    with zipfile.ZipFile(io.BytesIO(archive)) as zf:
        zf.extractall(dest)
    return dest


def sweep(tree: Path, config: Path, out: Path, threads: int) -> subprocess.CompletedProcess:
    """``safecert sweep`` run from the ``src`` of ``tree``, at one BLAS thread."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "safecert.cli", "sweep", "--config", str(config),
                           "--out", str(out), "--threads", str(threads)],
                          env=env, capture_output=True, text=True)


def digest(root: Path) -> dict[str, str]:
    """path -> sha256 of every file under ``root``, paths relative to it."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def max_delta(a: str, b: str) -> float | None:
    """The largest difference between the numbers of two texts that are
    the same around their numbers; None when anything else differs."""
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return None
    pairs = zip(_NUMBER.findall(a), _NUMBER.findall(b))
    return max((abs(float(x) - float(y)) for x, y in pairs if x != y), default=0.0)


def shifts(old: Path, new: Path) -> dict[str, float | None]:
    """path -> the largest shift of its numbers, for each file under ``old``
    or ``new`` whose sha256 differs; None for a file only one tree holds or
    one that differs beyond its numbers."""
    a, b = digest(old), digest(new)
    return {path: max_delta((old / path).read_text(), (new / path).read_text())
            if path in a and path in b else None
            for path in sorted(a.keys() | b.keys()) if a.get(path) != b.get(path)}


def differences(old: Path, new: Path,
                sides: tuple[str, str] = ("at the revision", "in the work tree")) -> list[str]:
    """One line per file under ``old`` or ``new`` whose sha256 differs; a
    file only one tree holds is "only" ``sides[0]`` or ``sides[1]``."""
    lines = []
    for path, delta in shifts(old, new).items():
        if not (new / path).is_file():
            lines.append(f"{path}: only {sides[0]}")
        elif not (old / path).is_file():
            lines.append(f"{path}: only {sides[1]}")
        else:
            lines.append(f"{path}: " + ("differs beyond its numbers" if delta is None
                                        else f"max |delta| {delta:.3g}"))
    return lines


def summary(name: str, moved: dict[str, float | None]) -> list[str]:
    """One line per kind of file: the largest shift among the files of
    ``moved`` (path -> shift, as ``shifts`` gives) and that kind's golden
    tolerance.  A file that differs beyond its numbers is named instead."""
    for path in (REPO / "src", REPO / "tests" / "golden"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from regen import kind, tolerance

    lines = []
    for k in KINDS:
        mine = {path: delta for path, delta in moved.items() if kind(path) == k}
        beyond = [path for path, delta in mine.items() if delta is None]
        largest = (f"{beyond[0]} differs beyond its numbers" if beyond
                   else f"largest shift {max(mine.values(), default=0.0):.3g}")
        lines.append(f"{name} {k}: {largest} (tolerance {tolerance(k):g}, "
                     f"files moved: {len(mine)})")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", help="the git revision to compare the work tree with")
    parser.add_argument("--configs", default=None,
                        help="comma-separated config names (default: all of them)")
    args = parser.parse_args(argv)
    texts = configs()
    names = args.configs.split(",") if args.configs else list(texts)
    unknown = sorted(set(names) - texts.keys())
    if unknown:
        parser.error(f"unknown config {unknown}; valid: {sorted(texts)}")
    found = 0
    moved: dict[str, dict[str, float | None]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"rev": export(args.rev, tmp / "rev"), "work": REPO}
        for name in names:
            config = tmp / f"{name}.cfg"
            config.write_text(texts[name])
            moved[name] = {}
            for threads in (1, 2):
                outs = {side: tmp / side / "out" / f"{name}-t{threads}" for side in trees}
                for side, tree in trees.items():
                    done = sweep(tree, config, outs[side], threads)
                    if done.returncode != 0:
                        print(f"{name} --threads {threads}: the sweep at {side} exited "
                              f"{done.returncode}: {done.stderr.strip()}")
                        return 2
                for line in differences(outs["rev"], outs["work"]):
                    print(f"{name} --threads {threads}: {line}")
                    found += 1
                for path, delta in shifts(outs["rev"], outs["work"]).items():
                    before = moved[name].get(path, 0.0)
                    moved[name][path] = (None if delta is None or before is None
                                         else max(delta, before))
            pooled, serial = (tmp / "work" / "out" / f"{name}-t{t}" for t in (2, 1))
            for line in differences(serial, pooled, ("at --threads 1", "at --threads 2")):
                print(f"{name} --threads 2 against --threads 1 in the work tree: {line}")
                found += 1
    if found:
        for name in names:
            for line in summary(name, moved[name]):
                print(f"summary: {line}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
