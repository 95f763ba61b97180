"""Golden manifests of three small sweeps: the outputs a refactor must leave unchanged.

Each manifest describes every file that ``safecert sweep`` writes for one
config: its path, header fields and column names, and its numbers, rounded
or summarised so that the manifest stays small.

* ``tests/golden/sweep.json``: ``SWEEP_CONFIG`` (tests/test_acceptance.py),
  iid pairs and all five methods at one horizon; acceptance criterion 12
  compares the first of its two sweeps with it.
* ``tests/golden/sweep_dependent.json``: ``DEPENDENT_CONFIG``
  (tests/golden/tree_diff.py), dependent pairs, all five methods, three
  alphas, two horizons and two seeds, with each seed's Monte Carlo filling
  two blocks, the last one partial, and imp and ssr on a 17x17 partition;
  tests/test_golden.py compares its sweep with it.
* ``tests/golden/sweep_low_rank.json``: ``LOW_RANK_CONFIG``
  (tests/golden/tree_diff.py), iid pairs whose dp fits all take the
  low-rank path, all five methods at one horizon and two seeds;
  tests/test_golden.py compares its sweep with it.

A sweep is compared with its manifest within a tolerance per kind of file:

* ``data/`` and ``mc/``: 1e-12, since they come from the random streams and
  elementwise steps only;
* estimates, scores, bounds, calibrators, barrier reports and metrics: 1e-8
  absolute, which absorbs BLAS and platform noise in the ridge solves;
* file lists, headers, column names, row counts, bin counts and every other
  integer, flag or string: exact.

The numbers the pipeline reports, the estimates in ``pred/`` and the
metrics, are stored value by value, rounded to 10 decimals, and so are the
calibrator and barrier reports.  Every other numeric column, and the grid
coordinates ``gx, gy`` everywhere, is summarised by its count, min, max, sum
and a weighted sum.  When every value moves by at most the tolerance, min
and max move by at most the tolerance and the sums by at most the tolerance
times the count or the summed weights, so the check never fails a change
that keeps to the tolerance; a change to the random streams, the dynamics or
a fit moves them by far more.  The weighted sum also catches reordered rows.

Regenerating accepts whatever the code now writes, so it is a deliberate
act.  Run

    PYTHONPATH=src python tests/golden/regen.py [sweep] [dependent] [low-rank]

(every manifest when no name is given) and record in CHANGES.md why, with
the largest shift per kind that it prints.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

from safecert.io import parse_table

GOLDEN = Path(__file__).with_name("sweep.json")
GOLDEN_DEPENDENT = Path(__file__).with_name("sweep_dependent.json")
GOLDEN_LOW_RANK = Path(__file__).with_name("sweep_low_rank.json")

_DECIMALS = 10
_STORED = ("pred/", "metrics")  # files whose numeric columns are stored value by value
_COORDINATES = ("gx", "gy")


def kind(path: str) -> str:
    """The kind of a sweep file at ``path`` (relative to the sweep): its
    directory, or "metrics" at the top."""
    return path.split("/", 1)[0] + "/" if "/" in path else "metrics"


def tolerance(path: str) -> float:
    """The largest shift a value of the file at ``path`` (relative to the sweep) may make."""
    return 1e-12 if kind(path) in ("data/", "mc/") else 1e-8


def _weights(n: int) -> list[float]:
    # integer arithmetic and one correctly rounded division: the same on every platform
    return [((i * 7919) % 1000 - 499.5) / 499.5 for i in range(n)]


def _summary(values: list[float]) -> dict:
    return {"n": len(values), "min": min(values), "max": max(values), "sum": math.fsum(values),
            "wsum": math.fsum(w * v for w, v in zip(_weights(len(values)), values))}


def _rounded(body):
    if isinstance(body, float):
        return round(body, _DECIMALS)
    if isinstance(body, list):
        return [_rounded(v) for v in body]
    if isinstance(body, dict):
        return {k: _rounded(v) for k, v in body.items()}
    return body


def describe(path: str, text: str) -> dict:
    """The manifest entry of one output file, ``path`` relative to the sweep."""
    first, _, rest = text.partition("\n")
    header = dict(tok.split("=", 1) for tok in first.lstrip("#/").split() if "=" in tok)
    entry = {"path": path, "header": header}
    if path.endswith(".json"):
        entry["body"] = _rounded(json.loads(rest))
        return entry
    _, columns, cells = parse_table(text, dtype=str)
    entry["columns"] = columns
    entry["data"] = {}
    for name, column in zip(columns, cells.T.tolist()):
        try:
            values = [float(v) for v in column]
        except ValueError:
            entry["data"][name] = {"values": column}  # strings, compared exactly
            continue
        if not path.startswith(_STORED) or name in _COORDINATES:
            entry["data"][name] = {"summary": _summary(values)}
        else:
            entry["data"][name] = {"values": [round(v, _DECIMALS) for v in values]}
    return entry


def manifest(root: Path) -> dict:
    """The manifest of every file under a sweep's output directory ``root``."""
    return {"files": [describe(p.relative_to(root).as_posix(), p.read_text())
                      for p in sorted(root.rglob("*")) if p.is_file()]}


def _compare_summary(want: dict, got: dict, tol: float) -> tuple[bool, float]:
    """(within tolerance, smallest largest per-value shift the summaries imply)."""
    n = want["n"]
    if got["n"] != n:
        return False, math.inf
    w_abs = math.fsum(abs(w) for w in _weights(n))
    # rounding of the two fsums of n terms of magnitude at most `big`
    big = max(abs(want["min"]), abs(want["max"]), abs(got["min"]), abs(got["max"]))
    slack = 2.0 ** -50 * n * big
    d_ends = max(abs(got["min"] - want["min"]), abs(got["max"] - want["max"]))
    d_sum, d_wsum = abs(got["sum"] - want["sum"]), abs(got["wsum"] - want["wsum"])
    ok = d_ends <= tol and d_sum <= n * tol + slack and d_wsum <= w_abs * tol + slack
    return ok, max(d_ends, d_sum / n, d_wsum / w_abs)


def _compare_values(want, got, tol: float, where: str, problems: list[str]) -> float:
    """Compare rounded JSON values; returns the largest float shift seen."""
    if isinstance(want, float) and isinstance(got, float):
        shift = abs(got - want)
        if not shift <= tol + 10.0 ** -_DECIMALS:
            problems.append(f"{where}: {got!r} differs from {want!r} by more than {tol:g}")
        return shift
    if type(want) is not type(got):
        problems.append(f"{where}: {got!r} is not {want!r}")
        return 0.0
    if isinstance(want, list) and len(want) == len(got):
        return max([_compare_values(w, g, tol, f"{where}[{i}]", problems)
                    for i, (w, g) in enumerate(zip(want, got))], default=0.0)
    if isinstance(want, dict) and want.keys() == got.keys():
        return max([_compare_values(want[k], got[k], tol, f"{where}.{k}", problems)
                    for k in want], default=0.0)
    if want != got:
        problems.append(f"{where}: {got!r} is not {want!r}")
    return 0.0


def compare(want: dict, got: dict) -> tuple[list[str], dict[str, float]]:
    """(mismatches, the largest shift per kind of file) of manifest ``got`` against ``want``.

    A kind is what ``kind`` gives a file's path (``data/``, ``mc/``,
    ``pred/``, ``cal/`` or ``metrics``); a summarised column contributes the
    smallest largest per-value shift its summary implies.
    """
    problems: list[str] = []
    shifts: dict[str, float] = {}
    want_files = {e["path"]: e for e in want["files"]}
    got_files = {e["path"]: e for e in got["files"]}
    if want_files.keys() != got_files.keys():
        problems.append(f"file lists differ: missing {sorted(want_files.keys() - got_files.keys())}, "
                        f"extra {sorted(got_files.keys() - want_files.keys())}")
    for path in sorted(want_files.keys() & got_files.keys()):
        w, g = want_files[path], got_files[path]
        tol = tolerance(path)
        shift = 0.0
        for key in ("header", "columns"):
            if w.get(key) != g.get(key):
                problems.append(f"{path} {key}: {g.get(key)} is not {w.get(key)}")
        if "body" in w:
            shift = _compare_values(w["body"], g.get("body"), tol, path, problems)
        for name, col in w.get("data", {}).items():
            got_col = g.get("data", {}).get(name, {})
            if "summary" in col and "summary" in got_col:
                ok, s = _compare_summary(col["summary"], got_col["summary"], tol)
                if not ok:
                    problems.append(f"{path} column {name}: summary {got_col['summary']} is not "
                                    f"within {tol:g} per value of {col['summary']}")
            else:
                s = _compare_values(col.get("values"), got_col.get("values"), tol,
                                    f"{path} column {name}", problems)
            shift = max(shift, s)
        shifts[kind(path)] = max(shifts.get(kind(path), 0.0), shift)
    return problems, shifts


def regenerate(config: str, golden: Path) -> int:
    """Run the sweep of ``config`` and write its manifest to ``golden``,
    printing the largest shift per kind against the manifest it replaces."""
    from safecert.cli import main as cli

    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "sweep.cfg", Path(tmp) / "out"
        cfg.write_text(config)
        if cli(["sweep", "--config", str(cfg), "--out", str(out)]) != 0:
            print(f"the sweep failed; {golden.name} is unchanged", file=sys.stderr)
            return 1
        new = manifest(out)
    if golden.exists():
        problems, shifts = compare(json.loads(golden.read_text()), new)
        print(f"{len(problems)} mismatches against the old {golden.name}; "
              "largest shift per kind:")
        for k, shift in sorted(shifts.items()):
            print(f"  {k}: {shift:.3g}")
    # one line per file, so a regeneration diffs file by file
    lines = ",\n".join(json.dumps(entry, separators=(",", ":")) for entry in new["files"])
    golden.write_text(f'{{"files": [\n{lines}\n]}}\n')
    print(f"wrote {golden} ({len(new['files'])} files)")
    return 0


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from golden.tree_diff import DEPENDENT_CONFIG, LOW_RANK_CONFIG
    from test_acceptance import SWEEP_CONFIG

    goldens = {"sweep": (SWEEP_CONFIG, GOLDEN), "dependent": (DEPENDENT_CONFIG, GOLDEN_DEPENDENT),
               "low-rank": (LOW_RANK_CONFIG, GOLDEN_LOW_RANK)}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help=f"manifests to write (default: {', '.join(goldens)})")
    names = parser.parse_args(argv).names or list(goldens)
    unknown = sorted(set(names) - goldens.keys())
    if unknown:
        parser.error(f"unknown manifest {unknown}; valid: {sorted(goldens)}")
    return max(regenerate(*goldens[name]) for name in names)


if __name__ == "__main__":
    sys.exit(main())
