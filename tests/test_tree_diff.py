"""tests/golden/tree_diff.py: its file-by-file report, and a smoke run at HEAD."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TREE_DIFF = REPO / "tests" / "golden" / "tree_diff.py"


def _tree_diff():
    spec = importlib.util.spec_from_file_location("tree_diff", TREE_DIFF)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_differences_name_each_file_and_its_largest_shift(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    files = {
        "same.csv": ("# config=ab seed=1\nx,p\n1,0.25\n", "# config=ab seed=1\nx,p\n1,0.25\n"),
        "pred/moved.csv": ("x,p\n1,0.1\n2,-3.5e-01\n", "x,p\n1,0.1000000000002\n2,-3.5e-01\n"),
        "cal/report.json": ('{"n_bins": 4}\n', '{"n_bins": 5, "x": 1}\n'),
        "gone.csv": ("x\n1\n", None),
        "new.csv": (None, "x\n1\n"),
    }
    for path, texts in files.items():
        for root, text in zip((old, new), texts):
            if text is not None:
                (root / path).parent.mkdir(parents=True, exist_ok=True)
                (root / path).write_text(text)
    assert _tree_diff().differences(old, new) == [
        "cal/report.json: differs beyond its numbers",
        "gone.csv: only at the revision",
        "new.csv: only in the work tree",
        "pred/moved.csv: max |delta| 2e-13",
    ]
    assert _tree_diff().differences(old, new, ("at --threads 1", "at --threads 2"))[1:3] == [
        "gone.csv: only at --threads 1",
        "new.csv: only at --threads 2",
    ]


def test_summary_gives_each_kind_its_largest_shift_and_tolerance():
    moved = {"data/trajs_a0_T2_s1.csv": 0.0, "pred/dp_a0_T2_s1.csv": 3e-12,
             "pred/direct_a0_T2_s1.csv": 1.6e-9, "cal/report.json": None,
             "metrics.csv": 2e-13}
    assert _tree_diff().summary("tiny", moved) == [
        "tiny data/: largest shift 0 (tolerance 1e-12, files moved: 1)",
        "tiny mc/: largest shift 0 (tolerance 1e-12, files moved: 0)",
        "tiny pred/: largest shift 1.6e-09 (tolerance 1e-08, files moved: 2)",
        "tiny cal/: cal/report.json differs beyond its numbers (tolerance 1e-08, files moved: 1)",
        "tiny metrics: largest shift 2e-13 (tolerance 1e-08, files moved: 1)",
    ]


def test_head_prints_nothing():
    """``tree_diff.py HEAD`` on the tiny config, serial and pooled, finds
    every file of the work tree's sweeps as HEAD writes it, and the pooled
    tree equal to the serial one.  An uncommitted change to ``src/`` is held
    to HEAD's bytes too: a change that moves them must say so here."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    head = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", "--quiet", "HEAD"],
                          capture_output=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout with a HEAD commit")
    done = subprocess.run([sys.executable, str(TREE_DIFF), "HEAD", "--configs", "tiny"],
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "")
