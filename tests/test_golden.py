"""The dependent-pairs sweep against its golden manifest.

``DEPENDENT_CONFIG`` (tests/golden/tree_diff.py) reaches paths the c12 sweep
does not: dependent pairs, whose next states are mostly training inputs, one
dp fit per cell shared by dp, imp, ssr and barrier, per-seed draws shared
across three alphas, two horizons, a Monte Carlo oracle that fills two
blocks per seed, the last one partial, and a 17x17 partition, whose 289
rows fill a 256-row block of the interval iteration and a partial one.  Its manifest, ``tests/golden/sweep_dependent.json``, is written by
``tests/golden/regen.py`` and compared at the same tolerances as c12's.
"""

import json
from pathlib import Path

from safecert.cli import main

from golden.regen import GOLDEN_DEPENDENT, compare, manifest
from golden.tree_diff import DEPENDENT_CONFIG


def test_dependent_sweep_matches_its_manifest(tmp_path: Path):
    cfg, out = tmp_path / "dependent.cfg", tmp_path / "out"
    cfg.write_text(DEPENDENT_CONFIG)
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    problems, _ = compare(json.loads(GOLDEN_DEPENDENT.read_text()), manifest(out))
    assert problems == []
