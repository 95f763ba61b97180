"""The dependent-pairs and low-rank sweeps against their golden manifests.

``DEPENDENT_CONFIG`` (tests/golden/tree_diff.py) reaches paths the c12 sweep
does not: dependent pairs, whose next states are mostly training inputs, one
dp fit per cell shared by dp, imp, ssr and barrier, per-seed draws shared
across three alphas, two horizons, a Monte Carlo oracle that fills two
blocks per seed, the last one partial, and a 17x17 partition, whose 289
rows fill a 256-row block of the interval iteration and a partial one.
``LOW_RANK_CONFIG`` is the one sweep whose dp fits take the low-rank path
of ``kernels.fit_system``, so imp and ssr read the Woodbury column solve.
Their manifests, ``tests/golden/sweep_dependent.json`` and
``tests/golden/sweep_low_rank.json``, are written by
``tests/golden/regen.py`` and compared at the same tolerances as c12's.
"""

import json
from pathlib import Path

from safecert import dp
from safecert.cli import main

from golden.regen import GOLDEN_DEPENDENT, GOLDEN_LOW_RANK, compare, manifest
from golden.tree_diff import DEPENDENT_CONFIG, LOW_RANK_CONFIG


def test_dependent_sweep_matches_its_manifest(tmp_path: Path):
    cfg, out = tmp_path / "dependent.cfg", tmp_path / "out"
    cfg.write_text(DEPENDENT_CONFIG)
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    problems, _ = compare(json.loads(GOLDEN_DEPENDENT.read_text()), manifest(out))
    assert problems == []


def test_low_rank_sweep_matches_its_manifest(tmp_path: Path, monkeypatch):
    """Every dp fit of the sweep (one per seed: iid pairs are shared across
    alpha) holds the low-rank representation; a change to the pivot
    tolerance or the rank cap that sent one down the dense path would leave
    the manifest guarding nothing of it."""
    ranks = []

    def recorded(*args):
        system = fit_system(*args)
        ranks.append(system.rank)
        return system

    fit_system = dp.fit_system
    monkeypatch.setattr(dp, "fit_system", recorded)
    cfg, out = tmp_path / "low-rank.cfg", tmp_path / "out"
    cfg.write_text(LOW_RANK_CONFIG)
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(ranks) == 2 and None not in ranks
    problems, _ = compare(json.loads(GOLDEN_LOW_RANK.read_text()), manifest(out))
    assert problems == []
