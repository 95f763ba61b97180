"""Fit and score the default dependent dp cells; fail if a ridge system is
dense or scoring holds more than two query blocks.

    OPENBLAS_NUM_THREADS=1 python tests/golden/default_cell.py [--alpha A ...] [--T T ...] [--seed S]

runs ``safecert gen-data`` in a temporary directory on the default config
with ``data.mode = dependent`` (the non-Markovian cells the paper's claim is
about), narrowed to the chosen alphas, horizons and seed, reads back each
``data/pairs`` file it writes, taking alpha and T from the file's header,
and fits and scores the pairs as ``safecert certify`` does: ``dp.fit_dp``
with ``cfg.kernel_spec("dp", T)`` on the default safe region, which keeps
the pairs that start inside the region's box, then ``dp.backward_value``
and ``dp.evaluate_dp`` at the config's 40 x 40 grid, the evaluation under
``tracemalloc``.  For each cell it prints the pairs kept against the pairs
written, the system's rank, the fit time and the evaluation's traced peak.
The exit status is 1 when a fit is dense or when an evaluation's peak passes
2 * ``kernels.QUERY_BLOCK_BYTES`` (the kernel rows of the grid are built one
block at a time, so no 1600 x M array is held), and 0 otherwise.  By
default it runs the config's nine seed-1 cells (alpha 0, 0.5 and 0.95 at
T = 5, 10 and 15), each fit in at most 0.3 s, each evaluation peak at
3.8-4.6 MB (17-49 MB when grid blocks had at least 512 rows) and the whole
run in about 3 s at one BLAS thread on a 2-core Xeon; --alpha and --T pick
a subset of them.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from safecert import benchmark as bm  # noqa: E402
from safecert import cli, dp, io  # noqa: E402
from safecert.config import load_config  # noqa: E402
from safecert.kernels import QUERY_BLOCK_BYTES  # noqa: E402

DEFAULTS = load_config(text="")


def written_pairs(alphas: list[float], horizons: list[int], seed: int):
    """(config, [(alpha, T, pairs)]) of the cells ``safecert gen-data`` writes
    on the default dependent config narrowed to ``alphas``, ``horizons`` and
    ``seed``, ordered by T, then alpha."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.txt"
        config.write_text(f"data.mode = dependent\nseeds = {seed}\n"
                          f"system.alphas = {', '.join(map(repr, alphas))}\n"
                          f"horizons = {', '.join(map(str, horizons))}\n")
        if cli.main(["gen-data", "--config", str(config), "--out", tmp]) != 0:
            raise SystemExit("gen-data failed")
        cells = []
        for path in sorted(Path(tmp, "data").glob("pairs_*.csv")):
            header, _, data = io.parse_table(path.read_text())
            cells.append((float(header["alpha"]), int(header["T"]),
                          bm.OneStepPairs.from_table(data)))
        return load_config(config), sorted(cells, key=lambda c: (c[1], c[0]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--alpha", type=float, nargs="+", default=DEFAULTS["system.alphas"])
    parser.add_argument("--T", type=int, nargs="+", default=DEFAULTS["horizons"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    cfg, cells = written_pairs(args.alpha, args.T, args.seed)
    region = bm.default_safe_region()
    grid = bm.eval_grid(region, (cfg["grid.nx"], cfg["grid.ny"]))
    failed = 0
    for alpha, T, pairs in cells:
        start = time.perf_counter()
        model = dp.fit_dp(cfg.kernel_spec("dp", T), pairs, region,
                          ambiguity=cfg["dp.ambiguity"])
        took = time.perf_counter() - start
        stack = dp.backward_value(model, T)
        tracemalloc.start()
        try:
            dp.evaluate_dp(model, stack, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        system = model.gram
        form = "dense" if system.rank is None else f"rank {system.rank}"
        print(f"alpha={alpha:g} T={T} seed={args.seed}: M = {system.size} of {pairs.n} pairs, "
              f"{form}, fit {took:.2f} s, evaluation peak {peak / 2**20:.1f} MB", flush=True)
        failed += system.rank is None or peak > 2 * QUERY_BLOCK_BYTES
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
