"""Fit the default dependent dp cells and fail if a ridge system is dense.

    OPENBLAS_NUM_THREADS=1 python tests/golden/default_cell.py [--alpha A ...] [--T T ...] [--seed S]

runs ``safecert gen-data`` in a temporary directory on the default config
with ``data.mode = dependent`` (the non-Markovian cells the paper's claim is
about), narrowed to the chosen alphas, horizons and seed, reads back each
``data/pairs`` file it writes, taking alpha and T from the file's header,
and fits the pairs through the call ``safecert certify`` makes,
``dp.fit_dp`` with ``cfg.kernel_spec("dp", T)`` on the default safe region,
which keeps the pairs that start inside the region's box.  For each cell it
prints the pairs kept against the pairs written, the system's rank and the
fit time.  The exit status is 0 when every fit is low rank and 1 when one
is dense.  By default it fits the config's nine seed-1 cells (alpha 0, 0.5
and 0.95 at T = 5, 10 and 15), each in at most 0.3 s and about 2 s of fits
in all at one BLAS thread on a 2-core Xeon; --alpha and --T pick a subset
of them.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from safecert import benchmark as bm  # noqa: E402
from safecert import cli, dp, io  # noqa: E402
from safecert.config import load_config  # noqa: E402

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
    dense = 0
    for alpha, T, pairs in cells:
        start = time.perf_counter()
        system = dp.fit_dp(cfg.kernel_spec("dp", T), pairs, region).gram
        took = time.perf_counter() - start
        form = "dense" if system.rank is None else f"rank {system.rank}"
        print(f"alpha={alpha:g} T={T} seed={args.seed}: M = {system.size} of {pairs.n} pairs, "
              f"{form}, fit {took:.2f} s", flush=True)
        dense += system.rank is None
    return 1 if dense else 0


if __name__ == "__main__":
    sys.exit(main())
