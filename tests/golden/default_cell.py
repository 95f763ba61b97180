"""Fit the default dependent dp cells and fail if a ridge system is dense.

    OPENBLAS_NUM_THREADS=1 python tests/golden/default_cell.py [--alpha A ...] [--T T ...] [--seed S]

builds the dp training pairs of each (alpha, T) cell of the default config
with ``data.mode = dependent`` (the non-Markovian cells the paper's claim is
about) through the calls ``safecert gen-data`` makes, ``gen_dataset`` over
the config's trajectories and ``extract_onestep_pairs`` in dependent mode,
and fits them through the call ``safecert certify`` makes, ``dp.fit_dp``
with ``cfg.kernel_spec("dp", T)`` on the default safe region, which keeps
the pairs that start inside the region's box.  For each cell it prints the
pairs kept against the pairs built, the system's rank against the cap
M / 8 and the fit time.  The exit status is 0 when every fit is low rank
and 1 when one is dense.  By default it fits the config's nine seed-1
cells (alpha 0, 0.5 and 0.95 at T = 5, 10 and 15), each in at most 0.3 s
and about 2 s of fits in all at one BLAS thread on a 2-core Xeon; --alpha
and --T pick a subset of them.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from safecert import benchmark as bm  # noqa: E402
from safecert import dp, kernels  # noqa: E402
from safecert.cli import _Cell  # noqa: E402
from safecert.config import load_config  # noqa: E402

CONFIG = load_config(text="data.mode = dependent\n")
REGION = bm.default_safe_region()


def default_pairs(alpha: float, T: int, seed: int):
    """(kernel spec, pairs) of the default dependent dp cell (alpha, T, seed)."""
    params = _Cell(CONFIG, Path("."), alpha, T, seed).params
    trajs = bm.gen_dataset(params, REGION, CONFIG["data.n_trajectories"], T, seed)
    pairs = bm.extract_onestep_pairs(trajs, CONFIG.n_pairs(T), "dependent", seed,
                                     params=params, region=REGION)
    return CONFIG.kernel_spec("dp", T), pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--alpha", type=float, nargs="+", default=CONFIG["system.alphas"])
    parser.add_argument("--T", type=int, nargs="+", default=CONFIG["horizons"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    dense = 0
    for T in args.T:
        for alpha in args.alpha:
            spec, pairs = default_pairs(alpha, T, args.seed)
            start = time.perf_counter()
            system = dp.fit_dp(spec, pairs, REGION).gram
            took = time.perf_counter() - start
            m = system.size
            form = "dense" if system.rank is None else f"rank {system.rank}"
            print(f"alpha={alpha:g} T={T} seed={args.seed}: M = {m} of {pairs.n} pairs, {form} "
                  f"(cap {m // kernels._RANK_SHARE}), fit {took:.2f} s", flush=True)
            dense += system.rank is None
    return 1 if dense else 0


if __name__ == "__main__":
    sys.exit(main())
