"""Fit one default dependent dp cell and fail if its ridge system is dense.

    OPENBLAS_NUM_THREADS=1 python tests/golden/default_cell.py [--alpha A] [--T T] [--seed S]

builds the dp training pairs of one cell of the default config with
``data.mode = dependent`` (the non-Markovian cells the paper's claim is about)
through the calls ``safecert gen-data`` makes, ``gen_dataset`` over the
config's trajectories and ``extract_onestep_pairs`` in dependent mode, and
fits them as ``safecert certify`` does, with ``cfg.kernel_spec("dp", T)`` and
the next states as extra points.  It prints the system's size, its rank
against the cap M / 8 and the fit time.  The exit status is 0 when the fit
is low rank and 1 when it is dense.  The default cell, (alpha = 0, T = 15,
seed 1) at M = 15000, fits in about 5 s at one BLAS thread on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from safecert import benchmark as bm  # noqa: E402
from safecert import kernels  # noqa: E402
from safecert.cli import _Cell  # noqa: E402
from safecert.config import load_config  # noqa: E402


def default_pairs(alpha: float, T: int, seed: int):
    """(kernel spec, pairs) of the default dependent dp cell (alpha, T, seed)."""
    cfg = load_config(text="data.mode = dependent\n")
    params = _Cell(cfg, Path("."), alpha, T, seed).params
    region = bm.default_safe_region()
    trajs = bm.gen_dataset(params, region, cfg["data.n_trajectories"], T, seed)
    pairs = bm.extract_onestep_pairs(trajs, cfg.n_pairs(T), "dependent", seed,
                                     params=params, region=region)
    return cfg.kernel_spec("dp", T), pairs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--alpha", type=float, default=0.0)
    parser.add_argument("--T", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec, pairs = default_pairs(args.alpha, args.T, args.seed)
    start = time.perf_counter()
    system = kernels.fit_system(spec, pairs.x, pairs.x_next)
    took = time.perf_counter() - start
    m = system.size
    form = "dense" if system.rank is None else f"rank {system.rank}"
    print(f"alpha={args.alpha:g} T={args.T} seed={args.seed}: M = {m}, {form} "
          f"(cap {m // kernels._RANK_SHARE}), fit {took:.2f} s")
    return 1 if system.rank is None else 0


if __name__ == "__main__":
    sys.exit(main())
