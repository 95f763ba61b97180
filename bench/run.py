"""safecert benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload desk-dp --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports safecert from ``src/``
(nothing needs installing).  With ``--trace 0`` it prints the end-to-end
metrics: ``wall_s`` is the median time of one pass over the workload's cells,
repeated until ``--seconds`` have passed (at least one pass); ``setup_s`` is
the median of three fresh processes that import safecert and generate the
workload's inputs; ``peak_rss_mb`` is this process's peak RSS; the accuracy
figures are deterministic at a seed.  With ``--trace 1`` it prints per-layer
metrics from one traced pass (see tracing.py), the tracing overhead against
untraced passes of the same inputs, and thread-scaling rows.

The last line of standard output is the JSON result; the line before it
records versions, machine and provenance.  ``--workload all`` runs the three
workloads in turn, each in its own process, and prints a table.
``--scale toy`` runs the same code on tiny inputs in a few seconds.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPS = 3
ALL = ("desk-dp", "pipeline", "diag")

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# end-to-end metric -> unit; rmse_dp is the mean over the workload's cells of
# the RMSE of clipped dp estimates against Monte Carlo truth
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rmse_dp": "prob",
}

# accuracy of single routes, reported with the traced run; 0 where the
# workload does not run the route
QUALITY_METRICS = {
    "dp.excess_rmse": "prob",
    "direct.rmse": "prob",
    "direct.rel": "prob2",
    "calibration.bound_soundness": "ratio",
    "abstraction.imp_v0_mean": "prob",
    "dp.rho": "1",
}

# ungated thread-scaling rows of the traced run, each from one untraced pass
THREAD_METRICS = {
    "threads.blas1_wall_s": "s",
    "threads.blas_default_wall_s": "s",
    "threads.blas_default_certify_s": "s",
    "threads.cli2_wall_s": "s",
    "threads.cli2_certify_s": "s",
    "threads.cli2_blas1_wall_s": "s",
    "threads.cli2_blas1_certify_s": "s",
}


def load_program():
    """Put the checkout's ``src`` first on the path and import safecert from it."""
    if not (SRC / "safecert" / "__init__.py").is_file():
        sys.exit(f"error: no safecert sources at {SRC}; run from a safecert checkout")
    sys.path.insert(0, str(SRC))
    import safecert

    if Path(safecert.__file__).resolve().parent != (SRC / "safecert").resolve():
        sys.exit(f"error: imported safecert from {safecert.__file__}, not from {SRC}")
    return safecert


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=ALL + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full")
    # internal modes used by the child processes this script starts
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--pass-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--cli-threads", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--blas-threads", choices=("1", "default"), default="1", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_blas_threads(mode: str) -> None:
    """Fix the BLAS thread count of this process and its children; call before numpy loads.

    Timed passes use one BLAS thread: on a shared 2-core machine two BLAS
    threads made desk-dp passes spread about four times wider.  "default"
    leaves the count to the library (one thread per core).
    """
    for var in BLAS_VARS:
        if mode == "default":
            os.environ.pop(var, None)
        else:
            os.environ[var] = mode


# ------------------------------------------------------------------ environment

def _blas_threads() -> int | None:
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(workload: str, seed: int, config_hash: str, scale: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "config_hash": config_hash,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
    }


# ------------------------------------------------------------------ children

def _child(args, *extra: str, blas: str = "1", timeout: float = 170.0) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale, "--blas-threads", blas, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(extra)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def measure_setup(args) -> float:
    """Median wall time of fresh processes that import safecert and build the inputs."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        _child(args, "--setup-only")
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _pass_child(args, blas: str, cli_threads: int = 1) -> dict:
    proc = _child(args, "--pass-only", "--cli-threads", str(cli_threads), blas=blas)
    return json.loads(proc.stdout.splitlines()[-1])


def thread_rows(args, blas1_wall: float, ops) -> dict:
    """Thread-scaling rows: the untraced one-BLAS-thread pass of this run
    against fresh processes at the default BLAS thread count and, for the
    pipeline, the CLI's two-process pool with either BLAS setting."""
    from workloads import CellFailed

    rows = dict.fromkeys(THREAD_METRICS, 0.0)
    rows["threads.blas1_wall_s"] = blas1_wall
    try:
        res = ops.call("pass with default BLAS threads", _pass_child, args, "default")
        rows["threads.blas_default_wall_s"] = res["wall_s"]
        if args.workload == "pipeline":
            rows["threads.blas_default_certify_s"] = res["stages"]["certify"]
            for prefix, blas in (("threads.cli2", "default"), ("threads.cli2_blas1", "1")):
                res = ops.call(f"pass at --threads 2, BLAS {blas}", _pass_child, args, blas, cli_threads=2)
                rows[f"{prefix}_wall_s"] = res["wall_s"]
                rows[f"{prefix}_certify_s"] = res["stages"]["certify"]
    except CellFailed:
        pass
    return rows


# ------------------------------------------------------------------ one workload

def run_workload(args) -> int:
    set_blas_threads(args.blas_threads)
    load_program()
    import workloads as wl
    from tracing import LAYER_METRICS, Tracer

    work_dir = RUN_DIR / f"{args.workload}-s{args.seed}-{os.getpid()}"
    ops = wl.Ops()
    try:
        if args.setup_only:
            wl.setup(args.workload, args.seed, args.scale, work_dir)
            return 0
        if args.pass_only:
            inputs = wl.setup(args.workload, args.seed, args.scale, work_dir)
            t0 = time.perf_counter()
            res = wl.run_pass(inputs, ops, cli_threads=args.cli_threads)
            wall = time.perf_counter() - t0
            wl.score_pass(inputs, ops, res)
            print(json.dumps({"wall_s": wall, "stages": res.get("stages", {}), "failed": ops.failed}))
            return 0 if ops.failed == 0 else 1

        record = {}
        if args.trace == 0:
            setup_s = measure_setup(args)
            inputs = wl.setup(args.workload, args.seed, args.scale, work_dir)
            walls, scores = [], []
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                res = wl.run_pass(inputs, ops)
                walls.append(time.perf_counter() - t0)
                scores.append(wl.score_pass(inputs, ops, res))
                if time.perf_counter() - start >= args.seconds:
                    break
            ops.check("passes agree", all(s == scores[0] for s in scores))
            values = {
                "wall_s": statistics.median(walls),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "rmse_dp": scores[0].get("rmse_dp", float("nan")),
            }
            units = END_TO_END
            record.update(passes=walls, scores=scores[0])
        else:
            tracer = Tracer(run_id=f"{args.workload}:s{args.seed}")
            with tracer.installed():
                inputs = wl.setup(args.workload, args.seed, args.scale, work_dir)
            # untraced, traced, untraced: the mean of the untraced passes
            # cancels a steady drift in machine speed and the first-pass cost
            walls, scores = [], []
            for traced in (False, True, False):
                with tracer.installed() if traced else nullcontext():
                    t0 = time.perf_counter()
                    res = wl.run_pass(inputs, ops, span=tracer.span if traced else None)
                    walls.append(time.perf_counter() - t0)
                scores.append(wl.score_pass(inputs, ops, res))
            ops.check("traced pass agrees", all(s == scores[0] for s in scores))
            untraced, traced = (walls[0] + walls[2]) / 2.0, walls[1]
            scores = scores[1]
            record.update(scores=scores, passes=walls)
            values = tracer.layer_metrics()
            values.update({k: scores.get(k, 0.0) for k in QUALITY_METRICS})
            values["trace.overhead_s"] = traced - untraced
            values["trace.spans"] = float(len(tracer.spans))
            values.update(thread_rows(args, untraced, ops))
            units = {**LAYER_METRICS, **QUALITY_METRICS, "trace.overhead_s": "s", "trace.spans": "count",
                     **THREAD_METRICS}
            trace_file = RUN_DIR / "traces" / f"{args.workload}-s{args.seed}.json"
            tracer.write(trace_file)
            record["trace_file"] = str(trace_file.relative_to(ROOT))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    record.update(environment(args.workload, args.seed, inputs.cfg.config_hash, args.scale))
    record["failures"] = ops.failures[:20]
    print(json.dumps({"provenance": record}))
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    if not (SRC / "safecert" / "__init__.py").is_file():
        sys.exit(f"error: no safecert sources at {SRC}; run from a safecert checkout")
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ALL:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"error: {workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
        res = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        print(f"{workload}: ops_attempted {res['attempted']} ops_failed {res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
            total["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
