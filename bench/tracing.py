"""Per-layer spans and work counters for the traced benchmark run.

Nothing inside safecert is instrumented.  ``Tracer.install`` wraps public
functions of the safecert modules and rebinds every module attribute that
refers to them, so both the benchmark's own calls and the calls between
safecert modules go through the wrappers (``safecert.dp.fit_weights`` is the
same object as ``safecert.kernels.fit_weights`` and is rebound with it).
``uninstall`` puts the originals back; untraced runs never install anything.

Spans stay in memory as (name, start, end, parent) rows and are written once
by ``write``.  A layer's ``_s`` metric is the summed self time of its spans:
each span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute) -> span name; methods are given as "Class.method"
SPANNED = {
    ("kernels", "gram_matrix"): "kernels.gram_matrix",
    ("kernels", "fit_weights"): "kernels.fit_weights",
    ("kernels", "GramSystem.weights_at"): "kernels.weights_at",
    ("dp", "fit_dp"): "dp.fit_dp",
    ("dp", "backward_value"): "dp.backward_value",
    ("dp", "evaluate_dp"): "dp.evaluate_dp",
    ("dp", "spectral_decay"): "dp.spectral_decay",
    ("direct", "fit_direct"): "direct.fit_direct",
    ("direct", "predict"): "direct.predict",
    ("benchmark", "gen_dataset"): "benchmark.gen_dataset",
    ("benchmark", "mc_ground_truth"): "benchmark.mc_ground_truth",
    ("benchmark", "extract_onestep_pairs"): "benchmark.extract_onestep_pairs",
    ("benchmark", "TrajectorySet.to_csv"): "benchmark.csv",
    ("benchmark", "TrajectorySet.from_csv"): "benchmark.csv",
    ("benchmark", "OneStepPairs.to_csv"): "benchmark.csv",
    ("benchmark", "OneStepPairs.from_csv"): "benchmark.csv",
    ("benchmark", "GroundTruthGrid.to_csv"): "benchmark.csv",
    ("benchmark", "GroundTruthGrid.from_csv"): "benchmark.csv",
    ("io", "atomic_write"): "io.atomic_write",
    ("abstraction", "build_partition"): "abstraction.build_partition",
    ("abstraction", "empirical_cell_probs"): "abstraction.empirical_cell_probs",
    ("abstraction", "imp_value_iteration"): "abstraction.imp_value_iteration",
    ("abstraction", "ssr_value_iteration"): "abstraction.ssr_value_iteration",
    ("barrier", "fit_barrier_candidate"): "barrier.fit_barrier_candidate",
    ("barrier", "check_barrier"): "barrier.check_barrier",
    ("calibration", "calibrate"): "calibration.calibrate",
    ("calibration", "certified_lower_bound"): "calibration.certified_lower_bound",
    ("metrics", "brier_decomposition_mc"): "metrics.brier_decomposition_mc",
    ("config", "load_config"): "config.load_config",
}

# called too often for a span each; counted only
COUNTED = {
    ("benchmark", "simulate_batch"): "benchmark.simulate_batch_calls",
    ("rng", "stream"): "rng.stream_calls",
    ("abstraction", "imp_inner_min"): "abstraction.imp_inner_min_calls",
}

CLI_STAGES = ("gen-data", "mc-oracle", "certify", "calibrate", "evaluate")

# every per-layer metric with its unit, in report order; layers a workload
# does not reach report 0
LAYER_METRICS = {
    "kernels.gram_matrix_s": "s",
    "kernels.fit_weights_s": "s",
    "kernels.weights_at_s": "s",
    "kernels.fit_weights_calls": "count",
    "kernels.repeat_fit_share": "ratio",
    "kernels.max_m": "count",
    "kernels.solve_rhs": "count",
    "kernels.factor_gflop": "GFLOP",
    "kernels.solve_gflop": "GFLOP",
    "kernels.factor_mb": "MB",
    "dp.fit_dp_calls": "count",
    "dp.fit_dp_s": "s",
    "dp.backward_value_s": "s",
    "dp.evaluate_dp_s": "s",
    "dp.spectral_decay_s": "s",
    "dp.spectral_iterations": "count",
    "direct.fit_direct_calls": "count",
    "direct.fit_direct_s": "s",
    "direct.predict_s": "s",
    "benchmark.gen_dataset_s": "s",
    "benchmark.mc_ground_truth_s": "s",
    "benchmark.extract_onestep_pairs_s": "s",
    "benchmark.csv_s": "s",
    "benchmark.simulate_batch_calls": "count",
    "benchmark.simulated_steps": "count",
    "rng.stream_calls": "count",
    "io.atomic_write_s": "s",
    "io.bytes_written": "bytes",
    "io.files_written": "count",
    **{f"cli.{stage.replace('-', '_')}_s": "s" for stage in CLI_STAGES},
    "abstraction.build_partition_s": "s",
    "abstraction.empirical_cell_probs_s": "s",
    "abstraction.imp_value_iteration_s": "s",
    "abstraction.ssr_value_iteration_s": "s",
    "abstraction.imp_inner_min_calls": "count",
    "abstraction.dead_rows": "count",
    "barrier.fit_barrier_candidate_s": "s",
    "barrier.check_barrier_s": "s",
    "calibration.calibrate_s": "s",
    "calibration.certified_lower_bound_s": "s",
    "calibration.n_bins": "bins",
    "metrics.brier_decomposition_mc_s": "s",
    "config.load_config_s": "s",
}


def _resolve(owner, dotted: str):
    """(holder, attribute name, raw attribute) for "f" or "Class.f"."""
    holder = owner
    *path, attr = dotted.split(".")
    for part in path:
        holder = getattr(holder, part)
    return holder, attr, holder.__dict__[attr]


class Tracer:
    """Spans and counters of one traced run, identified by ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self.factor_mb = 0.0
        self.max_m = 0
        self._stack: list[int] = []
        self._fit_keys: set = set()
        self._bins: list[int] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ spans
    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _spanned(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, name: str, fn, before=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            if before is not None:
                before(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ work counters
    def _on_fit_weights(self, spec, train_inputs):
        x = np.ascontiguousarray(np.atleast_2d(np.asarray(train_inputs, dtype=float)))
        m = x.shape[0]
        key = (spec.lengthscales, spec.lam, x.shape, hashlib.sha1(x.tobytes()).hexdigest())
        self.counters["kernels.fit_weights_calls"] += 1
        if key in self._fit_keys:
            self.counters["kernels.repeat_fits"] += 1
        self._fit_keys.add(key)
        self.max_m = max(self.max_m, m)
        # computed, not measured: dense Cholesky flops and factor size
        self.counters["kernels.factor_gflop"] += m ** 3 / 3.0 / 1e9
        self.factor_mb = max(self.factor_mb, 8.0 * m * m / 1e6)

    def _on_weights_at(self, system, query):
        rhs = np.atleast_2d(np.asarray(query)).shape[0]
        m = system.size
        self.counters["kernels.solve_rhs"] += rhs
        # computed: two triangular solves of m^2 flops each per right-hand side
        self.counters["kernels.solve_gflop"] += 2.0 * m * m * rhs / 1e9

    def _on_simulate_batch(self, params, x0s, T, rng):
        self.counters["benchmark.simulated_steps"] += np.atleast_2d(x0s).shape[0] * int(T)

    def _on_atomic_write(self, path, text):
        self.counters["io.files_written"] += 1
        self.counters["io.bytes_written"] += len(text.encode("utf-8"))

    def _on_cell_probs(self, probs):
        n = probs.shape[1]
        # dead rows are replaced by the exact uniform row
        self.counters["abstraction.dead_rows"] += int(np.sum(np.all(probs == 1.0 / n, axis=1)))

    def _on_calibrate(self, calibrator):
        self._bins.append(calibrator.n_bins)

    def _on_spectral(self, decay):
        self.counters["dp.spectral_iterations"] += decay.iterations

    def _on_call(self, counter: str):
        def hook(*args, **kwargs):
            self.counters[counter] += 1

        return hook

    # ------------------------------------------------------------ install
    def install(self) -> None:
        """Wrap the traced safecert functions and rebind every reference to them."""
        import safecert

        before = {
            "kernels.fit_weights": self._on_fit_weights,
            "kernels.weights_at": self._on_weights_at,
            "io.atomic_write": self._on_atomic_write,
            "dp.fit_dp": self._on_call("dp.fit_dp_calls"),
            "direct.fit_direct": self._on_call("direct.fit_direct_calls"),
        }
        after = {
            "abstraction.empirical_cell_probs": self._on_cell_probs,
            "calibration.calibrate": self._on_calibrate,
            "dp.spectral_decay": self._on_spectral,
        }
        before["benchmark.simulate_batch_calls"] = self._on_simulate_batch
        makers = {key: functools.partial(self._spanned, name, before=before.get(name), after=after.get(name))
                  for key, name in SPANNED.items()}
        makers.update({key: functools.partial(self._counted, name, before=before.get(name))
                       for key, name in COUNTED.items()})

        modules = [m for k, m in sys.modules.items() if k == "safecert" or k.startswith("safecert.")]
        for (mod, dotted), make in makers.items():
            module = getattr(safecert, mod)
            holder, attr, raw = _resolve(module, dotted)
            if isinstance(raw, classmethod):
                self._patch(holder, attr, raw, classmethod(make(raw.__func__)))
            elif holder is not module:
                self._patch(holder, attr, raw, make(raw))
            else:
                # rebind the function in every module namespace that imported it
                new = make(raw)
                for namespace in modules:
                    for key, value in list(vars(namespace).items()):
                        if value is raw:
                            self._patch(namespace, key, raw, new)

    def _patch(self, holder, attr, original, new) -> None:
        self._patches.append((holder, attr, original))
        setattr(holder, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------ results
    def self_times(self) -> Counter:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return out

    def layer_metrics(self) -> dict[str, float]:
        times = self.self_times()
        values: dict[str, float] = {}
        for metric in LAYER_METRICS:
            if metric.startswith("cli."):
                # stages are reported inclusive: the span itself has no parent
                stage = metric[len("cli."):-len("_s")].replace("_", "-")
                values[metric] = sum(
                    end - start for name, start, end, _ in self.spans if name == f"cli.{stage}"
                )
            elif metric.endswith("_s"):
                values[metric] = times[metric[: -len("_s")]]
            else:
                values[metric] = float(self.counters[metric])
        calls = self.counters["kernels.fit_weights_calls"]
        values["kernels.repeat_fit_share"] = self.counters["kernels.repeat_fits"] / calls if calls else 0.0
        values["kernels.max_m"] = float(self.max_m)
        values["kernels.factor_mb"] = self.factor_mb
        values["calibration.n_bins"] = float(np.mean(self._bins)) if self._bins else 0.0
        return values

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "run": self.run_id,
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }
        path.write_text(json.dumps(payload))
