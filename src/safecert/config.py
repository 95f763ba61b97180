"""Experiment configuration: flat dotted-key text files checked by a schema.

The format is one ``key = value`` assignment per line, ``#`` comments, and
dotted namespaces (``system.sigma = 0.15``).  Unknown keys are errors; that
is deliberate, a typo in a sweep config should fail loudly at startup rather
than silently run defaults.  Values are parsed by the declared type of each
key (float, int, str, or comma-separated lists thereof).

Kernel hyperparameters default to per-horizon tuned values for the synthetic
benchmark (squared lengthscales and ridge lambda, per data mode and method)
and can be overridden per run.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .kernels import KernelSpec

__all__ = ["METHODS", "ConfigError", "ExperimentConfig", "parse_config", "load_config",
           "default_kernel_spec"]


class ConfigError(ValueError):
    """Malformed config text, unknown key, or out-of-range value."""


# tuned (squared lengthscale pair, lambda) per (pair mode, horizon, method)
# for the synthetic benchmark at N = 1000 trajectories
DEFAULT_HYPERPARAMS: dict[tuple[str, int, str], tuple[tuple[float, float], float]] = {
    ("iid", 5, "direct"): ((0.772, 1.572), 3.004e-8),
    ("iid", 10, "direct"): ((0.986, 0.914), 4.615e-8),
    ("iid", 15, "direct"): ((1.282, 1.416), 2.791e-7),
    ("iid", 5, "dp"): ((0.596, 0.361), 1.456e-6),
    ("iid", 10, "dp"): ((0.556, 0.652), 2.038e-6),
    ("iid", 15, "dp"): ((0.472, 0.290), 2.294e-7),
    ("dependent", 5, "direct"): ((0.917, 1.187), 1.645e-8),
    ("dependent", 10, "direct"): ((1.189, 0.981), 1.749e-7),
    ("dependent", 15, "direct"): ((0.599, 0.401), 1.0e-3),
    ("dependent", 5, "dp"): ((0.477, 0.444), 9.892e-6),
    ("dependent", 10, "dp"): ((0.408, 0.359), 5.239e-7),
    ("dependent", 15, "dp"): ((0.638, 0.784), 5.162e-7),
}

# key -> (type tag, default); list types take comma-separated values
_SCHEMA: dict[str, tuple[str, object]] = {
    "system.alphas": ("float_list", [0.0, 0.5, 0.95]),
    "system.sigma": ("float", 0.15),
    "system.h": ("float", 0.1),
    "system.beta_c": ("float", 0.12),
    "system.gamma_c": ("float", 1.0),
    "horizons": ("int_list", [5, 10, 15]),
    "seeds": ("int_list", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
    "methods": ("str_list", ["direct", "dp"]),
    "data.n_trajectories": ("int", 1000),
    "data.n_pairs": ("int", 0),  # 0 means n_trajectories * T
    "data.n_calibration": ("int", 1000),
    "data.mode": ("str", "iid"),
    "grid.nx": ("int", 40),
    "grid.ny": ("int", 40),
    "mc.rollouts": ("int", 1000),
    "kernel.direct.variances": ("float_list", []),  # empty -> per-horizon defaults
    "kernel.direct.lam": ("float", 0.0),
    "kernel.dp.variances": ("float_list", []),
    "kernel.dp.lam": ("float", 0.0),
    "dp.ambiguity": ("float", 0.0),
    "imp.radius": ("float", 0.05),
    "ssr.delta": ("float", 0.0),
    "abstraction.nx": ("int", 20),
    "abstraction.ny": ("int", 20),
    "calibration.bins": ("int", 10),
    "calibration.delta": ("float", 0.1),
    "out_dir": ("str", "results"),
}

_VALID_MODES = ("iid", "dependent")
# every certification method; calibrate and evaluate take all but barrier
METHODS = ("direct", "dp", "imp", "ssr", "barrier")


def _parse_value(key: str, raw: str):
    kind = _SCHEMA[key][0]
    raw = raw.strip()
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind == "str":
            return raw
        items = [p.strip() for p in raw.split(",") if p.strip()]
        if kind == "float_list":
            return [float(p) for p in items]
        if kind == "int_list":
            return [int(p) for p in items]
        if kind == "str_list":
            return items
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind}") from exc
    raise ConfigError(f"unhandled schema kind {kind!r}")


def parse_config(text: str) -> dict:
    """Parse config text into a fully-defaulted, schema-checked dict."""
    values = {k: v for k, (_, v) in _SCHEMA.items()}
    assigned: dict[str, int] = {}  # key -> the line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in assigned:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on line "
                              f"{assigned[key]}; set each key once")
        assigned[key] = lineno
        values[key] = _parse_value(key, raw)
    _validate(values)
    return values


def _validate(v: dict) -> None:
    if v["data.mode"] not in _VALID_MODES:
        raise ConfigError(f"data.mode must be one of {_VALID_MODES}")
    if not v["methods"]:
        raise ConfigError(f"methods must be nonempty; valid: {METHODS}")
    for i, m in enumerate(v["methods"]):
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; valid: {METHODS}")
        # a repeated method would write and count each of its metrics rows twice
        if m in v["methods"][:i]:
            raise ConfigError(f"methods lists {m!r} twice; list each method once")
    for key in ("data.n_trajectories", "data.n_calibration", "mc.rollouts",
                "grid.nx", "grid.ny", "abstraction.nx", "abstraction.ny",
                "calibration.bins"):
        if v[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    if not v["seeds"] or not v["horizons"] or not v["system.alphas"]:
        raise ConfigError("seeds, horizons, and system.alphas must be nonempty")
    if any(seed < 0 for seed in v["seeds"]):
        raise ConfigError("seeds entries must be nonnegative")
    for a in v["system.alphas"]:
        if not (0.0 <= a < 1.0):
            raise ConfigError("system.alphas entries must lie in [0, 1)")
    if not (0.0 < v["calibration.delta"] < 1.0):
        raise ConfigError("calibration.delta must lie in (0, 1)")
    # checked here so that a bad value stops the run before any stage writes
    if any(T < 1 for T in v["horizons"]):
        raise ConfigError("horizons entries must be at least 1")
    # nan and inf pass the range tests below and would reach the simulator or
    # the abstraction intervals, which fail on them only after writing
    for key in ("system.sigma", "system.h", "system.beta_c", "system.gamma_c",
                "imp.radius", "dp.ambiguity"):
        if not math.isfinite(v[key]):
            raise ConfigError(f"{key} must be finite")
    for key in ("system.sigma", "system.h"):
        if v[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    for key in ("data.n_pairs", "imp.radius", "dp.ambiguity"):
        if v[key] < 0:
            raise ConfigError(f"{key} must be nonnegative")
    available = v["data.n_trajectories"] * min(v["horizons"])
    if v["data.mode"] == "dependent" and v["data.n_pairs"] > available:
        raise ConfigError(
            f"data.n_pairs ({v['data.n_pairs']}) exceeds the {available} pairs that "
            f"data.mode = dependent has at the shortest horizon (data.n_trajectories * T)"
        )
    for method in ("direct", "dp"):  # one variance per state dimension (x1, x2)
        var, lam = v[f"kernel.{method}.variances"], v[f"kernel.{method}.lam"]
        if var and (len(var) != 2 or not all(0.0 < x < math.inf for x in var)):
            raise ConfigError(f"kernel.{method}.variances must be empty or 2 finite values > 0")
        if not 0.0 <= lam < math.inf:
            raise ConfigError(f"kernel.{method}.lam must be finite and >= 0 (0: tuned default)")
    if not (0.0 <= v["ssr.delta"] <= 1.0):
        raise ConfigError("ssr.delta must lie in [0, 1]")
    if v["calibration.bins"] > v["data.n_calibration"]:
        raise ConfigError(
            f"calibration.bins ({v['calibration.bins']}) must not exceed "
            f"data.n_calibration ({v['data.n_calibration']})"
        )


@dataclass
class ExperimentConfig:
    """Parsed configuration plus its content hash."""

    values: dict
    config_hash: str

    def __getitem__(self, key: str):
        return self.values[key]

    def kernel_spec(self, method: str, T: int) -> KernelSpec:
        return default_kernel_spec(
            method,
            T,
            self.values["data.mode"],
            variances=self.values.get(f"kernel.{method}.variances") or None,
            lam=self.values.get(f"kernel.{method}.lam") or None,
        )

    def n_pairs(self, T: int) -> int:
        n = self.values["data.n_pairs"]
        return n if n > 0 else self.values["data.n_trajectories"] * T


def _canonical(values: dict) -> str:
    lines = []
    for key in sorted(values):
        val = values[key]
        if isinstance(val, list):
            val = ",".join(str(x) for x in val)
        lines.append(f"{key}={val}")
    return "\n".join(lines)


def load_config(path: str | Path | None = None, text: str | None = None) -> ExperimentConfig:
    """Load and hash a config file (or literal text; both absent means defaults)."""
    if text is None:
        if path is None:
            text = ""
        else:
            p = Path(path)
            if not p.exists():
                raise ConfigError(f"config file not found: {p}")
            if not p.is_file():  # a directory or a device would fail only when read
                raise ConfigError(f"config path is not a regular file: {p}")
            text = p.read_text()
    values = parse_config(text)
    digest = hashlib.sha256(_canonical(values).encode("utf-8")).hexdigest()[:12]
    return ExperimentConfig(values=values, config_hash=digest)


def default_kernel_spec(
    method: str,
    T: int,
    mode: str = "iid",
    variances: list[float] | None = None,
    lam: float | None = None,
) -> KernelSpec:
    """Kernel spec for a method/horizon, tuned defaults unless overridden.

    Horizons without a tuned entry fall back to the nearest tuned one, so
    desk-scale runs at odd horizons stay sensible.
    """
    key_method = "direct" if method == "direct" else "dp"
    tuned_ts = sorted({t for (m, t, meth) in DEFAULT_HYPERPARAMS if m == mode and meth == key_method})
    if not tuned_ts:
        raise ConfigError(f"no default hyperparameters for mode {mode!r}")
    nearest = min(tuned_ts, key=lambda t: (abs(t - T), t))
    default_var, default_lam = DEFAULT_HYPERPARAMS[(mode, nearest, key_method)]
    return KernelSpec.from_variances(
        variances if variances is not None else default_var,
        lam if lam is not None else default_lam,
    )
