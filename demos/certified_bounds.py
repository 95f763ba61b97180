"""
Certified lower bounds, two ways
================================

First the analytic route: the direct estimate minus an explicit error
budget (smoothing bias, distribution-shift term, smoothing-vs-indicator
gap).  Then the distribution-free route: histogram-binning calibration of
the raw scores on held-out trajectories, with Hoeffding widths, which needs
no norm assumptions at all.

Run:  python3 demos/certified_bounds.py
"""

import numpy as np

from safecert import (
    ErrorBudget,
    SynthSystemParams,
    calibrate,
    certified_lower_bound,
    default_kernel_spec,
    default_safe_region,
    eps1,
    eps2,
    eps3,
    fit_direct,
    gen_dataset,
    lower_bound,
    predict,
    trajectory_safe,
)

T = 5
SEED = 3
params = SynthSystemParams(alpha=0.0)
region = default_safe_region()

ts = gen_dataset(params, region, 400, T, SEED)
model = fit_direct(default_kernel_spec("direct", T, "iid"), ts, region)

# a handful of query initial states, away from the obstacles
x0 = np.array([[-0.5, -0.5], [0.0, 0.8], [0.9, -0.2]])
est = predict(model, x0)

# ---------------------------------------------------------------------------
# analytic error budget
# ---------------------------------------------------------------------------
# with ambiguity 0 the evaluation distribution matches the sampling one and
# the budget reduces to the two smoothing terms
budget = ErrorBudget(ambiguity=0.0, gamma=1.0, smoothing_order=1, norm_bound=2.0)

e1 = eps1(model, budget, x0)
e3 = eps3(
    model,
    budget,
    n_mc=2000,
    seed=SEED,
    sampler=lambda n, rng: gen_dataset(params, region, n, T, int(rng.integers(1 << 31))).states,
)
bounds = lower_bound(model, x0, budget, eps3_value=e3.value)

print("analytic route (eps3 by Monte Carlo on fresh rollouts):")
print(f"  eps3 = {e3.value:.4f} +- {e3.stderr:.4f}")
for k in range(len(x0)):
    print(
        f"  x0={x0[k]}  estimate {est[k]:.4f}  eps1 {e1[k]:.5f}"
        f"  lower bound {bounds[k]:.4f}"
    )

# a nonzero ambiguity radius brings in eps2, which amplifies the radius by
# (gamma/gamma_n)^(d(T+1)/2); keep the bandwidth ratio close to one or the
# term explodes
mild = ErrorBudget(ambiguity=0.005, gamma=0.3, gamma_n=0.25, norm_bound=2.0)
harsh = ErrorBudget(ambiguity=0.005, gamma=1.0, norm_bound=2.0)
print(
    f"  eps2 at radius 0.005: {eps2(mild, region.dim, T, n=model.n):.4f} "
    f"with gamma_n=0.25, {eps2(harsh, region.dim, T, n=model.n):.3g} "
    f"on the default n^-1/2 schedule"
)

# ---------------------------------------------------------------------------
# distribution-free calibration
# ---------------------------------------------------------------------------
# score fresh held-out trajectories with the fitted model, pair each score
# with the realized safety outcome, and bin
cal_ts = gen_dataset(params, region, 500, T, SEED + 1, purpose="calibration")
scores = np.clip(predict(model, cal_ts.initial_states), 0.0, 1.0)
outcomes = trajectory_safe(region, cal_ts.states).astype(float)
cal = calibrate(scores, outcomes, n_bins=10, delta_conf=0.1)

print()
print("calibration route (10 quantile bins, delta_conf=0.1):")
print(f"  bin counts  {cal.counts.tolist()}")
print(f"  bin rates   {np.round(cal.rates, 3).tolist()}")
print(f"  half-widths {np.round(cal.widths, 3).tolist()}")

cal_bounds = certified_lower_bound(cal, np.clip(est, 0.0, 1.0))
for k in range(len(x0)):
    print(f"  x0={x0[k]}  score {est[k]:.4f}  certified bound {cal_bounds[k]:.4f}")

# sanity: on another fresh batch, the certified bound should undershoot the
# realized safety rate in all but about a delta_conf fraction of bins
test_ts = gen_dataset(params, region, 2000, T, SEED + 2, purpose="holdout")
test_scores = np.clip(predict(model, test_ts.initial_states), 0.0, 1.0)
test_out = trajectory_safe(region, test_ts.states).astype(float)
covered = test_out.mean() >= certified_lower_bound(cal, test_scores).mean()
print(f"  holdout mean outcome {test_out.mean():.4f} >= mean bound: {covered}")
