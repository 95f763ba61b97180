"""
Finite-state abstraction: interval recursion and sampled relaxation
===================================================================

The region is cut into a grid of cells, the fitted one-step model is
projected onto cell-to-cell transition probabilities, and two robust value
iterations run on top: the interval recursion (imp) minimizes over a
rectangular ambiguity set around the empirical rows, the sampled relaxation
(ssr) subtracts a per-step slack instead.

Run:  python3 demos/abstraction_demo.py
"""

import numpy as np

from safecert import (
    IntervalModel,
    SsrParams,
    SynthSystemParams,
    build_partition,
    default_kernel_spec,
    default_safe_region,
    empirical_cell_probs,
    evaluate_abstraction,
    extract_onestep_pairs,
    fit_dp,
    imp_value_iteration,
    ssr_value_iteration,
)

T = 8
SEED = 5
region = default_safe_region()
params = SynthSystemParams(alpha=0.0)

pairs = extract_onestep_pairs(None, 2000, "iid", SEED, params=params, region=region)
model = fit_dp(default_kernel_spec("dp", T, "iid"), pairs, region)

part = build_partition(region, (8, 8))
print(f"{part.n_cells} cells, {int(part.safe_flags.sum())} fully safe")

probs = empirical_cell_probs(part, model)
print(f"empirical row sums: min {probs.sum(axis=1).min():.6f} max {probs.sum(axis=1).max():.6f}")

# interval recursion at a few ambiguity radii; radius 0 is the plain
# empirical recursion, wider intervals can only lower the certified value
start = np.array([-2.0, 0.0])  # a start cell well clear of both obstacles
print()
print(f"imp values at x0={start}:")
for radius in (0.0, 0.01, 0.05):
    imodel = IntervalModel.from_radii(probs, radius)
    v0 = imp_value_iteration(imodel, part, T)
    print(f"  radius {radius:<5g} value {evaluate_abstraction(v0, part, start[None])[0]:.4f}")

# sampled relaxation: per-step slack delta plays the same role
print()
print(f"ssr values at x0={start}:")
for delta in (0.0, 0.01, 0.05):
    v0 = ssr_value_iteration(part, model, SsrParams(delta=delta), T)
    print(f"  delta  {delta:<5g} value {evaluate_abstraction(v0, part, start[None])[0]:.4f}")

# a slice through the grid shows the obstacle shadow: cells overlapping an
# obstacle are pinned at zero, neighbours inherit reduced values
v0 = imp_value_iteration(IntervalModel.from_radii(probs, 0.01), part, T)
xs = np.linspace(region.low[0] + 0.1, region.high[0] - 0.1, 8)
slice_pts = np.column_stack([xs, np.full_like(xs, 0.55)])
vals = evaluate_abstraction(v0, part, slice_pts)
print()
print("imp (radius 0.01) along y=0.55:")
for x, v in zip(xs, vals):
    print(f"  x={x:+.2f}  {v:.4f}")
