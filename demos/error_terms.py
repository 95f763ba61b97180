"""
Anatomy of the direct estimator's error budget
==============================================

Three terms separate the raw prediction from a certified lower bound:

  eps1  smoothing bias picked up through the regression weights,
  eps2  worst-case movement of the smoothed functional over a distribution
        ball of a given radius, scaling like (gamma/gamma_n)^(d(T+1)/2),
  eps3  the gap between the smoothed functional and the hard indicator,
        estimated by Monte Carlo on fresh rollouts.

This script shows how each reacts to the working bandwidth gamma_n and why
the default n^(-1/2) schedule keeps them balanced.

Run:  python3 demos/error_terms.py
"""

import numpy as np

from safecert import (
    ErrorBudget,
    SynthSystemParams,
    default_kernel_spec,
    default_safe_region,
    eps1,
    eps2,
    eps3,
    fit_direct,
    gen_dataset,
    smoothed_safety,
    trajectory_safe,
)

T = 5
SEED = 9
params = SynthSystemParams(alpha=0.0)
region = default_safe_region()

ts = gen_dataset(params, region, 200, T, SEED)
model = fit_direct(default_kernel_spec("direct", T, "iid"), ts, region)
x0 = np.array([[0.0, 0.0]])


def sampler(n: int, rng: np.random.Generator) -> np.ndarray:
    return gen_dataset(params, region, n, T, int(rng.integers(1 << 31))).states


# sweep the working bandwidth: small gamma_n shrinks the smoothing terms
# eps1/eps3 but blows up the shift amplification inside eps2
print(f"{'gamma_n':>8} {'eps1':>10} {'eps2':>10} {'eps3':>10}")
for gamma_n in (0.3, 0.1, 0.05):
    budget = ErrorBudget(ambiguity=0.01, gamma=1.0, gamma_n=gamma_n, norm_bound=2.0)
    e1 = eps1(model, budget, x0)[0]
    e2 = eps2(budget, region.dim, T, n=model.n)
    e3 = eps3(model, budget, n_mc=1500, seed=SEED, sampler=sampler)
    print(f"{gamma_n:>8g} {e1:>10.5f} {e2:>10.4g} {e3.value:>10.5f}")

print()
print("with ambiguity 0 the eps2 term vanishes and only smoothing matters:")
budget0 = ErrorBudget(ambiguity=0.0, gamma=1.0, norm_bound=2.0)
print(f"  resolved gamma_n = {budget0.resolve_gamma_n(model.n):.4f} (n^-1/2 schedule)")
print(f"  eps2 = {eps2(budget0, region.dim, T, n=model.n):.4f}")

# the smoothed functional itself: trajectories deep inside or outside the
# safe set keep labels near {0, 1}, boundary grazers move off them.  A
# higher mollifier order lowers the L2 gap that eps3 measures, at the price
# of slight overshoot past [0, 1] near the boundary.
hard = trajectory_safe(region, ts.states).astype(float)
print()
print("smoothed trajectory functional at gamma_n=0.1 (200 training rollouts):")
for order in (1, 2):
    soft = smoothed_safety(region, ts.states, 0.1, order=order)
    l2 = float(np.sqrt(np.mean((soft - hard) ** 2)))
    print(
        f"  order {order}: L2 gap {l2:.4f}  range [{soft.min():.3f}, {soft.max():.3f}]"
        f"  first five {np.round(soft[:5], 3).tolist()}"
    )
