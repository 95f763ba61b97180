"""Certified lower bounds on finite-horizon safety probabilities.

Given sampled trajectories of a stochastic (possibly non-Markovian) system,
this package estimates the probability that the state stays inside a safe
set over a finite horizon and attaches distribution-free certificates to the
estimates.  Four certification routes are provided on top of one shared
kernel ridge core: a direct trajectory-label estimator with an explicit
error budget, backward value iteration through an empirical one-step model,
barrier-style certificates, and finite-state abstractions (interval and
sampling-based).  Histogram-binning calibration turns any of the raw scores
into marginal lower bounds with finite-sample coverage.
"""

from .abstraction import (
    IntervalModel,
    Partition,
    SsrParams,
    build_partition,
    empirical_cell_probs,
    evaluate_abstraction,
    imp_inner_min,
    imp_value_iteration,
    ssr_backward,
    ssr_value_iteration,
)
from .barrier import (
    BarrierCandidate,
    BarrierReport,
    OracleResult,
    check_barrier,
    fit_barrier_candidate,
    uniform_mc_oracle,
)
from .benchmark import (
    GroundTruthGrid,
    OneStepPairs,
    SafeRegion,
    SynthSystemParams,
    TrajectorySet,
    default_safe_region,
    eval_grid,
    extract_onestep_pairs,
    gen_dataset,
    is_safe,
    mc_ground_truth,
    simulate_batch,
    trajectory_safe,
)
from .calibration import (
    BinnedCalibrator,
    calibrate,
    certified_lower_bound,
)
from .config import ConfigError, ExperimentConfig, default_kernel_spec, load_config
from .direct import (
    DirectModel,
    ErrorBudget,
    Eps3Estimate,
    eps1,
    eps2,
    eps3,
    fit_direct,
    lower_bound,
    predict,
    smoothed_safety,
)
from .dp import (
    DpModel,
    SpectralConvergenceError,
    SpectralDecay,
    ValueVector,
    backward_value,
    evaluate_dp,
    fit_dp,
    spectral_decay,
)
from .kernels import (
    KAPPA,
    GramSystem,
    KernelSpec,
    NumericError,
    fit_weights,
    gram_matrix,
)
from .metrics import BrierReport, brier_decomposition, brier_decomposition_mc, excess_rmse, rmse

__version__ = "0.1.0"
