"""Distortion risk measures and reserve allocation for compound Poisson
maximum-deficit models."""

from .allocate import (
    AllocationResult,
    aggregate_min,
    invariance_check,
    method1_exponential,
    method1_generic,
    method2_exact,
    method2_generic,
    method2_two_line,
    psi_tilde,
    rho2_two_line,
)
from .deficit import DeficitFunctional
from .distortion import (
    Distortion,
    choquet_empirical,
    choquet_se,
    choquet_tail,
    choquet_weights,
    identity,
    parse_distortion,
    proportional_hazard,
    tvar,
    var_step,
)
from .errors import (
    BracketingError,
    ConvergenceError,
    DomainError,
    TruncationError,
)
from .measures import (
    MeasureResult,
    PremiumBound,
    coherent_measure,
    convex_measure,
    critical_threshold,
    ear_convex_measure,
    premium_lower_bound,
    proportional_measure,
)
from .model import (
    ExponentialLine,
    RuinConstants,
    line_from_ruin_constants,
    ruin_constants,
    ultimate_ruin,
)
from .numerics import DEFAULT_TOL, Tolerance, brent_root, lambert_w0, tail_integral
from .simulate import (
    PathState,
    SimBatch,
    conditional_max_samples,
    derive_seed,
    estimate_finite_ruin,
    load_batch,
    max_loss_from_events,
    path_events,
    rolling_requirement,
    save_batch,
    simulate_aggregate_claims,
    simulate_max_loss,
    simulate_path_states,
    supermartingale_check,
)

__version__ = "0.1.0"
