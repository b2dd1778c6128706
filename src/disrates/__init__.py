"""Disability inception/termination rate estimation and forecasting.

A latent multivariate random walk drives per-cell binomial event counts
through fixed basis functions of age (and spell duration).  The package
fits that model by particle-smoother EM, provides the classical two-step
baseline for initialization and comparison, and simulates forecasts of the
rate surfaces.  A dense-grid reference implementation backs the test suite.
"""

__version__ = "0.1.0"

from .basis import (
    BasisSet,
    builtin,
    check_rank,
    custom_basis,
    design_matrix,
    eval_design,
    four_factor,
    linear2,
    load_custom_basis,
    piecewise3,
    six_factor,
)
from .em import (
    EMConfig,
    EMTrace,
    em_fit,
    maximize_q_numeric,
    mstep,
    q_value,
    trace_to_csv,
)
from .errors import (
    ConfigError,
    DisratesError,
    FilterDegeneracyError,
    GridCoverageError,
    MStepNotPositiveDefinite,
    PanelFormatError,
    PanelValidationError,
    PDRepairError,
)
from .filtering import (
    FilterOutput,
    ParticleCloud,
    bootstrap_filter,
    ess,
    filter_mean,
    filter_quantiles,
    filter_to_csv,
)
from .forecasting import forecast_to_csv, rate_surface, simulate_future
from .grid import (
    GridResult,
    LatentGrid,
    check_unimodal,
    exact_forward_backward,
    make_grid,
)
from .latent import (
    LatentParams,
    load_theta,
    require_valid,
    step_logdensity,
    theta_from_dict,
    theta_to_dict,
    theta_to_json,
    transition_logdensity,
    validate,
)
from .observation import (
    PeriodSlice,
    logistic,
    loglik,
    loglik_grad_hess,
    loglik_many,
    make_slices,
    softplus,
)
from .panel import (
    Cell,
    CellPanel,
    StudyKind,
    load_panel,
    serialize_panel,
)
from .smoothing import SmoothedStats, paris_smooth
from .synthetic import generate, replicate_study, sample_path
from .twostep import (
    YearlyFit,
    estimate_theta0,
    fit_yearly,
    newton_maximize,
    two_step_fit,
    yearly_fit_to_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
