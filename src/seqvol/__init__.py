"""Sequential Bayesian estimation of time-varying volatility matrices.

Closed-form filtering for multivariate return series: a discount-factor
evolution of the precision matrix drives a conjugate update of the
volatility estimate, with one-step multivariate-t forecasts, an exact
plug-in log-likelihood for hyperparameter selection, and a simulator for
the generative model.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyInput,
    FilterNumericalError,
    NonPositivePrice,
    NotPositiveDefinite,
    ParseError,
    RankMismatch,
    SeqvolError,
)
from .filtering import (
    FilterState,
    ModelConfig,
    beta_dof_m,
    discount_k,
    filter_init,
    filter_run,
    filter_step,
    limit_P,
    steady_Q,
)
from .gwishart import (
    GIWParams,
    GWParams,
    SingularBetaParams,
    giw_estimator,
    giw_logdet_moment,
    giw_logpdf,
    giw_mean_quadforms,
    gw_logpdf,
    sample_singular_beta,
    sample_wishart,
    sample_wishart_scaled,
    singular_beta_logpdf,
    transformed_beta_logpdf,
)
from .io import ReturnsTable, RunManifest, load_prices_csv
from .likelihood import (
    LikelihoodBreakdown,
    PerfReport,
    loglik_at_filter_path,
    loglik_constant,
    loglik_from_records,
    loglik_path,
    perf_metrics,
)
from .linalg import (
    chol_upper,
    log_multigamma,
    positive_eigenvalues,
    psd_sqrt,
    sym_sqrt,
)
from .search import SearchSpec, TraceEntry, coordinate_search, omega_diag_to_z, z_to_omega
from .simulate import SimPath, evolve_precision, simulate_path

__all__ = [
    "__version__",
    # errors
    "SeqvolError", "NotPositiveDefinite", "DimensionMismatch", "DomainError",
    "RankMismatch", "EmptyInput", "ParseError", "NonPositivePrice",
    "FilterNumericalError",
    # matrix kernels
    "sym_sqrt", "psd_sqrt", "chol_upper", "positive_eigenvalues", "log_multigamma",
    # distributions
    "GIWParams", "GWParams", "SingularBetaParams",
    "giw_logpdf", "gw_logpdf", "giw_mean_quadforms", "giw_logdet_moment",
    "giw_estimator", "singular_beta_logpdf", "transformed_beta_logpdf",
    "sample_wishart", "sample_wishart_scaled", "sample_singular_beta",
    # filter
    "ModelConfig", "FilterState", "discount_k", "beta_dof_m", "limit_P", "steady_Q",
    "filter_init", "filter_step", "filter_run",
    # likelihood and metrics
    "LikelihoodBreakdown", "PerfReport", "loglik_constant", "loglik_path",
    "loglik_at_filter_path", "loglik_from_records", "perf_metrics",
    # search
    "SearchSpec", "TraceEntry", "z_to_omega", "omega_diag_to_z", "coordinate_search",
    # simulation
    "SimPath", "evolve_precision", "simulate_path",
    # io
    "ReturnsTable", "RunManifest", "load_prices_csv",
]
