"""Simulation and spectral analysis of 1D sub-critical Gaussian
multiplicative chaos on the unit interval.

Construction goes through the white-noise decomposition of the
log-correlated field: independent stationary level fields are sampled
exactly by circulant embedding, multiplied into unit-mean weights, and the
resulting densities are analyzed through Fourier coefficients, dyadic
martingale decompositions and dimension estimators.
"""

from .estimators import (
    ExponentPlan,
    NoFeasibleExponentsError,
    SlopeFit,
    clt_exponent,
    clt_rescale_profile,
    correlation_dimension,
    decay_exponent_bound,
    decay_slope,
    exponent_margin,
    find_exponents,
    fourier_dimension,
    l2_spectrum_slope,
    norm_powers,
    power_law_spectrum,
    uniform_bound_probe,
)
from .geometry import (
    OverlapQuadrature,
    cumulative_covariance,
    level_covariance,
    level_support,
    level_variance,
    overlap_quadrature,
)
from .harness import (
    EnsembleResult,
    ExperimentConfig,
    ReplicaRecord,
    export_result,
    load_result,
    merge_results,
    run_ensemble,
    run_replica,
)
from .measure import (
    densities,
    dyadic_masses,
    frostman_scan,
    holder_moment_probe,
    holder_moment_quadrature,
    l2_sums,
    weight_moment,
    weight_moment_mc,
)
from .sampler import (
    GridSpec,
    NotEmbeddableError,
    block_fields,
    covariance_sequence,
    embedding_period,
    embedding_spectrum,
)
from .spectral import (
    DyadicInterval,
    SeparationComponents,
    abel_segment_transform,
    centered_profile,
    dyadic_family,
    fourier_coefficients,
    localized_vector,
    lq_norm,
    product_difference_expansion,
    second_moment,
    segment_integral,
    separation_bound,
)

__version__ = "0.5.0"
