"""Multiplicative weights and the approximate chaos density on the grid.

The depth-m density is the product over levels j <= m of
exp(gamma * field_j - gamma^2/2 * var_j); each factor has unit mean, so the
density is a positive unit-mean martingale in the depth.  :func:`densities`
is the one path from fields to densities: it streams the blocks of
sampler.block_fields through one running exponent and yields the density
at each depth they end at.  A density is the array of its grid values, on
the grid GridSpec(values.size).  Measure queries (dyadic masses and scans)
use the left-endpoint rectangle rule, which makes dyadic additivity and the
spectral decomposition identities exact at grid level.

Moment and regularity probes sample exact low-dimensional Gaussians from the
closed-form covariances instead of grid fields, so their statistics carry no
discretization bias.  The module writes no files: the CLI writes densities
through harness.write_csv.
"""

from __future__ import annotations

import math

import numpy as np

from . import geometry, rng
from .sampler import GridSpec

SQRT2 = math.sqrt(2.0)

# Probe stream sub-tags, keeping the two Monte Carlo probe families on
# disjoint key spaces.
_MOMENT_PROBE = 101
_HOLDER_PROBE = 102


SUBCRITICAL = (False, SQRT2, "gamma must lie in [0, sqrt(2))")


def validate_gamma(gamma: float, bound: tuple[bool, float, str] = SUBCRITICAL) -> float:
    """Intermittency parameter check against `bound` = (zero excluded, upper
    limit, message naming the range), by default the sub-critical [0, sqrt 2)."""
    g = geometry._number(gamma, "gamma")
    zero_excluded, upper, message = bound
    if not (0.0 < g if zero_excluded else 0.0 <= g) or not g < upper:
        raise ValueError(f"{message}, got {gamma!r}")
    return g


def densities(gamma: float, fields, work: np.ndarray | None = None):
    """Iterator over (depth, variance, field, density) for the (depth,
    variance, field) blocks of `fields`, in order (sampler.block_fields
    yields them): the density is the product of the level weights up to
    that depth.

    The fields are added into one running exponent, and each density is
    exp(gamma * exponent - gamma^2/2 * summed variance), exponentiated once,
    so deep or large-gamma products cannot overflow factor by factor.  The
    exponent and the density are the two halves of `work`, a float64 array
    of 2G entries whose contents do not matter (None allocates one), so no
    grid-sized array is allocated per block and the density is valid only
    until the iterator advances.  Gamma is checked before the first field
    is drawn, the work array once that field gives G.
    """
    validate_gamma(gamma)
    variances = []
    for depth, variance, field in fields:
        if not variances:
            g = field.size
            work = np.empty(2 * g) if work is None else work
            if work.dtype != float or work.shape != (2 * g,):
                raise ValueError(f"work must be a float64 array of 2G entries for grid size {g}")
            exponent, density = work[:g], work[g:]
            exponent.fill(0.0)
        exponent += field
        variances.append(variance)
        np.multiply(exponent, gamma, out=density)
        density -= 0.5 * gamma**2 * np.sum(variances)
        np.exp(density, out=density)
        yield depth, variance, field, density


def dyadic_masses(density: np.ndarray, level: int) -> np.ndarray:
    """Masses of the 2^level dyadic intervals, left to right."""
    grid = GridSpec(density.size)
    level = geometry._integer(level, "dyadic level", 0)
    if level > grid.log2_size:
        raise ValueError(f"dyadic level {level} outside 0..{grid.log2_size}")
    return density.reshape(2**level, -1).sum(axis=1) / grid.size


def l2_sums(density: np.ndarray, levels) -> np.ndarray:
    """Sum of squared dyadic masses at each level."""
    return np.array([float(np.sum(dyadic_masses(density, lv) ** 2)) for lv in levels])


def frostman_scan(density: np.ndarray, alpha: float, levels) -> np.ndarray:
    """Per-level sup over dyadic intervals of mass(I) / |I|^alpha."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    out = np.empty(len(levels))
    for i, level in enumerate(levels):
        masses = dyadic_masses(density, level)
        out[i] = masses.max() * 2.0 ** (level * alpha)
    return out


def weight_moment(gamma: float, j: int, p: float) -> float:
    """Closed-form p-th moment of a level weight: exp(p(p-1) gamma^2/2 * var)."""
    validate_gamma(gamma)
    if p <= 0:
        raise ValueError("moment order must be positive")
    return math.exp(0.5 * p * (p - 1) * gamma**2 * geometry.level_variance(j))


def weight_moment_mc(
    gamma: float, j: int, p: float, n_samples: int, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo (mean, standard error) of the p-th weight moment.

    Draws the level field at a single point from its exact normal law.
    """
    validate_gamma(gamma)
    n_samples, seed = geometry._integer(n_samples, "n_samples", 1), geometry._integer(seed, "seed", 0)
    var = geometry.level_variance(j)
    gen = rng.probe_stream(seed, _MOMENT_PROBE, j)
    phi = gen.standard_normal(n_samples) * math.sqrt(var)
    values = np.exp(gamma * phi - 0.5 * gamma**2 * var) ** p
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def _pair_cholesky(j: int, h: float) -> np.ndarray:
    var = geometry.level_variance(j)
    cov = geometry.level_covariance(j, h)
    return np.linalg.cholesky(np.array([[var, cov], [cov, var]]))


def _holder_ratio(gamma: float, j: int, p: float, h: float, pair: np.ndarray) -> np.ndarray:
    var = geometry.level_variance(j)
    weights = np.exp(gamma * pair - 0.5 * gamma**2 * var)
    return np.abs(weights[0] - weights[1]) ** p / (2.0**j * h) ** (p / 2.0)


def holder_moment_probe(
    gamma: float, j: int, p: float, h: float, n_samples: int, seed: int = 0
) -> float:
    """Monte Carlo regularity ratio E|X(h) - X(0)|^p / (2^j h)^(p/2).

    Samples the exact bivariate normal of the level field at lag h; no grid
    is involved.  Requires 0 < h <= 2^-j and at least 10^4 samples.
    """
    validate_gamma(gamma)
    if not 0.0 < h <= 2.0 ** (-j):
        raise ValueError(f"lag must lie in (0, 2^-{j}]")
    n_samples, seed = geometry._integer(n_samples, "n_samples", 1), geometry._integer(seed, "seed", 0)
    if n_samples < 10**4:
        raise ValueError("regularity probes need at least 10^4 samples")
    chol = _pair_cholesky(j, h)
    gen = rng.probe_stream(seed, _HOLDER_PROBE, j, int(round(-math.log2(h))))
    pair = chol @ gen.standard_normal((2, n_samples))
    return float(_holder_ratio(gamma, j, p, h, pair).mean())


def holder_moment_quadrature(gamma: float, j: int, p: float, h: float, order: int = 80) -> float:
    """Gauss-Hermite evaluation of the regularity ratio (quadrature oracle)."""
    validate_gamma(gamma)
    if not 0.0 < h <= 2.0 ** (-j):
        raise ValueError(f"lag must lie in (0, 2^-{j}]")
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    std_pair = SQRT2 * np.stack(np.meshgrid(nodes, nodes, indexing="ij")).reshape(2, -1)
    w2 = np.outer(weights, weights).ravel() / math.pi
    pair = _pair_cholesky(j, h) @ std_pair
    return float(np.sum(w2 * _holder_ratio(gamma, j, p, h, pair)))

