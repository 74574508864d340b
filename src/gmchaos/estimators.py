"""Closed-form dimension exponents and statistical slope estimators.

The decay exponent of the chaos measure's Fourier coefficients has a
two-branch closed form in gamma; the same value is the measure's
correlation dimension, computed from the power-law moment spectrum.  The
statistical side estimates these exponents from simulated ensembles:
dyadic-block regression of the coefficient decay, L2 sums of dyadic
interval masses, the variance profile of rescaled coefficients, and the
uniform-boundedness probe for the weighted coefficient martingale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measure, spectral

SQRT2 = math.sqrt(2.0)

# The two results that hold on less than the sub-critical gamma range.
POSITIVE_GAMMA = (True, SQRT2, "gamma must lie in (0, sqrt(2))")
RESCALING_GAMMA = (False, SQRT2 / 2.0, "rescaling regime needs gamma in [0, sqrt(2)/2)")

# Moment order slightly inside the admissible range; the searched pair
# (p, q) sits this far from the optimizing endpoint.
SEARCH_EPS = 1e-3

# Floor under |mu_hat|^2 before taking logs, so exact zeros stay finite.
LOG_FLOOR = 1e-300


class NoFeasibleExponentsError(ValueError):
    """No (p, q) pair certifies the requested decay exponent."""


def fourier_dimension(gamma: float) -> float:
    """Decay exponent of the chaos measure: 1 - gamma^2 below sqrt(2)/2,
    (sqrt(2) - gamma)^2 up to the critical point."""
    g = measure.validate_gamma(gamma)
    if g < SQRT2 / 2.0:
        return 1.0 - g**2
    return (SQRT2 - g) ** 2


def power_law_spectrum(gamma: float, q: float) -> float:
    """Moment-scaling exponent (1 + gamma^2/2) q - gamma^2 q^2 / 2."""
    g = measure.validate_gamma(gamma)
    return (1.0 + g**2 / 2.0) * q - g**2 * q**2 / 2.0


def correlation_dimension(gamma: float) -> float:
    """L2-scaling exponent of interval masses, from the moment spectrum."""
    g = measure.validate_gamma(gamma)
    if g == 0.0:
        return 1.0
    if 2.0 <= SQRT2 / g:
        return power_law_spectrum(g, 2.0) - 1.0
    # Derivative branch: 2 * d/dq spectrum at q = sqrt(2)/gamma.
    return 2.0 * (1.0 + g**2 / 2.0 - g**2 * (SQRT2 / g))


def decay_exponent_bound(gamma: float, p: float) -> float:
    """Decay exponent certified by moment order p: 2 + gamma^2 - gamma^2 p - 2/p."""
    g = measure.validate_gamma(gamma)
    if not 1.0 < p <= 2.0:
        raise ValueError(f"moment order must lie in (1, 2], got {p!r}")
    return 2.0 + g**2 - g**2 * p - 2.0 / p


def exponent_margin(gamma: float, tau: float, p: float, q: float) -> float:
    """Summability margin (p-1)(1 - gamma^2 p/2) - tau p/2 - p/q.

    Positive margin makes the localized contributions summable over all
    generations, certifying coefficient decay at exponent tau.
    """
    g = measure.validate_gamma(gamma)
    spectral._check_tau(tau)
    if not 1.0 < p < 2.0:
        raise ValueError(f"moment order must lie in (1, 2), got {p!r}")
    if q <= 4.0 / (1.0 - tau):
        raise ValueError(f"q must exceed 4/(1 - tau) = {4.0 / (1.0 - tau):.6g}, got {q!r}")
    return (p - 1.0) * (1.0 - g**2 * p / 2.0) - tau * p / 2.0 - p / q


@dataclass(frozen=True)
class ExponentPlan:
    """A certified (p, q) pair and its summability margin for one (gamma, tau)."""

    p: float
    q: float
    margin: float


def find_exponents(gamma: float, tau: float) -> ExponentPlan:
    """Deterministic (p, q) with positive margin, or an error when tau is
    at or above the attainable decay exponent.

    p sits SEARCH_EPS inside (1, 2) next to the maximizer of the certified
    decay rate; q is the smallest power of two exceeding 4/(1 - tau) that
    leaves the margin positive.
    """
    g = measure.validate_gamma(gamma, POSITIVE_GAMMA)
    spectral._check_tau(tau)
    limit = fourier_dimension(g)
    if tau >= limit:
        raise NoFeasibleExponentsError(
            f"tau = {tau:.6g} is not below the attainable exponent {limit:.6g}"
        )
    p_star = 2.0 if g < SQRT2 / 2.0 else SQRT2 / g
    p = max(1.0 + SEARCH_EPS, p_star - SEARCH_EPS)
    ceiling = (p / 2.0) * (decay_exponent_bound(g, p) - tau)
    if ceiling <= 0.0:
        raise NoFeasibleExponentsError(
            f"tau = {tau:.6g} too close to the exponent {limit:.6g} for the "
            f"fixed offset {SEARCH_EPS}"
        )
    exponent = 2
    while True:
        q = float(2**exponent)
        if q > 4.0 / (1.0 - tau):
            margin = exponent_margin(g, tau, p, q)
            if margin > 0.0:
                return ExponentPlan(p=p, q=q, margin=margin)
        exponent += 1


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through dyadic-block statistics."""

    slope: float
    intercept: float
    stderr: float
    lo: float
    hi: float
    statistic: str
    blocks: tuple[tuple[float, float, float, float], ...]  # (lo, hi, x, y)


def _slope_fit(blocks, statistic: str) -> SlopeFit:
    """The least-squares line through (lo, hi, x, y) block rows."""
    _, _, xs, ys = np.array(blocks).T
    slope, intercept, stderr = line_fit(xs, ys)
    return SlopeFit(slope, intercept, stderr, blocks[0][0], blocks[-1][1], statistic, tuple(blocks))


def line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Ordinary least squares with the usual slope standard error."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    if x.size > 2:
        resid = y - (slope * x + intercept)
        stderr = math.sqrt(resid @ resid / (x.size - 2) / np.sum((x - x.mean()) ** 2))
    else:
        stderr = float("nan")
    return float(slope), float(intercept), float(stderr)


def dyadic_block_fit(stats, n_lo: int, n_hi: int, n_max: int, statistic: str) -> SlopeFit:
    """Regress a per-block statistic of log |mu_hat(n)|^2 on log n.

    `stats` holds one statistic per block of spectral.block_columns(n_max),
    by block exponent a.  For each a of spectral.dyadic_blocks(n_lo, n_hi,
    n_max), stats[a] is regressed on the mean log-frequency of the block;
    the slope estimates minus the decay exponent.  decay_slope feeds it
    pooled raw values, harness.block_stats ensemble aggregates.
    """
    frequencies = spectral.block_frequencies(n_max)
    blocks = []
    for a in spectral.dyadic_blocks(n_lo, n_hi, n_max):
        n = frequencies[a]
        x = float(np.mean(np.log(np.arange(n.start, n.stop))))
        blocks.append((float(n.start), float(n.stop), x, float(stats[a])))
    return _slope_fit(blocks, statistic)


def validate_statistic(statistic: str) -> str:
    """The per-block statistic of a decay fit, once it is checked to be mean
    or median."""
    if statistic not in ("mean", "median"):
        raise ValueError(f"statistic must be mean or median, got {statistic!r}")
    return statistic


def decay_slope(abs2, n_lo: int, n_hi: int, statistic: str = "median") -> SlopeFit:
    """Dyadic-block regression of log |mu_hat(n)|^2 against log n.

    `abs2` holds |mu_hat(n)|^2 with columns n = 1.. (one row per replica).
    Each block's statistic is taken over the pooled log values of all
    replicas (see dyadic_block_fit).
    """
    data = np.atleast_2d(np.asarray(abs2, dtype=float))
    replicas, n_max = data.shape
    reducer = {"mean": np.mean, "median": np.median}[validate_statistic(statistic)]
    if statistic == "median" and replicas < 30:
        raise ValueError(f"median statistic needs at least 30 replicas, got {replicas}")
    stats = [float(reducer(np.log(np.maximum(data[:, c], LOG_FLOOR)))) for c in spectral.block_columns(n_max)]
    return dyadic_block_fit(stats, n_lo, n_hi, n_max, statistic)


def validate_l2_levels(levels) -> list[int]:
    """The levels as a list, once at least two (a slope's minimum) are checked."""
    levels = list(levels)
    if len(levels) < 2:
        raise ValueError(f"an L2 slope needs at least two levels, got {levels}")
    return levels


def l2_spectrum_slope(sums, levels) -> SlopeFit:
    """Scaling of the dyadic L2 sums S(level) = sum of squared interval masses.

    `sums` holds S values (measure.l2_sums) with one row per replica and one
    column per level.  The fit of log mean S against log interval length
    estimates the correlation dimension.
    """
    levels = validate_l2_levels(levels)
    sums = np.atleast_2d(np.asarray(sums, dtype=float))
    if sums.shape[1] != len(levels):
        raise ValueError("one column of S values per level is required")
    x = np.array([math.log(2.0**-lv) for lv in levels])
    y = np.log(np.maximum(sums.mean(axis=0), LOG_FLOOR))
    blocks = [(float(lv), float(lv), float(a), float(b)) for lv, a, b in zip(levels, x, y)]
    return _slope_fit(blocks, "mean")


def clt_exponent(gamma: float) -> float:
    """Coefficient rescaling exponent (1 - gamma^2) / 2 of the small-gamma
    fluctuation regime."""
    g = measure.validate_gamma(gamma, RESCALING_GAMMA)
    return (1.0 - g**2) / 2.0


def validate_rescaling(
    gamma: float, replicas: int, frequencies: int, block_lo_exp: int, block_hi_exp: int
) -> tuple[float, range]:
    """The rescaling exponent and the block exponents block_lo_exp..block_hi_exp - 1,
    once gamma, the replica count (at least 100) and the blocks (at least one,
    all within `frequencies`) are checked."""
    exponent = clt_exponent(gamma)
    if replicas < 100:
        raise ValueError(f"rescaling profile needs at least 100 replicas, got {replicas}")
    if min(block_lo_exp, block_hi_exp) < 0:
        raise ValueError(f"block exponents must be non-negative, got {block_lo_exp}..{block_hi_exp}")
    return exponent, spectral.dyadic_blocks(2**block_lo_exp, 2**block_hi_exp - 1, frequencies, 1)


def rescaled_variance_profile(
    var, replicas: int, gamma: float, block_lo_exp: int, block_hi_exp: int
) -> list[tuple[int, int, float]]:
    """Per-block variance of the rescaled coefficients n^((1-gamma^2)/2) mu_hat(n).

    `var` holds the ensemble variance of mu_hat(n), n = 1.., over `replicas`
    replicas (at least 100).  Returns (block_lo, block_hi, variance) for each
    complete dyadic block between the two exponents, averaged over the block.
    """
    exponent, blocks = validate_rescaling(gamma, replicas, len(var), block_lo_exp, block_hi_exp)
    rescaled = np.arange(1, len(var) + 1) ** (2.0 * exponent) * var
    n, columns = spectral.block_frequencies(len(var)), spectral.block_columns(len(var))
    return [(n[a].start, n[a].stop, float(np.mean(rescaled[columns[a]]))) for a in blocks]


def clt_rescale_profile(
    coefficients, gamma: float, block_lo_exp: int, block_hi_exp: int
) -> list[tuple[int, int, float]]:
    """rescaled_variance_profile of coefficient rows, one per replica."""
    data = np.atleast_2d(np.asarray(coefficients))
    var = np.mean(np.abs(data - data.mean(axis=0)) ** 2, axis=0)
    return rescaled_variance_profile(var, data.shape[0], gamma, block_lo_exp, block_hi_exp)


def norm_powers(coefficients, tau: float, p: float, q: float):
    """p-th power of the l^q norm of n^(tau/2) mu_hat(n), n = 1.., along the
    last axis.  The root and the power are taken on the shape given, so a
    1-D row gets numpy's scalar power, a 2-D array its array power."""
    coefficients = np.asarray(coefficients)
    return spectral.lq_norm(spectral.decay_weights(coefficients.shape[-1], tau) * coefficients, q) ** p


def uniform_bound_probe(
    gamma: float,
    tau: float,
    p: float,
    q: float,
    spectra_by_depth: dict[int, np.ndarray],
) -> tuple[list[int], np.ndarray]:
    """Empirical mean of the p-th power of the weighted-coefficient l^q norm,
    per construction depth.

    `spectra_by_depth` maps a depth to the (replicas, n_max) coefficient
    array of the depth's density.  Rejects (p, q) pairs whose summability
    margin is not positive.
    """
    margin = exponent_margin(gamma, tau, p, q)
    if margin <= 0.0:
        raise NoFeasibleExponentsError(
            f"(p={p}, q={q}) infeasible for gamma={gamma}, tau={tau}: margin = {margin:.6g}"
        )
    depths = sorted(spectra_by_depth)
    means = [np.mean(norm_powers(np.atleast_2d(spectra_by_depth[d]), tau, p, q)) for d in depths]
    return depths, np.array(means)

