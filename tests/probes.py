"""Probes of the paper's argument that only the tests run.

Criterion 4 reads the Hoelder moments of the level weights
(holder_moment_probe, checked against holder_moment_quadrature), criterion 6
the separation-of-variables bound on each localized increment
(separation_bound) and criterion 13 the Frostman regularity of the density
(frostman_scan).  No command, ensemble or `gmchaos verify` calls them, so they
live here; their arguments are the tests' own and go unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gmchaos import geometry, measure, rng, spectral
from gmchaos.sampler import GridSpec

# Sub-tag of the Hoelder probe's streams, reserved in gmchaos.measure.
HOLDER_PROBE = 102


def frostman_scan(density: np.ndarray, alpha: float, levels) -> np.ndarray:
    """Per-level sup over dyadic intervals of mass(I) / |I|^alpha."""
    return np.array([measure.dyadic_masses(density, level).max() * 2.0 ** (level * alpha) for level in levels])


def _holder_ratio(gamma: float, j: int, p: float, h: float, standard: np.ndarray) -> np.ndarray:
    """|X(h) - X(0)|^p / (2^j h)^(p/2) for the level-j weights X at the pairs
    of the field's exact bivariate normal law at lag h, coloured from the
    (2, N) standard normals `standard`."""
    var, cov = geometry.level_variance(j), geometry.level_covariance(j, h)
    pair = np.linalg.cholesky(np.array([[var, cov], [cov, var]])) @ standard
    weights = np.exp(gamma * pair - 0.5 * gamma**2 * var)
    return np.abs(weights[0] - weights[1]) ** p / (2.0**j * h) ** (p / 2.0)


def holder_moment_probe(gamma: float, j: int, p: float, h: float, n_samples: int, seed: int) -> float:
    """Monte Carlo regularity ratio E|X(h) - X(0)|^p / (2^j h)^(p/2), for a
    lag 0 < h <= 2^-j; no grid is involved."""
    gen = rng.probe_stream(seed, HOLDER_PROBE, j, round(-math.log2(h)))
    return float(_holder_ratio(gamma, j, p, h, gen.standard_normal((2, n_samples))).mean())


def holder_moment_quadrature(gamma: float, j: int, p: float, h: float, order: int) -> float:
    """Gauss-Hermite evaluation of the regularity ratio (quadrature oracle)."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    standard = math.sqrt(2.0) * np.stack(np.meshgrid(nodes, nodes, indexing="ij")).reshape(2, -1)
    w2 = np.outer(weights, weights).ravel() / math.pi
    return float(np.sum(w2 * _holder_ratio(gamma, j, p, h, standard)))


@dataclass(frozen=True)
class SeparationComponents:
    """Frequency weights and pathwise scalars bounding one localized vector.

    Row L of `direct_weights` carries n^(tau/2) on its frequency block
    (row 0 covers 1..2^k, row L the block (2^(k+L-1), 2^(k+L)]);
    `abel_weights` carries n^(tau/2 - 1) on the same blocks.  The bound is
    weights times the pathwise residual masses and increment sums.
    """

    n: np.ndarray
    direct_weights: np.ndarray
    abel_weights: np.ndarray
    residual_masses: np.ndarray
    increment_sums: np.ndarray
    bound: np.ndarray
    localized_abs: np.ndarray


def separation_bound(
    profile: np.ndarray, interval: spectral.DyadicInterval, tau: float, max_block: int, n_max: int | None = None
) -> SeparationComponents:
    """Pathwise bound |Y_I(n)| <= sum_L v_L(n) R_L + sum_L w_L(n) Q_L for the
    centred profile of level k = interval.level + 1, at n up to
    min(n_max, 2^(k + max_block)); n_max defaults to the grid's limit.

    R_0 is the rectangle-rule mass of |profile| on the interval; for each
    block L >= 1 the interval is split into 2^L equal pieces, R_L collects
    the rectangle-rule mass of the deviation from the left-endpoint value,
    and Q_L collects boundary values plus consecutive node differences
    divided by 2 pi.
    """
    grid = GridSpec(profile.size)
    k = interval.level + 1
    n_max = min(grid.size // spectral.NYQUIST_FRACTION if n_max is None else n_max, 2 ** (k + max_block))

    i_lo, i_hi = interval.grid_slice(grid)
    local = profile[i_lo:i_hi]

    residual = np.empty(max_block + 1)
    increments = np.empty(max_block)
    residual[0] = np.sum(np.abs(local)) / grid.size
    for block in range(1, max_block + 1):
        pieces = local.reshape(2**block, -1)
        residual[block] = np.sum(np.abs(pieces - pieces[:, :1])) / grid.size
        nodes = pieces[:, 0]
        increments[block - 1] = (
            abs(nodes[-1]) + abs(nodes[0]) + np.sum(np.abs(np.diff(nodes)))
        ) / spectral.TWO_PI

    n = np.arange(1, n_max + 1)
    band = np.arange(max_block + 1)[:, None] == np.searchsorted(2 ** np.arange(k, k + max_block + 1), n)
    direct_weights = np.where(band, spectral.decay_weights(n_max, tau), 0.0)
    abel_weights = np.where(band[1:], n ** (tau / 2.0 - 1.0), 0.0)
    return SeparationComponents(
        n=n,
        direct_weights=direct_weights,
        abel_weights=abel_weights,
        residual_masses=residual,
        increment_sums=increments,
        bound=residual @ direct_weights + increments @ abel_weights,
        localized_abs=np.abs(spectral.localized_vector(profile, interval, tau, n_max)),
    )
