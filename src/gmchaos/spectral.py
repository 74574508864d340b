"""Fourier coefficients of chaos densities and their martingale structure.

Densities and coefficient vectors are plain arrays.  The coefficient
vector of the depth-m density, weighted by n^(tau/2), is a martingale in
the depth m: decay_weights(n_max, tau) * fourier_coefficients(density, n_max).
Its increment from depth k - 1 to k is the coefficient vector of the
level-k centred profile (:func:`centered_profile`, built once per level
from the streamed density below it and the level-k field), which splits
over the dyadic intervals of generation k - 1 into localized
contributions, computed here with the same left-endpoint rectangle rule as
the global coefficients so that the split is exact at grid level.  The
module also provides the Abel (summation-by-parts) transform of segment
sums and a pathwise separation-of-variable bound on each localized
contribution, with the bound split into deterministic frequency weights
and pathwise scalars.  The module writes no files: the CLI writes
coefficients through harness.write_csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, measure
from .sampler import GridSpec

TWO_PI = 2.0 * math.pi

# Frequencies are trusted only up to an 8x oversampling margin; beyond it the
# rectangle rule's spectral error is no longer negligible against the decay.
NYQUIST_FRACTION = 8


def _check_tau(tau: float) -> float:
    t = geometry._number(tau, "tau")
    if not 0.0 <= t < 1.0:
        raise ValueError(f"tau must lie in [0, 1), got {tau!r}")
    return t


def _check_n_max(n_max: int, grid: GridSpec) -> int:
    n_max, limit = geometry._integer(n_max, "n_max"), grid.size // NYQUIST_FRACTION
    if not 1 <= n_max <= limit:
        raise ValueError(f"n_max must lie in 1..{limit} for grid size {grid.size}")
    return n_max


def decay_weights(n_max: int, tau: float) -> np.ndarray:
    """The martingale weights n^(tau/2), n = 1..n_max."""
    return np.arange(1, n_max + 1) ** (tau / 2.0)


def block_columns(n_max: int) -> list[slice]:
    """Columns, in arrays over n = 1..n_max (n in column n - 1), of the dyadic
    blocks [2^a, 2^(a+1)) meeting 1..n_max, by exponent a; the last is cut at n_max."""
    return [slice(2**a - 1, min(2 ** (a + 1), n_max + 1) - 1) for a in range(int(n_max).bit_length())]


def block_frequencies(n_max: int) -> list[range]:
    """The frequencies in each of block_columns(n_max)."""
    return [range(1, n_max + 1)[columns] for columns in block_columns(n_max)]


def dyadic_blocks(n_lo: int, n_hi: int, n_max: int, min_blocks: int = 4) -> range:
    """Exponents a of the complete blocks [2^a, 2^(a+1)) inside [n_lo, n_hi],
    once n_hi <= n_max and at least `min_blocks` (4 for a slope fit) are checked."""
    if n_hi > n_max:
        raise ValueError(f"n_hi = {n_hi} beyond the available {n_max} frequencies")
    first = max(0, math.ceil(math.log2(max(n_lo, 1))))
    exponents = range(first, (max(n_hi, 0) + 1).bit_length() - 1)
    if len(exponents) < min_blocks:
        raise ValueError(f"need at least {min_blocks} complete dyadic blocks in [{n_lo}, {n_hi}]")
    return exponents


def fourier_coefficients(density: np.ndarray, n_max: int, out: np.ndarray | None = None) -> np.ndarray:
    """Rectangle-rule coefficients mu_hat(n) = (1/G) sum values * exp(-2 pi i n t)
    of the G grid values, n = 1..n_max.

    One real FFT of the grid values, taken into `out` (G/2 + 1 complex
    entries) when given; exact for trigonometric polynomials of degree
    below the grid size.
    """
    n_max = _check_n_max(n_max, GridSpec(density.size))
    return np.fft.rfft(density, out=out)[1 : n_max + 1] / density.size


def second_moment(gamma: float, depth: int, grid: GridSpec, n_max: int) -> np.ndarray:
    """Exact E|mu_hat(n)|^2, n = 1..n_max, of the rectangle-rule coefficients
    of the depth-`depth` chaos density on `grid` (Kahane's second-moment
    computation, done on the grid the sampler draws).

    The circulant embedding is exact for lags below 1, so the grid density
    has E[rho_i rho_l] = exp(gamma^2 C_m(|i - l| / G)); grouping the pairs by
    lag gives (2 Re FFT(a)[n] - a_0) / G^2 with a_k = (G - k) exp(gamma^2 C_m(k / G)).
    """
    gamma = measure.validate_gamma(gamma)
    n_max = _check_n_max(n_max, grid)
    g = grid.size
    k = np.arange(g)
    a = (g - k) * np.exp(gamma**2 * geometry.cumulative_covariance(depth, k / g))
    return (2.0 * np.fft.rfft(a)[1 : n_max + 1].real - a[0]) / g**2


def lq_norm(values, q: float):
    """Truncated l^q norm of coefficient vectors along the last axis."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q!r}")
    return np.sum(np.abs(np.asarray(values)) ** q, axis=-1) ** (1.0 / q)


@dataclass(frozen=True)
class DyadicInterval:
    """The index-h interval [(h-1)/2^level, h/2^level), h = 1..2^level."""

    level: int
    index: int

    def __post_init__(self) -> None:
        if self.level < 0 or not 1 <= self.index <= 2**self.level:
            raise ValueError(f"invalid dyadic interval (level={self.level}, index={self.index})")

    @property
    def left(self) -> float:
        return (self.index - 1) / 2**self.level

    @property
    def right(self) -> float:
        return self.index / 2**self.level

    @property
    def parity(self) -> str:
        return "odd" if self.index % 2 else "even"

    def grid_slice(self, grid: GridSpec) -> tuple[int, int]:
        if self.level > grid.log2_size:
            raise ValueError(f"dyadic level {self.level} finer than grid of size {grid.size}")
        step = grid.size // 2**self.level
        return (self.index - 1) * step, self.index * step


def dyadic_family(level: int, parity: str = "all") -> list[DyadicInterval]:
    """Dyadic intervals of one generation in left-to-right order."""
    if parity not in ("all", "odd", "even"):
        raise ValueError(f"parity must be all, odd or even, got {parity!r}")
    if level < 0:
        raise ValueError("level must be non-negative")
    first = 2 if parity == "even" else 1
    step = 1 if parity == "all" else 2
    return [DyadicInterval(level, h) for h in range(first, 2**level + 1, step)]


def centered_profile(prev: np.ndarray, gamma: float, field: np.ndarray, variance: float) -> np.ndarray:
    """The centred profile of level k: the density `prev` up to level k - 1
    times the centred level-k weight, exp(gamma * field - gamma^2/2 *
    variance) - 1, for the level-k field and its variance.  Its coefficients
    are the martingale increment from depth k - 1 to k."""
    measure.validate_gamma(gamma)
    return prev * (np.exp(gamma * field - 0.5 * gamma**2 * variance) - 1.0)


def localized_vector(profile: np.ndarray, interval: DyadicInterval, tau: float, n_max: int) -> np.ndarray:
    """n^(tau/2) times the rectangle-rule coefficients of the centred profile
    of level k = interval.level + 1 restricted to the interval: that
    interval's contribution to the martingale increment."""
    tau = _check_tau(tau)
    grid = GridSpec(profile.size)
    n_max = _check_n_max(n_max, grid)
    i_lo, i_hi = interval.grid_slice(grid)
    masked = np.zeros_like(profile)
    masked[i_lo:i_hi] = profile[i_lo:i_hi]
    return decay_weights(n_max, tau) * fourier_coefficients(masked, n_max)


def product_difference_expansion(a, b):
    """Expansion of prod(a) - prod(b) as a sum of single-factor swaps.

    Returns sum over r of prod(b[:r]) * (a[r] - b[r]) * prod(a[r+1:]),
    which equals prod(a) - prod(b) identically.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("expansion needs two equal-length sequences")
    prefix_b = np.concatenate(([1.0], np.cumprod(b)[:-1]))
    suffix_a = np.concatenate((np.cumprod(a[::-1])[-2::-1], [1.0]))
    return np.sum(prefix_b * (a - b) * suffix_a)


def segment_integral(a: float, b: float, n: int) -> complex:
    """Analytic oscillatory integral of exp(-2 pi i n t) over [a, b]."""
    if n == 0:
        return complex(b - a)
    factor = -1j * TWO_PI * n
    return (np.exp(factor * b) - np.exp(factor * a)) / factor


def abel_segment_transform(values, interval, n: int) -> tuple[complex, complex]:
    """Segment sum of node values against the oscillation, two ways.

    `values` holds a function at the 2^L + 1 uniform partition nodes of the
    interval.  The direct form integrates each node value against the
    analytic segment integral; the Abel form regroups the same sum into
    boundary terms plus consecutive differences.  The two agree identically.
    """
    values = np.asarray(values)
    n_nodes = values.size
    pieces = n_nodes - 1
    if pieces < 1 or pieces & (pieces - 1):
        raise ValueError("need 2^L + 1 node values for some L >= 0")
    left, right = (interval.left, interval.right) if isinstance(interval, DyadicInterval) else interval
    nodes = left + (right - left) * np.arange(n_nodes) / pieces
    phases = np.exp(-1j * TWO_PI * n * nodes)
    direct = sum(
        values[l] * segment_integral(nodes[l], nodes[l + 1], n) for l in range(pieces)
    )
    factor = -1j * TWO_PI * n
    boundary = values[-2] * phases[-1] - values[0] * phases[0]
    inner = np.sum((values[:-2] - values[1:-1]) * phases[1:-1])
    return complex(direct), complex((boundary + inner) / factor)


@dataclass(frozen=True)
class SeparationComponents:
    """Frequency weights and pathwise scalars bounding one localized vector.

    Row L of `direct_weights` carries n^(tau/2) on its frequency block
    (row 0 covers 1..2^k, row L the block (2^(k+L-1), 2^(k+L)]);
    `abel_weights` carries n^(tau/2 - 1) on the same blocks.  The bound is
    weights times the pathwise residual masses and increment sums.
    """

    level_k: int
    max_block: int
    tau: float
    slack: float
    n: np.ndarray
    direct_weights: np.ndarray
    abel_weights: np.ndarray
    residual_masses: np.ndarray
    increment_sums: np.ndarray
    bound: np.ndarray
    localized_abs: np.ndarray
    satisfied: np.ndarray

    @property
    def all_satisfied(self) -> bool:
        return bool(self.satisfied.all())


def separation_bound(
    profile: np.ndarray,
    interval: DyadicInterval,
    tau: float,
    max_block: int,
    n_max: int | None = None,
    slack: float = 1e-8,
) -> SeparationComponents:
    """Pathwise check |Y_I(n)| <= sum_L v_L(n) R_L + sum_L w_L(n) Q_L for the
    centred profile of level k = interval.level + 1.

    R_0 is the rectangle-rule mass of |profile| on the interval; for each
    block L >= 1 the interval is split into 2^L equal pieces, R_L collects
    the rectangle-rule mass of the deviation from the left-endpoint value,
    and Q_L collects boundary values plus consecutive node differences
    divided by 2 pi.  The verdict allows an additive quadrature slack.
    """
    tau = _check_tau(tau)
    grid = GridSpec(profile.size)
    k = interval.level + 1
    if max_block < 1:
        raise ValueError("max_block must be at least 1")
    if k + max_block > grid.log2_size:
        raise ValueError(
            f"sub-partitions of level {k + max_block - 1} are finer than the grid; "
            f"need level+1+max_block <= {grid.log2_size}"
        )
    n_max = grid.size // NYQUIST_FRACTION if n_max is None else n_max
    n_max = min(_check_n_max(n_max, grid), 2 ** (k + max_block))

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
        ) / TWO_PI

    n = np.arange(1, n_max + 1)
    band = np.arange(max_block + 1)[:, None] == np.searchsorted(2 ** np.arange(k, k + max_block + 1), n)
    direct_weights = np.where(band, decay_weights(n_max, tau), 0.0)
    abel_weights = np.where(band[1:], n ** (tau / 2.0 - 1.0), 0.0)

    bound = residual @ direct_weights + increments @ abel_weights
    y_abs = np.abs(localized_vector(profile, interval, tau, n_max))
    return SeparationComponents(
        level_k=k,
        max_block=max_block,
        tau=tau,
        n=n,
        direct_weights=direct_weights,
        abel_weights=abel_weights,
        residual_masses=residual,
        increment_sums=increments,
        bound=bound,
        localized_abs=y_abs,
        slack=slack,
        satisfied=y_abs <= bound + slack,
    )

