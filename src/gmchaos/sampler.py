"""Exact sampling of the independent stationary level fields on a grid.

Each level field is stationary with a compactly supported closed-form
covariance (see :mod:`gmchaos.geometry`), so it can be sampled exactly on a
uniform grid of [0, 1) by circulant embedding: periodize the covariance on
a circle of P points and take its real DFT to get the P/2 + 1 distinct
embedding eigenvalues (:func:`embedding_spectrum` returns them as an
array).  A field is one Hermitian half-spectrum of complex white noise
coloured by their square roots and one real inverse FFT of length P, of
which the first G points are kept (Wood & Chan 1994; Dietrich & Newsam
1997).  The periodized sequence is positive semidefinite in exact
arithmetic; tiny negative eigenvalues from round-off are clamped, anything
larger is treated as a formula bug.

The circle only has to hold the covariance support s (1 for levels 0 and
1, 2^-(j-1) for level j): G points plus a gap of sG leave every lag the
grid sees unwrapped.  :func:`embedding_period` sizes it by the first level
of a block as P = G + G/2^k with k = max(0, min(lo - 1, 3, log2 G - 1)),
so 2G for blocks starting at level 0 or 1, 1.5G at level 2, 1.25G at
level 3 and 1.125G from level 4 on.

The levels are independent, so a block of levels lo..hi is one stationary
field with the summed eigenvalues.  :func:`block_fields` is the one
sampler: it colours the blocks ending at any increasing depths one at a
time, and breaks 0..m are the levels one by one, each from its own stream.
It keeps one colouring filter of P/2 + 1 floats per distinct block, about
1.6 MiB for the five blocks of a grid-2^16 replica with four norm depths.
Blocks are coloured in a work array of :func:`scratch_size` floats, which
a caller that colours many blocks can hand :func:`block_fields` to reuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import geometry, rng

# Relative clamp for embedding eigenvalues: absorbs DFT round-off of an
# exactly-PSD sequence, small enough to flag real negativity.
EPS_CLAMP = 1e-8


class NotEmbeddableError(ValueError):
    """Covariance periodization produced genuinely negative eigenvalues."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid t_i = i / size on [0, 1) with size a power of two."""

    size: int

    def __post_init__(self) -> None:
        g = geometry._integer(self.size, "grid size")
        if g < 2 or g & (g - 1):
            raise ValueError(f"grid size must be a power of two >= 2, got {g!r}")
        object.__setattr__(self, "size", g)

    @property
    def log2_size(self) -> int:
        return self.size.bit_length() - 1

    def times(self) -> np.ndarray:
        return np.arange(self.size) / self.size


def embedding_period(lo: int, grid: GridSpec) -> int:
    """Circle length P = G + G/2^k, k = max(0, min(lo - 1, 3, log2 G - 1)),
    on which a block starting at level lo is embedded.  P is even and at
    least G(1 + s) - 1 and 2sG for the support s of level lo, so no lag
    0..G-1 wraps onto the support."""
    k = max(0, min(geometry._check_level(lo) - 1, 3, grid.log2_size - 1))
    return grid.size + (grid.size >> k)


def covariance_sequence(j: int, grid: GridSpec, period: int | None = None) -> np.ndarray:
    """Covariance periodization sampled at the lags of a circle of `period`
    points (default 2G, which holds any level's support).

    Entry r is the closed-form covariance at circular lag
    min(r, period - r)/G.  It is evaluated only on the lags r/G, r = 0..
    min(period/2, ceil(sG)), inside the support s; the lags beyond are exact
    zeros and the second half of the circle mirrors the first.  A period that
    would fold the support onto the grid's lags is refused.
    """
    g = grid.size
    period = 2 * g if period is None else int(period)
    support = geometry.level_support(j)
    if period % 2 or period < g * (1 + support) - 1 or period < 2 * support * g:
        raise ValueError(f"period {period} is odd or folds the level-{j} support onto the grid of {g}")
    half = np.zeros(period // 2 + 1)
    inside = min(period // 2, math.ceil(support * g)) + 1
    half[:inside] = geometry.level_covariance(j, np.arange(inside) / g)
    return np.concatenate([half, half[-2:0:-1]])


def embedding_spectrum(seq: np.ndarray) -> np.ndarray:
    """The n/2 + 1 distinct eigenvalues (real DFT at frequencies 0..n/2) of an
    even-length symmetric covariance sequence, round-off negatives clamped
    to zero."""
    seq = np.asarray(seq, dtype=float)
    n = seq.size
    if n % 2:
        raise ValueError("covariance sequence must have even length")
    if not np.array_equal(seq[1:], seq[1:][::-1]):
        raise ValueError("covariance sequence must be symmetric")
    eig = np.fft.rfft(seq).real
    top = float(eig.max(initial=0.0))
    floor = -EPS_CLAMP * top
    if np.any(eig < floor):
        worst = float(eig.min())
        raise NotEmbeddableError(
            f"embedding eigenvalue {worst:.3e} below clamp {floor:.3e}; "
            "the covariance sequence is not positive semidefinite"
        )
    return np.maximum(eig, 0.0)


@lru_cache(maxsize=None)
def _block_root(lo: int, hi: int, grid: GridSpec) -> np.ndarray:
    """Colouring filter of the block lo..hi on its circle of P points:
    r_k = sqrt(P/2 * lambda_k) for its summed eigenvalues lambda_0..lambda_P/2,
    with r_0 and r_P/2 times sqrt(2), the two real modes of the
    half-spectrum.  These filters are the sampler's only cache; the level
    spectra are summed here and dropped."""
    period = embedding_period(lo, grid)
    eigenvalues = embedding_spectrum(covariance_sequence(lo, grid, period))
    for j in range(lo + 1, hi + 1):
        eigenvalues += embedding_spectrum(covariance_sequence(j, grid, period))
    root = np.sqrt(period // 2 * eigenvalues)
    root[[0, -1]] *= math.sqrt(2.0)
    return root


def scratch_size(grid: GridSpec) -> int:
    """Floats a block on `grid` is coloured in: the half-spectrum of the
    widest circle (2G, so G + 1 complex entries) and its transform."""
    return 4 * grid.size + 2


def _block_field(lo: int, hi: int, grid: GridSpec, seed: int, replica: int, work: np.ndarray) -> np.ndarray:
    """The block's field at the grid points: a view of the first G points of
    its P-point transform, coloured in the first scratch_size(grid) floats
    of `work`."""
    root = _block_root(lo, hi, grid)
    period = 2 * (root.size - 1)
    z, transform = work[: 2 * root.size].view(complex), work[2 * grid.size + 2 :][:period]
    gen = rng.field_stream(seed, replica, *((lo,) if lo == hi else (lo, hi)))
    # real + i imag normals at frequencies 0..P/2, drawn in that order; irfft
    # drops the imaginary parts at 0 and P/2
    z.real = gen.standard_normal(out=transform[: root.size])
    z.imag = gen.standard_normal(out=transform[: root.size])
    z.real *= root  # part by part: z *= root would cast root to a complex temporary
    z.imag *= root
    return np.fft.irfft(z, n=period, out=transform)[: grid.size]


def block_fields(breaks, grid: GridSpec, seed: int, replica: int = 0, work: np.ndarray | None = None):
    """Iterator over (depth, variance, field) of the level blocks ending at
    the increasing depths `breaks`, one noise draw and one inverse FFT per
    block, coloured as the iterator advances.

    Block i holds the levels breaks[i - 1] + 1 .. breaks[i] (from level 0
    for i = 0), and its variance is the sum of theirs; breaks 0..m draw
    the levels one at a time, each from its own stream.  Every block is
    coloured in the first scratch_size(grid) floats of the float64 array
    `work` (None allocates one), so a field is a view into it, valid only
    until the iterator advances.  The breaks (as level indices), seed and
    replica are checked before this returns, so nothing is drawn for them.
    """
    try:
        breaks = tuple(breaks)
        depths = tuple(map(geometry._check_level, breaks))
    except (TypeError, ValueError):  # not iterable, or not a level index
        depths = ()
    if not depths or any(a >= b for a, b in zip(depths, depths[1:])):
        raise ValueError(f"breaks must be increasing non-negative depths, got {breaks!r}")
    seed, replica = geometry._integer(seed, "seed", 0), geometry._integer(replica, "replica", 0)
    blocks = list(zip((0, *(b + 1 for b in depths[:-1])), depths))
    variances = [sum(map(geometry.level_variance, range(lo, hi + 1))) for lo, hi in blocks]
    work = np.empty(scratch_size(grid)) if work is None else work
    return (
        (hi, variance, _block_field(lo, hi, grid, seed, replica, work))
        for (lo, hi), variance in zip(blocks, variances)
    )
