"""Exact sampling of the independent stationary level fields on a grid.

Each level field is stationary with a compactly supported closed-form
covariance (see :mod:`gmchaos.geometry`), so it can be sampled exactly on a
uniform grid of [0, 1) by circulant embedding: periodize the covariance
with period 2 (twice the unit interval, so supports never wrap), take the
DFT to get the embedding eigenvalues (:func:`embedding_spectrum` returns
them as an array), colour complex white noise and keep
the real part on the first half of the circle.  The periodized sequence is
positive semidefinite in exact arithmetic; tiny negative eigenvalues from
round-off are clamped, anything larger is treated as a formula bug.

The levels are independent, so a block of levels lo..hi is one stationary
field with the summed eigenvalues.  :func:`sample_blocks` draws blocks; a
one-level block is :func:`sample_level`, and :func:`sample_hierarchy` is
all levels one by one.

A dense eigenfactorization sampler over small grids is included as a
cross-validation utility; it is not the production path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import geometry, rng

# Relative clamp for embedding eigenvalues: absorbs DFT round-off of an
# exactly-PSD sequence, small enough to flag real negativity.
EPS_CLAMP = 1e-8

_DENSE_LIMIT = 512
_BINARY_HEADER = struct.Struct("<qqqq")  # grid size, depth, seed, replica


class NotEmbeddableError(ValueError):
    """Covariance periodization produced genuinely negative eigenvalues."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid t_i = i / size on [0, 1) with size a power of two."""

    size: int

    def __post_init__(self) -> None:
        g = self.size
        if not isinstance(g, (int, np.integer)) or g < 2 or g & (g - 1):
            raise ValueError(f"grid size must be a power of two >= 2, got {g!r}")
        object.__setattr__(self, "size", int(g))

    @property
    def log2_size(self) -> int:
        return self.size.bit_length() - 1

    def times(self) -> np.ndarray:
        return np.arange(self.size) / self.size


@dataclass(frozen=True)
class FieldHierarchy:
    """Blocks of levels 0..depth of the field sampled on one grid, one replica.

    Row i holds the sum of the levels after breaks[i - 1] up to breaks[i]
    at the grid points (default breaks 0..depth: row j is level j), and
    variances[i] its pointwise variance.  Rows are independent and the
    whole object is regenerated bit-for-bit from (seed, replica).
    """

    grid: GridSpec
    depth: int
    samples: np.ndarray
    variances: np.ndarray
    seed: int
    replica: int
    breaks: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.breaks is None:
            object.__setattr__(self, "breaks", tuple(range(self.depth + 1)))
        self.samples.setflags(write=False)
        self.variances.setflags(write=False)

    @property
    def per_level(self) -> bool:
        return self.breaks == tuple(range(self.depth + 1))

    def level(self, j: int) -> np.ndarray:
        if not self.per_level:
            raise ValueError(f"rows are blocks ending at depths {self.breaks}, not single levels")
        if not 0 <= j <= self.depth:
            raise ValueError(f"level {j} outside 0..{self.depth}")
        return self.samples[j]


def covariance_sequence(j: int, grid: GridSpec) -> np.ndarray:
    """Period-2 covariance periodization sampled at the 2*size circle lags.

    Entry r is the closed-form covariance at circular lag min(r, 2G-r)/G;
    supports never exceed 1, so the periodization is overlap-free.
    """
    two_g = 2 * grid.size
    r = np.arange(two_g)
    lags = np.minimum(r, two_g - r) / grid.size
    return geometry.level_covariance(j, lags)


def embedding_spectrum(seq: np.ndarray) -> np.ndarray:
    """Eigenvalues (real DFT) of an even-length symmetric covariance sequence,
    round-off negatives clamped to zero."""
    seq = np.asarray(seq, dtype=float)
    n = seq.size
    if n % 2:
        raise ValueError("covariance sequence must have even length")
    if not np.array_equal(seq[1:], seq[1:][::-1]):
        raise ValueError("covariance sequence must be symmetric")
    eig = np.fft.fft(seq).real
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
    """Colouring filter of the block lo..hi: the square root of its summed
    embedding eigenvalues over the period points.  These filters are the
    sampler's only cache; the level spectra are built here and dropped."""
    spectra = [embedding_spectrum(covariance_sequence(j, grid)) for j in range(lo, hi + 1)]
    eigenvalues = np.sum(spectra, axis=0)
    return np.sqrt(eigenvalues / (2 * grid.size))


def _block_field(lo: int, hi: int, grid: GridSpec, seed: int, replica: int) -> np.ndarray:
    root = _block_root(lo, hi, grid)
    gen = rng.field_stream(seed, replica, *((lo,) if lo == hi else (lo, hi)))
    # noise[0] + i noise[1], coloured in one array; the noise is freed at once
    z = np.empty(root.size, dtype=complex)
    z.real, z.imag = gen.standard_normal((2, root.size))
    z *= root
    return np.ascontiguousarray(np.fft.fft(z).real[: grid.size])


def sample_blocks(breaks, grid: GridSpec, seed: int, replica: int = 0) -> FieldHierarchy:
    """Draw the fields of the level blocks ending at the increasing depths
    `breaks`, one noise draw and one FFT per block, for one replica.

    Block i holds the levels breaks[i - 1] + 1 .. breaks[i] (from level 0
    for i = 0).  A one-level block draws from that level's stream, so it
    equals sample_level bit for bit.
    """
    breaks = tuple(breaks)
    if not breaks or breaks[0] < 0 or any(a >= b for a, b in zip(breaks, breaks[1:])):
        raise ValueError(f"breaks must be increasing non-negative depths, got {breaks!r}")
    blocks = list(zip((0, *(b + 1 for b in breaks[:-1])), breaks))
    variances = np.array([sum(map(geometry.level_variance, range(lo, hi + 1))) for lo, hi in blocks])
    rows = np.stack([_block_field(lo, hi, grid, seed, replica) for lo, hi in blocks])
    return FieldHierarchy(
        grid, int(breaks[-1]), rows, variances, int(seed), int(replica), tuple(map(int, breaks))
    )


def sample_level(j: int, grid: GridSpec, seed: int, replica: int = 0) -> np.ndarray:
    """One exact draw of the level-j field at the grid points."""
    return _block_field(j, j, grid, seed, replica)


def sample_hierarchy(m: int, grid: GridSpec, seed: int, replica: int = 0) -> FieldHierarchy:
    """Draw the independent level fields 0..m for one replica."""
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError(f"depth must be a non-negative integer, got {m!r}")
    return sample_blocks(range(m + 1), grid, seed, replica)


def sample_level_dense(j: int, grid: GridSpec, seed: int, replica: int = 0) -> np.ndarray:
    """Dense-factorization draw of the level-j field (test utility).

    Builds the full grid covariance matrix from the closed form and
    factors it by symmetric eigendecomposition.  Same law as
    :func:`sample_level`, different path and different stream usage;
    limited to small grids.
    """
    if grid.size > _DENSE_LIMIT:
        raise ValueError(f"dense sampler limited to grids of size <= {_DENSE_LIMIT}")
    t = grid.times()
    cov = geometry.level_covariance(j, np.abs(t[:, None] - t[None, :]))
    vals, vecs = np.linalg.eigh(cov)
    vals = np.maximum(vals, 0.0)
    factor = vecs * np.sqrt(vals)
    gen = rng.field_stream(seed, replica, j)
    return factor @ gen.standard_normal(grid.size)


def write_hierarchy(hierarchy: FieldHierarchy, path) -> None:
    """Binary dump: little-endian (size, depth, seed, replica) header, then
    the level rows as row-major float64.  The header records no breaks, so
    a hierarchy of multi-level blocks is refused."""
    if not hierarchy.per_level:
        raise ValueError(f"the dump holds level rows, not blocks ending at {hierarchy.breaks}")
    with open(path, "wb") as fh:
        fh.write(
            _BINARY_HEADER.pack(hierarchy.grid.size, hierarchy.depth, hierarchy.seed, hierarchy.replica)
        )
        fh.write(hierarchy.samples.astype("<f8").tobytes())


def read_hierarchy(path) -> FieldHierarchy:
    """Read back a binary dump written by :func:`write_hierarchy`."""
    with open(path, "rb") as fh:
        header = fh.read(_BINARY_HEADER.size)
        if len(header) < _BINARY_HEADER.size:
            raise ValueError(f"dump {path} is shorter than its {_BINARY_HEADER.size}-byte header")
        size, depth, seed, replica = _BINARY_HEADER.unpack(header)
        if min(depth, seed, replica) < 0:
            why = f"depth {depth}, seed {seed}, replica {replica}"
            raise ValueError(f"dump {path} header has {why}; none may be negative")
        data = np.frombuffer(fh.read(), dtype="<f8").astype(float)
    needed = (depth + 1) * size
    if data.size != needed:
        raise ValueError(f"payload of {data.size} values; header needs {depth + 1} x {size} = {needed}")
    rows = data.reshape(depth + 1, size)
    variances = np.array([geometry.level_variance(j) for j in range(depth + 1)])
    return FieldHierarchy(GridSpec(size), depth, rows, variances, seed, replica)
