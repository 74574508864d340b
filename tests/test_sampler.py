import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmchaos import geometry, measure, rng, sampler

LN2 = math.log(2.0)


def _rows(breaks, grid, seed, replica=0):
    """The fields and variances of block_fields(breaks, ...), stacked: each
    field copied out of the sampler's scratch."""
    rows, variances = np.empty((len(breaks), grid.size)), np.empty(len(breaks))
    for i, (_, variance, field) in enumerate(sampler.block_fields(breaks, grid, seed, replica)):
        rows[i], variances[i] = field, variance
    return rows, variances


def _level(j, grid, seed, replica=0):
    """The level-j field of one replica, from that level's own stream (after
    the block 0..j-1, which is dropped)."""
    *_, (_, _, field) = sampler.block_fields((j - 1, j) if j else (0,), grid, seed, replica)
    return field


def test_grid_spec_validation():
    assert sampler.GridSpec(8).log2_size == 3
    for bad in (0, 1, 3, 100, -8):
        with pytest.raises(ValueError):
            sampler.GridSpec(bad)


def test_covariance_sequence_entries():
    seq = sampler.covariance_sequence(1, sampler.GridSpec(8))
    assert seq.size == 16
    assert seq[0] == pytest.approx(LN2, abs=1e-15)
    assert seq[8] == 0.0  # lag 1.0, beyond the level-1 support
    seq2 = sampler.covariance_sequence(2, sampler.GridSpec(16))
    assert seq2[3] == pytest.approx(LN2 - 0.375, abs=1e-12)  # lag 3/16
    # periodization symmetry
    assert np.array_equal(seq2[1:], seq2[1:][::-1])


@given(st.integers(1, 16), st.integers(0, 24), st.booleans())
def test_covariance_sequence_is_the_full_circle_bit_for_bit(log2_size, j, widest):
    # evaluated inside the support and mirrored, the sequence is the
    # closed form at every circular lag, float for float
    grid = sampler.GridSpec(2**log2_size)
    period = 2 * grid.size if widest else sampler.embedding_period(j, grid)
    r = np.arange(period)
    full = geometry.level_covariance(j, np.minimum(r, period - r) / grid.size)
    assert sampler.covariance_sequence(j, grid, period).tobytes() == full.tobytes()


def test_embedding_spectrum_constant_sequence():
    eig = sampler.embedding_spectrum(np.full(16, 0.7))
    assert eig[0] == pytest.approx(16 * 0.7, rel=1e-12)
    assert np.max(np.abs(eig[1:])) < 1e-12


@pytest.mark.parametrize("j,size", [(0, 64), (3, 256), (5, 1024)])
def test_embedding_psd(j, size):
    seq = sampler.covariance_sequence(j, sampler.GridSpec(size))
    eig = sampler.embedding_spectrum(seq)
    assert np.all(eig >= 0.0)
    assert eig.shape == (size + 1,)
    assert eig.tobytes() == np.maximum(np.fft.rfft(seq).real, 0.0).tobytes()  # the clamped real DFT


@given(log2_size=st.integers(1, 16), lo=st.integers(0, 18), width=st.integers(0, 3))
def test_block_embedding_is_psd_on_any_grid(log2_size, lo, width):
    grid = sampler.GridSpec(2**log2_size)
    seqs = [sampler.covariance_sequence(j, grid) for j in range(lo, lo + width + 1)]
    for seq in seqs:
        assert np.all(sampler.embedding_spectrum(seq) >= 0.0)
    block = sampler.embedding_spectrum(np.sum(seqs, axis=0))  # raises if not PSD
    assert block.shape == (grid.size + 1,)


def test_embedding_rejects_non_psd():
    with pytest.raises(sampler.NotEmbeddableError):
        sampler.embedding_spectrum(np.array([0.0, 1.0, 0.0, 1.0]))


def test_embedding_shape_checks():
    with pytest.raises(ValueError):
        sampler.embedding_spectrum(np.ones(7))  # odd length
    with pytest.raises(ValueError):
        sampler.embedding_spectrum(np.array([1.0, 0.5, 0.2, 0.4]))  # asymmetric


def test_embedding_implied_covariance_matches_closed_form():
    for size in (16, 64):
        grid = sampler.GridSpec(size)
        for j in range(5):
            seq = sampler.covariance_sequence(j, grid)
            implied = np.fft.irfft(sampler.embedding_spectrum(seq), n=2 * size)
            assert np.max(np.abs(implied - seq)) < 1e-10
            # matrix form against the closed form on the grid
            t = grid.times()
            mat = geometry.level_covariance(j, np.abs(t[:, None] - t[None, :]))
            idx = np.abs(np.arange(size)[:, None] - np.arange(size)[None, :])
            assert np.max(np.abs(implied[idx] - mat)) < 1e-10


def test_determinism_and_stream_separation():
    grid = sampler.GridSpec(64)
    a, _ = _rows(range(5), grid, seed=9, replica=2)
    b, _ = _rows(range(5), grid, seed=9, replica=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, _rows(range(5), grid, 9, 3)[0])
    assert not np.array_equal(a, _rows(range(5), grid, 10, 2)[0])


def test_hierarchy_variance_record():
    _, variances = _rows(range(4), sampler.GridSpec(32), seed=0)
    assert variances[0] == 1.0
    assert np.allclose(variances[1:], LN2)


def test_empirical_variance_level0():
    # fixed grid point across many replicas; level-0 variance is 1
    grid = sampler.GridSpec(8)
    n = 10**5
    values = np.array([_level(0, grid, seed=77, replica=r)[3] for r in range(n)])
    assert abs(values.var() - 1.0) < 0.02


def test_empirical_covariance_level2():
    # lag 0.2 on a 64-point grid, 4000 replicas, averaged over positions
    grid = sampler.GridSpec(64)
    lag_pts = 13  # 13/64 ~ 0.203
    theo = geometry.level_covariance(2, lag_pts / 64)
    acc = 0.0
    n = 4000
    for r in range(n):
        row = _level(2, grid, seed=5, replica=r)
        acc += row[:-lag_pts] @ row[lag_pts:] / (64 - lag_pts)
    assert abs(acc / n - theo) < 0.015


def _dense_level_draw(j, grid, seed, replica):
    """The level-j field through the full grid covariance matrix, built from
    the closed form and factored by symmetric eigendecomposition: the law of
    a one-level block by another path, for small grids only."""
    t = grid.times()
    cov = geometry.level_covariance(j, np.abs(t[:, None] - t[None, :]))
    vals, vecs = np.linalg.eigh(cov)
    factor = vecs * np.sqrt(np.maximum(vals, 0.0))
    return factor @ rng.field_stream(seed, replica, j).standard_normal(grid.size)


def test_dense_sampler_matches_law():
    # same closed-form covariance through the dense factorization path
    grid = sampler.GridSpec(64)
    lag_pts = 13
    theo = geometry.level_covariance(2, lag_pts / 64)
    acc = 0.0
    n = 4000
    for r in range(n):
        row = _dense_level_draw(2, grid, seed=6, replica=r)
        acc += row[:-lag_pts] @ row[lag_pts:] / (64 - lag_pts)
    assert abs(acc / n - theo) < 0.015


def test_long_range_decoupling_on_grid():
    grid = sampler.GridSpec(256)
    t = grid.times()
    for j in (2, 3, 4):
        gap = t[None, :] - t[:, None]
        far = np.abs(gap) >= 2.0 ** (-(j - 1))
        cov = geometry.level_covariance(j, np.abs(gap))
        assert np.all(cov[far] == 0.0)


def _inline_block_draw(lo, hi, grid, seed, replica):
    """The colouring written out on the block's circle of P points:
    half-spectrum complex noise from the block's stream times
    sqrt(P/2 * eigenvalues summed in level order), the DC and Nyquist terms
    times sqrt(2), one real inverse FFT of length P, first G points."""
    period = sampler.embedding_period(lo, grid)
    spectra = [
        sampler.embedding_spectrum(sampler.covariance_sequence(j, grid, period)) for j in range(lo, hi + 1)
    ]
    half = period // 2
    root = np.sqrt(half * sum(spectra[1:], spectra[0]))
    root[0] *= math.sqrt(2.0)
    root[half] *= math.sqrt(2.0)
    key = (lo,) if lo == hi else (lo, hi)
    noise = rng.stream(seed, rng.TAG_FIELD, replica, *key).standard_normal((2, half + 1))
    coloured = np.fft.irfft((noise[0] + 1j * noise[1]) * root, n=period)
    return coloured[: grid.size]


@pytest.mark.parametrize("log2_size", range(1, 17))
def test_level_streams_are_bit_identical_to_the_level_formula(log2_size):
    grid = sampler.GridSpec(2**log2_size)
    # level 0's periodized triangle has clamped zero eigenvalues, where a
    # signed-zero difference in the colouring would show first
    assert np.any(sampler._block_root(0, 0, grid) == 0.0)
    rows, _ = _rows(range(7), grid, seed=8, replica=5)
    for j in range(7):
        assert rows[j].tobytes() == _inline_block_draw(j, j, grid, 8, 5).tobytes()
    blocks, _ = _rows((1, 2, 6), grid, seed=8, replica=5)
    assert blocks[1].tobytes() == rows[2].tobytes()
    assert blocks[2].tobytes() == _inline_block_draw(3, 6, grid, 8, 5).tobytes()


def test_two_normal_calls_are_one_two_row_draw():
    # _block_field fills z.real and z.imag by two calls; the stream is that
    # of one (2, n) draw, row by row
    n = 4097
    two_rows = rng.field_stream(3, 1, 4, 9).standard_normal((2, n))
    gen = rng.field_stream(3, 1, 4, 9)
    real, imag = gen.standard_normal(n), gen.standard_normal(n)
    assert real.tobytes() == two_rows[0].tobytes() and imag.tobytes() == two_rows[1].tobytes()


@pytest.mark.parametrize("log2_size", range(1, 17))
def test_embedding_period_covers_the_support(log2_size):
    grid = sampler.GridSpec(2**log2_size)
    g = grid.size
    for j in range(25):
        period = sampler.embedding_period(j, grid)
        support = geometry.level_support(j)
        assert period % 2 == 0
        assert period >= g * (1 + support) - 1 and period >= 2 * support * g, (j, period)
        eig = np.fft.rfft(sampler.covariance_sequence(j, grid, period)).real
        assert eig.min() >= -sampler.EPS_CLAMP * eig.max(), (j, period)
    expected = {0: 2 * g, 1: 2 * g, 2: g + g // 2, 3: g + g // 4, 4: g + g // 8, 24: g + g // 8}
    if log2_size >= 4:
        assert {j: sampler.embedding_period(j, grid) for j in expected} == expected
    with pytest.raises(ValueError, match="folds the level-0 support"):
        sampler.covariance_sequence(0, grid, 2 * g - 2)


def test_sampler_retains_only_the_block_filters():
    grid = sampler.GridSpec(2**12)
    blocks = ((0, 3), (4, 6), (7, 12))
    periods = [sampler.embedding_period(lo, grid) for lo, _ in blocks]
    for n in periods:  # numpy's FFT plans are not the sampler's
        np.fft.irfft(np.fft.rfft(np.ones(n)), n=n)
    _level(0, sampler.GridSpec(2), 0)  # nor is numpy.random's lazy import
    sampler._block_root.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _rows([hi for _, hi in blocks], grid, 1, 0)  # the fields are dropped at once
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sampler._block_root.cache_info().currsize == 3
    assert retained <= sum(period // 2 + 1 for period in periods) * 8 + 16 * 1024, retained


def test_block_eigenvalues_match_cumulative_covariance():
    for size, m in ((64, 6), (1024, 10)):
        grid = sampler.GridSpec(size)
        r = np.arange(2 * size)
        lags = np.minimum(r, 2 * size - r) / size
        exact = np.fft.rfft(geometry.cumulative_covariance(m, lags)).real
        summed = sampler._block_root(0, m, grid) ** 2 / size
        summed[[0, -1]] /= 2  # the real DC and Nyquist modes carry sqrt(2)
        assert np.max(np.abs(summed - exact)) <= 1e-12 * exact.max()


@pytest.mark.parametrize("log2_size", range(1, 17))
def test_block_filter_implies_the_summed_covariance(log2_size):
    # noise-free law of the half-spectrum colouring on the block's circle of
    # P points: w_k = E|z_k|^2 with the real DC and Nyquist modes counted once
    # and every other mode twice (for itself and its mirror at P - k); its
    # inverse transform over P is the block covariance at every circle lag
    grid = sampler.GridSpec(2**log2_size)
    for lo, hi in ((0, 0), (0, 6), (3, 6), (13, 16)):
        period = sampler.embedding_period(lo, grid)
        w = sampler._block_root(lo, hi, grid) ** 2
        w[1:-1] *= 2
        implied = np.fft.irfft(w, n=period) / period
        exact = sum(sampler.covariance_sequence(j, grid, period) for j in range(lo, hi + 1))
        assert np.max(np.abs(implied - exact)) <= 1e-12 * exact[0], (lo, hi)


def test_block_field_law():
    # two blocks, 0..1 and 2..5, at grid 256: lag covariances against the
    # summed closed forms and the cross moment against zero, each within 4
    # standard errors estimated from the same draws
    grid = sampler.GridSpec(256)
    n = 4000
    lags = np.array([1, 8, 20, 40])
    stats = np.empty((n, 2, lags.size))
    cross = np.empty(n)
    for r in range(n):
        rows, _ = _rows((1, 5), grid, seed=12, replica=r)
        for b, row in enumerate(rows):
            stats[r, b] = [row[:-lag] @ row[lag:] / (256 - lag) for lag in lags]
        cross[r] = rows[0] @ rows[1] / 256
    for b, (lo, hi) in enumerate(((0, 1), (2, 5))):
        theo = sum(geometry.level_covariance(j, lags / 256) for j in range(lo, hi + 1))
        se = stats[:, b].std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(stats[:, b].mean(axis=0) - theo) <= 4 * se)
    assert abs(cross.mean()) <= 4 * cross.std(ddof=1) / math.sqrt(n)
    _, variances = _rows((1, 5), grid, seed=12)
    assert variances[0] == 1.0 + LN2
    assert variances[1] == pytest.approx(4 * LN2, rel=1e-15)


def test_block_hierarchy_refusals(monkeypatch):
    grid = sampler.GridSpec(64)
    depth, variance, field, density = next(measure.densities(0.5, sampler.block_fields((2, 5), grid, seed=3)))
    first = np.exp(0.5 * field - 0.5 * 0.5**2 * variance)
    assert depth == 2 and density.tobytes() == first.tobytes()
    opened = []
    monkeypatch.setattr(rng, "field_stream", lambda *key: opened.append(key))
    for bad in ((), (-1, 3), (3, 3), (4, 2), (True, 3), (1.5, 3), (2.0,), ("2",), 3):
        with pytest.raises(ValueError, match=re.escape(f"breaks must be increasing non-negative depths, got {bad!r}")):
            sampler.block_fields(bad, grid, seed=3)
    bad_keys = [
        (1.5, 0, "seed must be an integer, got 1.5"),
        (True, 0, "seed must be an integer, got True"),
        (-1, 0, "seed must be non-negative, got -1"),
        (3, 1.5, "replica must be an integer, got 1.5"),
        (3, True, "replica must be an integer, got True"),
        (3, -1, "replica must be non-negative, got -1"),
    ]
    for seed, replica, message in bad_keys:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sampler.block_fields((2, 5), grid, seed, replica)
    assert opened == []  # refused before any draw
