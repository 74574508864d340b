import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmchaos import geometry, measure, rng, sampler

LN2 = math.log(2.0)


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


def test_embedding_spectrum_constant_sequence():
    eig = sampler.embedding_spectrum(np.full(16, 0.7))
    assert eig[0] == pytest.approx(16 * 0.7, rel=1e-12)
    assert np.max(np.abs(eig[1:])) < 1e-12


@pytest.mark.parametrize("j,size", [(0, 64), (3, 256), (5, 1024)])
def test_embedding_psd(j, size):
    seq = sampler.covariance_sequence(j, sampler.GridSpec(size))
    eig = sampler.embedding_spectrum(seq)
    assert np.all(eig >= 0.0)
    assert eig.shape == (2 * size,)
    assert eig.tobytes() == np.maximum(np.fft.fft(seq).real, 0.0).tobytes()  # the clamped DFT


@given(log2_size=st.integers(1, 16), lo=st.integers(0, 18), width=st.integers(0, 3))
def test_block_embedding_is_psd_on_any_grid(log2_size, lo, width):
    grid = sampler.GridSpec(2**log2_size)
    seqs = [sampler.covariance_sequence(j, grid) for j in range(lo, lo + width + 1)]
    for seq in seqs:
        assert np.all(sampler.embedding_spectrum(seq) >= 0.0)
    block = sampler.embedding_spectrum(np.sum(seqs, axis=0))  # raises if not PSD
    assert block.shape == (2 * grid.size,)


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
            implied = np.fft.ifft(sampler.embedding_spectrum(seq)).real
            assert np.max(np.abs(implied - seq)) < 1e-10
            # matrix form against the closed form on the grid
            t = grid.times()
            mat = geometry.level_covariance(j, np.abs(t[:, None] - t[None, :]))
            idx = np.abs(np.arange(size)[:, None] - np.arange(size)[None, :])
            assert np.max(np.abs(implied[idx] - mat)) < 1e-10


def test_determinism_and_stream_separation():
    grid = sampler.GridSpec(64)
    a = sampler.sample_hierarchy(4, grid, seed=9, replica=2)
    b = sampler.sample_hierarchy(4, grid, seed=9, replica=2)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, sampler.sample_hierarchy(4, grid, 9, 3).samples)
    assert not np.array_equal(a.samples, sampler.sample_hierarchy(4, grid, 10, 2).samples)
    # rows are read-only
    with pytest.raises(ValueError):
        a.samples[0, 0] = 1.0


def test_hierarchy_variance_record():
    grid = sampler.GridSpec(32)
    h = sampler.sample_hierarchy(3, grid, seed=0)
    assert h.variances[0] == 1.0
    assert np.allclose(h.variances[1:], LN2)
    with pytest.raises(ValueError):
        h.level(4)


def test_empirical_variance_level0():
    # fixed grid point across many replicas; level-0 variance is 1
    grid = sampler.GridSpec(8)
    n = 10**5
    values = np.array([sampler.sample_level(0, grid, seed=77, replica=r)[3] for r in range(n)])
    assert abs(values.var() - 1.0) < 0.02


def test_empirical_covariance_level2():
    # lag 0.2 on a 64-point grid, 4000 replicas, averaged over positions
    grid = sampler.GridSpec(64)
    lag_pts = 13  # 13/64 ~ 0.203
    theo = geometry.level_covariance(2, lag_pts / 64)
    acc = 0.0
    n = 4000
    for r in range(n):
        row = sampler.sample_level(2, grid, seed=5, replica=r)
        acc += row[:-lag_pts] @ row[lag_pts:] / (64 - lag_pts)
    assert abs(acc / n - theo) < 0.015


def test_dense_sampler_matches_law():
    # same closed-form covariance through the dense factorization path
    grid = sampler.GridSpec(64)
    lag_pts = 13
    theo = geometry.level_covariance(2, lag_pts / 64)
    acc = 0.0
    n = 4000
    for r in range(n):
        row = sampler.sample_level_dense(2, grid, seed=6, replica=r)
        acc += row[:-lag_pts] @ row[lag_pts:] / (64 - lag_pts)
    assert abs(acc / n - theo) < 0.015
    with pytest.raises(ValueError):
        sampler.sample_level_dense(1, sampler.GridSpec(1024), seed=0)


def test_long_range_decoupling_on_grid():
    grid = sampler.GridSpec(256)
    t = grid.times()
    for j in (2, 3, 4):
        gap = t[None, :] - t[:, None]
        far = np.abs(gap) >= 2.0 ** (-(j - 1))
        cov = geometry.level_covariance(j, np.abs(gap))
        assert np.all(cov[far] == 0.0)


def test_binary_dump_round_trip(tmp_path):
    grid = sampler.GridSpec(32)
    h = sampler.sample_hierarchy(3, grid, seed=123, replica=4)
    path = tmp_path / "hierarchy.bin"
    sampler.write_hierarchy(h, path)
    back = sampler.read_hierarchy(path)
    assert back.grid == h.grid
    assert back.depth == h.depth
    assert back.seed == h.seed
    assert back.replica == h.replica
    assert np.array_equal(back.samples, h.samples)
    # header is 4 little-endian int64 + row-major float64 payload
    raw = path.read_bytes()
    assert len(raw) == 32 + 4 * 32 * 8


def test_binary_dump_refuses_block_hierarchy(tmp_path):
    h = sampler.sample_blocks((1, 3), sampler.GridSpec(32), seed=123)
    with pytest.raises(ValueError, match=r"blocks ending at \(1, 3\)"):
        sampler.write_hierarchy(h, tmp_path / "blocks.bin")
    assert not (tmp_path / "blocks.bin").exists()


def test_binary_dump_rejects_truncated_payload(tmp_path):
    path = tmp_path / "hierarchy.bin"
    sampler.write_hierarchy(sampler.sample_hierarchy(3, sampler.GridSpec(32), seed=1), path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="payload of 127 values; header needs 4 x 32 = 128"):
        sampler.read_hierarchy(path)


@pytest.mark.parametrize(
    "header, rows", [((256, -1, 3, 0), 0), ((256, 2, -5, -7), 3)], ids=["depth", "seed-and-replica"]
)
def test_binary_dump_refuses_negative_header_fields(tmp_path, header, rows):
    path = tmp_path / "hierarchy.bin"
    path.write_bytes(sampler._BINARY_HEADER.pack(*header) + bytes(8 * 256 * rows))
    _, depth, seed, replica = header
    expected = f"hierarchy.bin header has depth {depth}, seed {seed}, replica {replica}; none may be"
    with pytest.raises(ValueError, match=expected):
        sampler.read_hierarchy(path)


def test_binary_dump_rejects_truncated_header(tmp_path):
    path = tmp_path / "hierarchy.bin"
    path.write_bytes(bytes(10))
    with pytest.raises(ValueError, match="hierarchy.bin is shorter than its 32-byte header"):
        sampler.read_hierarchy(path)


def _inline_block_draw(lo, hi, grid, seed, replica):
    """The colouring written out: complex noise from the block's stream times
    sqrt(summed eigenvalues / period points), one FFT, real first half."""
    eig = sum(
        sampler.embedding_spectrum(sampler.covariance_sequence(j, grid))
        for j in range(lo, hi + 1)
    )
    m = 2 * grid.size
    key = (lo,) if lo == hi else (lo, hi)
    noise = rng.stream(seed, rng.TAG_FIELD, replica, *key).standard_normal((2, m))
    coloured = np.fft.fft((noise[0] + 1j * noise[1]) * np.sqrt(eig / m))
    return coloured.real[: grid.size]


@pytest.mark.parametrize("log2_size", range(1, 17))
def test_level_streams_are_bit_identical_to_the_level_formula(log2_size):
    grid = sampler.GridSpec(2**log2_size)
    # level 0's periodized triangle has clamped zero eigenvalues, where a
    # signed-zero difference in the colouring would show first
    assert np.any(sampler._block_root(0, 0, grid) == 0.0)
    for j in (0, 3, 6):
        row = sampler.sample_level(j, grid, seed=8, replica=5)
        assert row.tobytes() == _inline_block_draw(j, j, grid, 8, 5).tobytes()
    h = sampler.sample_hierarchy(6, grid, seed=8, replica=5)
    rows = np.stack([sampler.sample_level(j, grid, 8, 5) for j in range(7)])
    assert h.samples.tobytes() == rows.tobytes()
    assert h.breaks == tuple(range(7)) and h.per_level
    blocks = sampler.sample_blocks((1, 2, 6), grid, seed=8, replica=5)
    assert blocks.samples[1].tobytes() == rows[2].tobytes()
    assert blocks.samples[2].tobytes() == _inline_block_draw(3, 6, grid, 8, 5).tobytes()


def test_sampler_retains_only_the_block_filters():
    grid = sampler.GridSpec(2**12)
    for n in (grid.size, 2 * grid.size):  # numpy's FFT plans are not the sampler's
        np.fft.fft(np.ones(n, dtype=complex))
    sampler.sample_level(0, sampler.GridSpec(2), 0)  # nor is numpy.random's lazy import
    sampler._block_root.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sampler.sample_blocks((3, 6, 12), grid, 1, 0)  # the fields are dropped at once
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sampler._block_root.cache_info().currsize == 3
    assert retained <= 3 * 2 * grid.size * 8 + 16 * 1024, retained


def test_block_eigenvalues_match_cumulative_covariance():
    for size, m in ((64, 6), (1024, 10)):
        grid = sampler.GridSpec(size)
        r = np.arange(2 * size)
        lags = np.minimum(r, 2 * size - r) / size
        exact = np.fft.fft(geometry.cumulative_covariance(m, lags)).real
        summed = sampler._block_root(0, m, grid) ** 2 * (2 * size)
        assert np.max(np.abs(summed - exact)) <= 1e-12 * exact.max()


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
        rows = sampler.sample_blocks((1, 5), grid, seed=12, replica=r).samples
        for b, row in enumerate(rows):
            stats[r, b] = [row[:-lag] @ row[lag:] / (256 - lag) for lag in lags]
        cross[r] = rows[0] @ rows[1] / 256
    for b, (lo, hi) in enumerate(((0, 1), (2, 5))):
        theo = sum(geometry.level_covariance(j, lags / 256) for j in range(lo, hi + 1))
        se = stats[:, b].std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(stats[:, b].mean(axis=0) - theo) <= 4 * se)
    assert abs(cross.mean()) <= 4 * cross.std(ddof=1) / math.sqrt(n)
    h = sampler.sample_blocks((1, 5), grid, seed=12)
    assert h.variances[0] == 1.0 + LN2
    assert h.variances[1] == pytest.approx(4 * LN2, rel=1e-15)


def test_block_hierarchy_refusals():
    grid = sampler.GridSpec(64)
    h = sampler.sample_blocks((2, 5), grid, seed=3)
    assert not h.per_level
    with pytest.raises(ValueError, match="blocks ending at"):
        h.level(2)
    with pytest.raises(ValueError, match=r"not one of the sampled depths \(2, 5\)"):
        measure.chaos_density(h, 0.5, depth=4)
    first = np.exp(0.5 * h.samples[0] - 0.5 * 0.5**2 * h.variances[0])
    assert measure.chaos_density(h, 0.5, depth=2).tobytes() == first.tobytes()
    for bad in ((), (-1, 3), (3, 3), (4, 2)):
        with pytest.raises(ValueError):
            sampler.sample_blocks(bad, grid, seed=3)
