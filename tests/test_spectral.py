import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import probes
from gmchaos import cli, estimators, geometry, measure, sampler, spectral

COMPLEX = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def fields():
    """Levels 0..6 of one replica on a 1024-point grid, each field copied out
    of the sampler's scratch."""
    return [(d, v, f.copy()) for d, v, f in sampler.block_fields(range(7), sampler.GridSpec(1024), seed=17)]


def _stream(fields, gamma):
    """The density at each depth 0..6 of `fields` and the centred profile of
    each level 1..6 (profiles[k], None at 0)."""
    densities, profiles = [], [None]
    for depth, variance, field, density in measure.densities(gamma, fields):
        if depth:
            profiles.append(spectral.centered_profile(densities[-1], gamma, field, variance))
        densities.append(density.copy())
    return densities, profiles


def _uniform_density(size=256):
    for _, _, _, density in measure.densities(0.0, sampler.block_fields(range(3), sampler.GridSpec(size), seed=0)):
        pass
    return density


def test_uniform_density_has_zero_coefficients():
    spec = spectral.fourier_coefficients(_uniform_density(), 16)
    assert np.max(np.abs(spec)) < 1e-12


def test_band_limited_exactness():
    values = 1.0 + np.cos(2 * np.pi * sampler.GridSpec(256).times())
    spec = spectral.fourier_coefficients(values, 8)
    assert spec[0] == pytest.approx(0.5, abs=1e-13)
    assert np.max(np.abs(spec[1:])) < 1e-13


def test_fourier_coefficients_are_the_scaled_fft_bitwise(fields):
    density = _stream(fields, 0.5)[0][6]
    for n_max in (1, 17, 128):
        expected = np.fft.rfft(density)[1 : n_max + 1] / density.size
        assert spectral.fourier_coefficients(density, n_max).tobytes() == expected.tobytes()
    for bad in (2.5, True, "8"):  # refused by name, not truncated
        with pytest.raises(ValueError, match=f"^{re.escape(f'n_max must be an integer, got {bad!r}')}$"):
            spectral.fourier_coefficients(density, bad)


@pytest.mark.parametrize(
    "stage",
    [
        lambda values: spectral.fourier_coefficients(values, 8),
        lambda values: measure.dyadic_masses(values, 2),
    ],
    ids=["fourier_coefficients", "dyadic_masses"],
)
def test_array_stages_refuse_a_grid_that_is_not_a_power_of_two(stage):
    with pytest.raises(ValueError, match="grid size must be a power of two >= 2, got 100"):
        stage(np.ones(100))


def test_second_moment_is_the_pair_sum():
    # the lag-grouped formula against the double sum over grid pairs
    grid = sampler.GridSpec(64)
    t = grid.times()
    lags = np.abs(t[:, None] - t[None, :])
    for gamma, depth in ((0.0, 4), (0.5, 5), (1.2, 6)):
        pair = np.exp(gamma**2 * geometry.cumulative_covariance(depth, lags))
        n = np.arange(1, 9)
        phase = np.exp(-2j * np.pi * n[:, None] * t[None, :])
        direct = np.einsum("ni,il,nl->n", phase, pair, phase.conj()).real / 64**2
        exact = spectral.second_moment(gamma, depth, grid, 8)
        assert np.max(np.abs(exact - direct)) <= 1e-12 * pair.max()
    with pytest.raises(ValueError):
        spectral.second_moment(0.5, 5, grid, 9)  # above 64/8


def test_nyquist_guard():
    with pytest.raises(ValueError):
        spectral.fourier_coefficients(_uniform_density(256), 33)  # above 256/8


def test_weighted_modulus_invariant(fields):
    spec = spectral.fourier_coefficients(_stream(fields, 0.5)[0][6], 64)
    weighted = spectral.decay_weights(64, 0.7) * spec
    n = np.arange(1, 65)
    assert np.allclose(np.abs(weighted), n**0.35 * np.abs(spec), rtol=1e-12)


def test_dyadic_family_odd_even():
    odd = spectral.dyadic_family(2)[0::2]
    assert [(i.left, i.right) for i in odd] == [(0.0, 0.25), (0.5, 0.75)]
    even = spectral.dyadic_family(2)[1::2]
    assert [(i.left, i.right) for i in even] == [(0.25, 0.5), (0.75, 1.0)]
    all_two = spectral.dyadic_family(1)
    assert [(i.left, i.right) for i in all_two] == [(0.0, 0.5), (0.5, 1.0)]


def test_dyadic_interval_grid_alignment():
    interval = spectral.DyadicInterval(3, 5)
    assert interval.grid_slice(sampler.GridSpec(64)) == (32, 40)
    with pytest.raises(ValueError):
        spectral.DyadicInterval(2, 5)
    with pytest.raises(ValueError):
        spectral.DyadicInterval(9, 1).grid_slice(sampler.GridSpec(64))


def test_dyadic_level_and_index_go_through_the_integer_rule():
    for bad in (True, 2.5, "2"):
        for name, build in (("level", lambda x: spectral.DyadicInterval(x, 1)),
                            ("level", spectral.dyadic_family),
                            ("index", lambda x: spectral.DyadicInterval(2, x))):
            message = f"dyadic {name} must be an integer, got {bad!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(bad)
    with pytest.raises(ValueError, match=r"^dyadic level must be non-negative, got -1$"):
        spectral.dyadic_family(-1)
    with pytest.raises(ValueError, match=r"^dyadic index must be at least 1, got 0$"):
        spectral.DyadicInterval(2, 0)
    interval = spectral.DyadicInterval(np.int64(2), np.int64(3))
    assert (type(interval.level), type(interval.index)) == (int, int)
    assert interval == spectral.DyadicInterval(2, 3)


def test_localized_vector_degenerate(fields):
    vec = spectral.localized_vector(_stream(fields, 0.0)[1][3], spectral.DyadicInterval(2, 1), 0.5, 32)
    assert np.array_equal(vec, np.zeros(32, dtype=complex))


def test_localized_vector_against_direct_sum(fields):
    gamma, tau = 0.5, 0.3
    interval = spectral.DyadicInterval(2, 3)
    profile = _stream(fields, gamma)[1][3]
    vec = spectral.localized_vector(profile, interval, tau, 16)
    with pytest.raises(ValueError, match="^tau must be a number, got '0.3'$"):
        spectral.localized_vector(profile, interval, "0.3", 16)
    grid = sampler.GridSpec(1024)
    t = grid.times()
    weights = [np.exp(gamma * field - 0.5 * gamma**2 * variance) for _, variance, field in fields]
    prefix = np.ones(grid.size)
    for j in range(3):
        prefix = prefix * weights[j]
    core = prefix * (weights[3] - 1.0)
    i_lo, i_hi = interval.grid_slice(grid)
    for n in (1, 7, 16):
        direct = n ** (tau / 2) * np.sum(
            core[i_lo:i_hi] * np.exp(-2j * np.pi * n * t[i_lo:i_hi])
        ) / grid.size
        assert abs(vec[n - 1] - direct) < 1e-12


def test_localized_requires_deep_enough_hierarchy(fields):
    profile = _stream(fields, 0.5)[1][3]
    with pytest.raises(ValueError, match="finer than grid of size 1024"):
        spectral.localized_vector(profile, spectral.DyadicInterval(11, 1), 0.3, 16)
    with pytest.raises(ValueError):
        spectral.localized_vector(profile, spectral.DyadicInterval(2, 1), 0.3, 1024)


def test_increment_decomposition(fields):
    gamma, tau, n_max = 0.5, 0.4, 64
    weights = spectral.decay_weights(n_max, tau)
    densities, profiles = _stream(fields, gamma)
    for k in range(1, 7):
        low = weights * spectral.fourier_coefficients(densities[k - 1], n_max)
        high = weights * spectral.fourier_coefficients(densities[k], n_max)
        total = np.zeros(n_max, dtype=complex)
        for interval in spectral.dyadic_family(k - 1):
            total += spectral.localized_vector(profiles[k], interval, tau, n_max)
        assert np.max(np.abs(total - (high - low))) < 1e-10


def test_same_parity_intervals_decouple():
    # distance between same-parity intervals is at least one interval length,
    # beyond the level-k covariance support
    from gmchaos import geometry

    k = 4
    grid = sampler.GridSpec(256)
    t = grid.times()
    family = spectral.dyadic_family(k - 1)
    for intervals in (family[0::2], family[1::2]):
        for a, b in zip(intervals, intervals[1:]):
            sl_a = slice(*a.grid_slice(grid))
            sl_b = slice(*b.grid_slice(grid))
            gaps = np.abs(t[sl_b][None, :] - t[sl_a][:, None])
            assert np.all(geometry.level_covariance(k, gaps) == 0.0)


def test_lq_norm_examples():
    assert spectral.lq_norm(np.array([3.0, 4.0, 0.0]), 2) == pytest.approx(5.0)
    assert spectral.lq_norm(np.array([3.0, 4.0]), 1) == pytest.approx(7.0)
    vec = np.array([1.0 + 1j, -2.0, 0.5])
    assert spectral.lq_norm(3.0 * vec, 2.5) == pytest.approx(3.0 * spectral.lq_norm(vec, 2.5))
    with pytest.raises(ValueError):
        spectral.lq_norm(vec, 0.5)


def test_lq_norm_along_last_axis():
    gen = np.random.default_rng(3)
    values = gen.standard_normal((7, 40)) + 1j * gen.standard_normal((7, 40))
    for q in (1.0, 2.5, 16.0):
        norms = spectral.lq_norm(values, q)
        rows = np.concatenate([spectral.lq_norm(values[i : i + 1], q) for i in range(7)])
        assert norms.tobytes() == rows.tobytes()
        # a 1-D row takes numpy's scalar root, which may differ in the last bit
        single = np.array([spectral.lq_norm(row, q) for row in values])
        np.testing.assert_array_max_ulp(norms, single, maxulp=1)


@given(pairs=st.lists(st.tuples(COMPLEX, COMPLEX), min_size=1, max_size=8))
def test_product_difference_identity_property(pairs):
    a, b = (np.array(side) for side in zip(*pairs))
    expansion = spectral.product_difference_expansion(a, b)
    assert abs(expansion - (np.prod(a) - np.prod(b))) < 1e-12


@given(
    level=st.integers(0, 6), k=st.integers(0, 4), index=st.integers(1, 16),
    n=st.integers(1, 2048), data=st.data(),
)
def test_abel_identity_property(level, k, index, n, data):
    values = np.array(data.draw(st.lists(COMPLEX, min_size=2**level + 1, max_size=2**level + 1)))
    interval = spectral.DyadicInterval(k, 1 + (index - 1) % 2**k)
    direct, abel = spectral.abel_segment_transform(values, interval, n)
    assert abs(direct - abel) < 1e-12


def test_product_difference_identity():
    gen = np.random.default_rng(42)
    for _ in range(100):
        size = int(gen.integers(1, 10))
        a = gen.standard_normal(size) + 1j * gen.standard_normal(size)
        b = gen.standard_normal(size) + 1j * gen.standard_normal(size)
        expansion = spectral.product_difference_expansion(a, b)
        assert abs(expansion - (np.prod(a) - np.prod(b))) < 1e-12


def test_product_difference_two_terms():
    a = np.array([2.0, 5.0])
    b = np.array([3.0, 7.0])
    # (a0 - b0) a1 + b0 (a1 - b1) telescopes to a0 a1 - b0 b1
    assert spectral.product_difference_expansion(a, b) == pytest.approx(10.0 - 21.0)


def test_segment_integral():
    assert spectral.segment_integral(0.0, 1.0, 3) == pytest.approx(0.0, abs=1e-15)
    assert spectral.segment_integral(0.0, 0.5, 0) == pytest.approx(0.5)
    value = spectral.segment_integral(0.2, 0.3, 2)
    brute = np.trapezoid(
        np.exp(-2j * np.pi * 2 * np.linspace(0.2, 0.3, 20001)), dx=0.1 / 20000
    )
    assert abs(value - brute) < 1e-9


def test_abel_identity_randomized():
    gen = np.random.default_rng(7)
    for _ in range(100):
        level = int(gen.integers(0, 7))
        k = int(gen.integers(0, 4))
        family = spectral.dyadic_family(k)
        interval = family[int(gen.integers(0, len(family)))]
        values = gen.standard_normal(2**level + 1) + 1j * gen.standard_normal(2**level + 1)
        n = int(gen.integers(1, 700))
        direct, abel = spectral.abel_segment_transform(values, interval, n)
        assert abs(direct - abel) < 1e-12


def test_abel_constant_values_full_oscillation():
    direct, abel = spectral.abel_segment_transform(np.full(5, 3.7), (0.0, 0.5), 2)
    assert abs(direct) < 1e-15
    assert abs(abel) < 1e-15


def test_abel_two_segment_hand_expansion():
    values = np.array([1.0, 2.0, 123.0])  # last node value never enters
    interval = (0.0, 0.5)
    n = 3
    direct, abel = spectral.abel_segment_transform(values, interval, n)
    hand = values[0] * spectral.segment_integral(0.0, 0.25, n) + values[1] * spectral.segment_integral(0.25, 0.5, n)
    assert abs(direct - hand) < 1e-15
    assert abs(abel - hand) < 1e-13


def test_abel_node_count_validation():
    with pytest.raises(ValueError):
        spectral.abel_segment_transform(np.ones(4), (0.0, 1.0), 1)


def test_separation_bound_degenerate(fields):
    comp = probes.separation_bound(_stream(fields, 0.0)[1][3], spectral.DyadicInterval(2, 2), 0.4, 3)
    assert np.all(comp.residual_masses == 0.0)
    assert np.all(comp.increment_sums == 0.0)
    assert np.all(comp.localized_abs <= comp.bound + 1e-8)


def test_separation_bound_holds_pathwise(fields):
    comp = probes.separation_bound(_stream(fields, 0.5)[1][3], spectral.DyadicInterval(2, 3), 0.4, 4)
    assert np.all(comp.localized_abs <= comp.bound + 1e-8)
    assert comp.localized_abs.shape == comp.bound.shape


def test_separation_weight_supports(fields):
    k, tau, max_block = 3, 0.6, 3  # the profile of level 3, on an interval of generation 2
    comp = probes.separation_bound(_stream(fields, 0.5)[1][k], spectral.DyadicInterval(k - 1, 1), tau, max_block)
    n = comp.n
    assert np.array_equal(comp.direct_weights[0] > 0, n <= 2**k)
    for block in range(1, max_block + 1):
        band = (n > 2 ** (k + block - 1)) & (n <= 2 ** (k + block))
        assert np.array_equal(comp.direct_weights[block] > 0, band)
        assert np.array_equal(comp.abel_weights[block - 1] > 0, band)
        expected = n[band] ** (tau / 2 - 1.0)
        assert np.allclose(comp.abel_weights[block - 1][band], expected, rtol=1e-12)


def test_conditional_centering_of_localized_vector():
    # resample the top level only; the localized vector is centered given
    # the levels below
    grid = sampler.GridSpec(256)
    *_, (_, _, _, base) = measure.densities(0.5, sampler.block_fields(range(3), grid, seed=99))
    interval = spectral.DyadicInterval(2, 2)
    n_resample = 10**4
    picks = (1, 5, 17)
    values = np.empty((n_resample, len(picks)), dtype=complex)
    for r in range(n_resample):
        # a fresh level 3 from its own stream; the block 0..2 before it is dropped
        _, (_, variance, top) = sampler.block_fields((2, 3), grid, seed=99, replica=r + 1)
        profile = spectral.centered_profile(base, 0.5, top, variance)
        values[r] = spectral.localized_vector(profile, interval, 0.4, 32)[list(picks)]
    for col in range(len(picks)):
        for part in (values[:, col].real, values[:, col].imag):
            se = part.std(ddof=1) / math.sqrt(n_resample)
            assert abs(part.mean()) <= 3 * se


def test_spectrum_csv_export(tmp_path):
    # simulate on a 128-point grid writes the 16 coefficients of this density
    grid = sampler.GridSpec(128)
    for _, _, _, density in measure.densities(0.5, sampler.block_fields(range(7), grid, seed=17)):
        pass
    spec = spectral.fourier_coefficients(density, 16)
    cli.main(["simulate", "--gamma", "0.5", "--m", "6", "--grid", "128", "--seed", "17",
              "--out", str(tmp_path)])
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "n,re,im,abs2,weighted_abs"
    assert len(lines) == 17
    n, re, im, abs2, weighted = lines[1].split(",")
    assert int(n) == 1
    assert float(abs2) == pytest.approx(float(re) ** 2 + float(im) ** 2, rel=1e-12)
    assert float(weighted) == pytest.approx(math.sqrt(float(abs2)), rel=1e-12)
    rows = [line.split(",") for line in lines[1:]]
    assert [int(row[0]) for row in rows] == list(range(1, 17))
    assert [row[3] for row in rows] == [repr(float(abs(c) ** 2)) for c in spec]
    # weighted_abs is |mu_hat(n)| from numpy's vectorised modulus, which may
    # differ in the last bit from the scalar abs(c) that rounds through hypot
    assert [row[4] for row in rows] == [repr(float(w)) for w in np.abs(spec)]
    written = np.array([float(row[4]) for row in rows])
    np.testing.assert_array_max_ulp(written, np.array([abs(c) for c in spec]), maxulp=1)


@given(n_max=st.integers(1, 2**14), data=st.data())
def test_blocks_tile_the_frequency_axis_and_windows_count_complete_blocks(n_max, data):
    columns = spectral.block_columns(n_max)
    tiled = np.concatenate([np.arange(n_max)[c] for c in columns])
    assert tiled.tolist() == list(range(n_max))  # in order, no overlap, no gap
    for a, (c, n) in enumerate(zip(columns, spectral.block_frequencies(n_max))):
        assert (n.start, n.stop) == (2**a, min(2 ** (a + 1), n_max + 1)) == (c.start + 1, c.stop + 1)
    n_hi = data.draw(st.integers(0, n_max))
    n_lo = data.draw(st.integers(0, n_hi + 1))
    min_blocks = data.draw(st.integers(0, 5))
    complete = [a for a in range(16) if n_lo <= 2**a and 2 ** (a + 1) - 1 <= n_hi]
    if len(complete) < min_blocks:
        with pytest.raises(ValueError, match=f"at least {min_blocks} complete dyadic blocks"):
            spectral.dyadic_blocks(n_lo, n_hi, n_max, min_blocks)
    else:
        assert list(spectral.dyadic_blocks(n_lo, n_hi, n_max, min_blocks)) == complete
    with pytest.raises(ValueError, match=f"n_hi = {n_max + 1} beyond"):
        spectral.dyadic_blocks(n_lo, n_max + 1, n_max, 0)


def test_weight_sites_use_the_decay_weights_bitwise(fields):
    tau, n_max, interval = 0.7, 64, spectral.DyadicInterval(2, 3)
    weights = spectral.decay_weights(n_max, tau)
    densities, profiles = _stream(fields, 0.5)
    spec = spectral.fourier_coefficients(densities[6], n_max)
    raw = spectral.localized_vector(profiles[3], interval, 0.0, n_max)  # weights n^0 = 1
    local = spectral.localized_vector(profiles[3], interval, tau, n_max)
    assert local.tobytes() == (weights * raw).tobytes()
    rows = np.stack([spec, raw])
    expected = spectral.lq_norm(weights * rows, 16.0) ** 1.5
    assert estimators.norm_powers(rows, tau, 1.5, 16.0).tobytes() == expected.tobytes()
    comp = probes.separation_bound(profiles[3], interval, tau, 3, n_max=n_max)
    assert np.count_nonzero(comp.direct_weights, axis=0).tolist() == [1] * n_max
    assert comp.direct_weights.sum(axis=0).tobytes() == weights.tobytes()
