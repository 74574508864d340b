import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmchaos import estimators, measure, sampler, spectral

COMPLEX = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def hierarchy():
    return sampler.sample_hierarchy(6, sampler.GridSpec(1024), seed=17, replica=0)


def _uniform_density(size=256):
    h = sampler.sample_hierarchy(2, sampler.GridSpec(size), seed=0)
    return measure.chaos_density(h, 0.0)


def test_uniform_density_has_zero_coefficients():
    spec = spectral.fourier_coefficients(_uniform_density(), 16)
    assert np.max(np.abs(spec)) < 1e-12


def test_band_limited_exactness():
    values = 1.0 + np.cos(2 * np.pi * sampler.GridSpec(256).times())
    spec = spectral.fourier_coefficients(values, 8)
    assert spec[0] == pytest.approx(0.5, abs=1e-13)
    assert np.max(np.abs(spec[1:])) < 1e-13


def test_fourier_coefficients_are_the_scaled_fft_bitwise(hierarchy):
    density = measure.chaos_density(hierarchy, 0.5)
    for n_max in (1, 17, 128):
        expected = np.fft.fft(density)[1 : n_max + 1] / density.size
        assert spectral.fourier_coefficients(density, n_max).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "stage",
    [
        lambda values, path: spectral.fourier_coefficients(values, 8),
        lambda values, path: measure.dyadic_masses(values, 2),
        lambda values, path: measure.interval_mass(values, (0.0, 0.5)),
        lambda values, path: measure.write_density_csv(values, path),
    ],
    ids=["fourier_coefficients", "dyadic_masses", "interval_mass", "write_density_csv"],
)
def test_array_stages_refuse_a_grid_that_is_not_a_power_of_two(tmp_path, stage):
    path = tmp_path / "density.csv"
    with pytest.raises(ValueError, match="grid size must be a power of two >= 2, got 100"):
        stage(np.ones(100), path)
    assert not path.exists()


def test_nyquist_guard():
    with pytest.raises(ValueError):
        spectral.fourier_coefficients(_uniform_density(256), 33)  # above 256/8


def test_weighted_modulus_invariant(hierarchy):
    spec = spectral.fourier_coefficients(measure.chaos_density(hierarchy, 0.5), 64)
    weighted = spectral.decay_weights(64, 0.7) * spec
    n = np.arange(1, 65)
    assert np.allclose(np.abs(weighted), n**0.35 * np.abs(spec), rtol=1e-12)


def test_dyadic_family_odd_even():
    odd = spectral.dyadic_family(2, "odd")
    assert [(i.left, i.right) for i in odd] == [(0.0, 0.25), (0.5, 0.75)]
    all_two = spectral.dyadic_family(1)
    assert [(i.left, i.right) for i in all_two] == [(0.0, 0.5), (0.5, 1.0)]
    odd2 = spectral.dyadic_family(2, "odd")
    even2 = spectral.dyadic_family(2, "even")
    merged = sorted(odd2 + even2, key=lambda i: i.index)
    assert merged == spectral.dyadic_family(2)
    with pytest.raises(ValueError):
        spectral.dyadic_family(2, "prime")


def test_dyadic_interval_grid_alignment():
    interval = spectral.DyadicInterval(3, 5)
    assert interval.grid_slice(sampler.GridSpec(64)) == (32, 40)
    assert interval.parity == "odd"
    with pytest.raises(ValueError):
        spectral.DyadicInterval(2, 5)
    with pytest.raises(ValueError):
        spectral.DyadicInterval(9, 1).grid_slice(sampler.GridSpec(64))


def test_localized_vector_degenerate(hierarchy):
    vec = spectral.localized_vector(hierarchy, 0.0, spectral.DyadicInterval(2, 1), 0.5, 32)
    assert np.array_equal(vec, np.zeros(32, dtype=complex))


def test_localized_vector_against_direct_sum(hierarchy):
    gamma, tau = 0.5, 0.3
    interval = spectral.DyadicInterval(2, 3)
    vec = spectral.localized_vector(hierarchy, gamma, interval, tau, 16)
    grid = hierarchy.grid
    t = grid.times()
    prefix = np.ones(grid.size)
    for j in range(3):
        prefix = prefix * measure.weight_field(hierarchy, j, gamma)
    core = prefix * (measure.weight_field(hierarchy, 3, gamma) - 1.0)
    i_lo, i_hi = interval.grid_slice(grid)
    for n in (1, 7, 16):
        direct = n ** (tau / 2) * np.sum(
            core[i_lo:i_hi] * np.exp(-2j * np.pi * n * t[i_lo:i_hi])
        ) / grid.size
        assert abs(vec[n - 1] - direct) < 1e-12


def test_localized_requires_deep_enough_hierarchy(hierarchy):
    with pytest.raises(ValueError):
        spectral.localized_vector(hierarchy, 0.5, spectral.DyadicInterval(6, 1), 0.3, 16)
    with pytest.raises(ValueError):
        spectral.localized_vector(hierarchy, 0.5, spectral.DyadicInterval(2, 1), 0.3, 1024)


def test_increment_decomposition(hierarchy):
    gamma, tau, n_max = 0.5, 0.4, 64
    weights = spectral.decay_weights(n_max, tau)
    for k in range(1, 7):
        low = weights * spectral.fourier_coefficients(measure.chaos_density(hierarchy, gamma, k - 1), n_max)
        high = weights * spectral.fourier_coefficients(measure.chaos_density(hierarchy, gamma, k), n_max)
        total = np.zeros(n_max, dtype=complex)
        for interval in spectral.dyadic_family(k - 1):
            total += spectral.localized_vector(hierarchy, gamma, interval, tau, n_max)
        assert np.max(np.abs(total - (high - low))) < 1e-10


def test_same_parity_intervals_decouple():
    # distance between same-parity intervals is at least one interval length,
    # beyond the level-k covariance support
    from gmchaos import geometry

    k = 4
    grid = sampler.GridSpec(256)
    t = grid.times()
    for family in ("odd", "even"):
        intervals = spectral.dyadic_family(k - 1, family)
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


def test_separation_bound_degenerate(hierarchy):
    comp = spectral.separation_bound(hierarchy, 0.0, spectral.DyadicInterval(2, 2), 0.4, 3)
    assert np.all(comp.residual_masses == 0.0)
    assert np.all(comp.increment_sums == 0.0)
    assert comp.all_satisfied


def test_separation_bound_holds_pathwise(hierarchy):
    comp = spectral.separation_bound(hierarchy, 0.5, spectral.DyadicInterval(2, 3), 0.4, 4)
    assert comp.all_satisfied
    assert comp.localized_abs.shape == comp.bound.shape


def test_separation_weight_supports(hierarchy):
    comp = spectral.separation_bound(hierarchy, 0.5, spectral.DyadicInterval(2, 1), 0.6, 3)
    k = comp.level_k
    n = comp.n
    assert np.array_equal(comp.direct_weights[0] > 0, n <= 2**k)
    for block in range(1, comp.max_block + 1):
        band = (n > 2 ** (k + block - 1)) & (n <= 2 ** (k + block))
        assert np.array_equal(comp.direct_weights[block] > 0, band)
        assert np.array_equal(comp.abel_weights[block - 1] > 0, band)
        expected = n[band] ** (comp.tau / 2 - 1.0)
        assert np.allclose(comp.abel_weights[block - 1][band], expected, rtol=1e-12)


def test_separation_bound_grid_depth_guard(hierarchy):
    with pytest.raises(ValueError):
        spectral.separation_bound(hierarchy, 0.5, spectral.DyadicInterval(2, 1), 0.4, 8)


def test_conditional_centering_of_localized_vector():
    # resample the top level only; the localized vector is centered given
    # the levels below
    grid = sampler.GridSpec(256)
    base = sampler.sample_hierarchy(3, grid, seed=99, replica=0)
    interval = spectral.DyadicInterval(2, 2)
    n_resample = 10**4
    picks = (1, 5, 17)
    values = np.empty((n_resample, len(picks)), dtype=complex)
    for r in range(n_resample):
        top = sampler.sample_level(3, grid, seed=99, replica=r + 1)
        rows = np.concatenate([base.samples[:3], top[None, :]])
        h = sampler.FieldHierarchy(
            grid=grid, depth=3, samples=rows, variances=base.variances.copy(),
            seed=99, replica=r + 1,
        )
        values[r] = spectral.localized_vector(h, 0.5, interval, 0.4, 32)[list(picks)]
    for col in range(len(picks)):
        for part in (values[:, col].real, values[:, col].imag):
            se = part.std(ddof=1) / math.sqrt(n_resample)
            assert abs(part.mean()) <= 3 * se


def test_spectrum_csv_export(tmp_path, hierarchy):
    spec = spectral.fourier_coefficients(measure.chaos_density(hierarchy, 0.5), 16)
    path = tmp_path / "spectrum.csv"
    spectral.write_spectrum_csv(spec, path)
    lines = path.read_text().splitlines()
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


def test_separation_json_export(tmp_path, hierarchy):
    import json

    comp = spectral.separation_bound(hierarchy, 0.5, spectral.DyadicInterval(2, 1), 0.4, 3)
    path = tmp_path / "separation.json"
    spectral.write_separation_json(comp, path)
    data = json.loads(path.read_text())
    assert data["level_k"] == 3
    assert data["all_satisfied"] is True
    assert len(data["bound"]) == len(data["n"])


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


def test_weight_sites_use_the_decay_weights_bitwise(hierarchy):
    tau, n_max, interval = 0.7, 64, spectral.DyadicInterval(2, 3)
    weights = spectral.decay_weights(n_max, tau)
    spec = spectral.fourier_coefficients(measure.chaos_density(hierarchy, 0.5), n_max)
    raw = spectral.localized_vector(hierarchy, 0.5, interval, 0.0, n_max)  # weights n^0 = 1
    local = spectral.localized_vector(hierarchy, 0.5, interval, tau, n_max)
    assert local.tobytes() == (weights * raw).tobytes()
    rows = np.stack([spec, raw])
    expected = spectral.lq_norm(weights * rows, 16.0) ** 1.5
    assert estimators.norm_powers(rows, tau, 1.5, 16.0).tobytes() == expected.tobytes()
    comp = spectral.separation_bound(hierarchy, 0.5, interval, tau, 3, n_max=n_max)
    assert np.count_nonzero(comp.direct_weights, axis=0).tolist() == [1] * n_max
    assert comp.direct_weights.sum(axis=0).tobytes() == weights.tobytes()
