import math

import numpy as np
import pytest

from gmchaos import measure, sampler


@pytest.fixture(scope="module")
def hierarchy():
    return sampler.sample_hierarchy(6, sampler.GridSpec(256), seed=21, replica=0)


def test_gamma_validation():
    measure.validate_gamma(0.0)
    measure.validate_gamma(1.41)
    for bad in (-0.1, math.sqrt(2.0), 2.0):
        with pytest.raises(ValueError):
            measure.validate_gamma(bad)


def test_weight_field_degenerate(hierarchy):
    assert np.array_equal(measure.weight_field(hierarchy, 2, 0.0), np.ones(256))


def test_weight_field_unit_mean(hierarchy):
    # independent replicas at a fixed grid point
    n = 600
    grid = sampler.GridSpec(64)
    values = np.empty(n)
    for r in range(n):
        h = sampler.sample_hierarchy(1, grid, seed=2, replica=r)
        values[r] = measure.weight_field(h, 1, 0.5)[17]
    se = values.std(ddof=1) / math.sqrt(n)
    assert abs(values.mean() - 1.0) <= 3 * se


def test_weight_second_moment_constant():
    mean, se = measure.weight_moment_mc(0.5, 1, 2.0, 10**5, seed=8)
    assert measure.weight_moment(0.5, 1, 2.0) == pytest.approx(2**0.25)
    assert abs(mean - 2**0.25) <= 3 * se


def test_weight_moment_closed_forms():
    assert measure.weight_moment(0.7, 0, 1.5) == pytest.approx(math.exp(0.5 * 1.5 * 0.5 * 0.49))
    assert measure.weight_moment(0.7, 3, 1.5) == pytest.approx(2 ** (0.5 * 1.5 * 0.5 * 0.49))
    assert measure.weight_moment(0.9, 2, 1.0) == 1.0  # martingale normalization
    with pytest.raises(ValueError):
        measure.weight_moment(0.5, 0, 0.0)


def test_chaos_density_degenerate(hierarchy):
    density = measure.chaos_density(hierarchy, 0.0)
    assert np.array_equal(density, np.ones(256))


def test_chaos_density_positive_and_finite():
    h = sampler.sample_hierarchy(12, sampler.GridSpec(1024), seed=3)
    density = measure.chaos_density(h, 1.3)
    assert np.all(density > 0.0)
    assert np.all(np.isfinite(density))


def test_chaos_density_depth_slicing(hierarchy):
    density = measure.chaos_density(hierarchy, 0.6, depth=3)
    manual = np.ones(256)
    for j in range(4):
        manual *= measure.weight_field(hierarchy, j, 0.6)
    assert np.allclose(density, manual, rtol=1e-12)
    with pytest.raises(ValueError):
        measure.chaos_density(hierarchy, 0.6, depth=7)


def test_total_mass_unit_mean():
    grid = sampler.GridSpec(256)
    n = 3000
    masses = np.empty(n)
    for r in range(n):
        h = sampler.sample_hierarchy(8, grid, seed=31, replica=r)
        masses[r] = measure.chaos_density(h, 0.7).mean()
    se = masses.std(ddof=1) / math.sqrt(n)
    assert abs(masses.mean() - 1.0) <= 3 * se


def test_total_mass_constant_across_depths():
    # unit-mean weights make the total mass a martingale in the depth: the
    # ensemble mean is flat in m
    grid = sampler.GridSpec(128)
    n = 1500
    depths = (2, 5, 8)
    masses = np.empty((n, len(depths)))
    for r in range(n):
        h = sampler.sample_hierarchy(8, grid, seed=19, replica=r)
        for c, m in enumerate(depths):
            masses[r, c] = measure.chaos_density(h, 0.6, depth=m).mean()
    for c in range(len(depths)):
        se = masses[:, c].std(ddof=1) / math.sqrt(n)
        assert abs(masses[:, c].mean() - 1.0) <= 3 * se
    # paired depth-to-depth differences are centered as well
    for c in range(len(depths) - 1):
        diff = masses[:, c + 1] - masses[:, c]
        se = diff.std(ddof=1) / math.sqrt(n)
        assert abs(diff.mean()) <= 3 * se


def test_half_interval_mass_ensemble_mean():
    grid = sampler.GridSpec(128)
    n = 2000
    masses = np.empty(n)
    for r in range(n):
        h = sampler.sample_hierarchy(6, grid, seed=13, replica=r)
        masses[r] = measure.dyadic_masses(measure.chaos_density(h, 0.5), 1)[0]
    se = masses.std(ddof=1) / math.sqrt(n)
    assert abs(masses.mean() - 0.5) <= 3 * se


def test_dyadic_masses(hierarchy):
    uniform = measure.chaos_density(hierarchy, 0.0)
    assert measure.dyadic_masses(uniform, 2) == pytest.approx([0.25] * 4, abs=1e-15)
    assert measure.dyadic_masses(uniform, 0)[0] == pytest.approx(1.0, abs=1e-15)
    density = measure.chaos_density(hierarchy, 0.9)
    masses = measure.dyadic_masses(density, 3)
    assert masses.size == 8
    assert masses.sum() == pytest.approx(measure.dyadic_masses(density, 0)[0], abs=1e-14)
    with pytest.raises(ValueError):
        measure.dyadic_masses(density, 9)  # finer than the 256-point grid


def test_frostman_uniform(hierarchy):
    density = measure.chaos_density(hierarchy, 0.0)
    ratios = measure.frostman_scan(density, 1.0, [0, 2, 5])
    assert np.allclose(ratios, 1.0, atol=1e-12)
    half = measure.frostman_scan(density, 0.5, [4])
    assert half[0] == pytest.approx(2**-2.0, abs=1e-12)


def test_holder_probe_degenerate():
    assert measure.holder_moment_probe(0.0, 2, 2.0, 0.1, 10**4, seed=1) == 0.0


def test_holder_probe_matches_quadrature():
    mc = measure.holder_moment_probe(0.5, 0, 2.0, 0.1, 10**5, seed=5)
    quad = measure.holder_moment_quadrature(0.5, 0, 2.0, 0.1, order=80)
    converged = measure.holder_moment_quadrature(0.5, 0, 2.0, 0.1, order=160)
    assert abs(quad - converged) < 1e-3
    # p = 2 closed form: 2 exp(g^2 v) - 2 exp(g^2 cov), normalized
    exact = (2 * math.exp(0.25) - 2 * math.exp(0.25 * 0.9)) / 0.1
    assert quad == pytest.approx(exact, abs=1e-9)
    assert abs(mc - quad) < 0.05 * quad


def test_holder_probe_bounded_at_tiny_lags():
    for j in (0, 3, 6):
        value = measure.holder_moment_probe(1.0, j, 2.0, 2.0 ** (-j - 10), 2 * 10**4, seed=j)
        assert 0.0 < value <= 10.0


def test_holder_probe_validation():
    with pytest.raises(ValueError):
        measure.holder_moment_probe(0.5, 3, 2.0, 0.2, 10**4)  # lag above 2^-3
    with pytest.raises(ValueError):
        measure.holder_moment_probe(0.5, 3, 2.0, 0.05, 10**3)  # too few samples
    with pytest.raises(ValueError):
        measure.holder_moment_quadrature(0.5, 3, 2.0, 0.0)


def test_density_csv_export(tmp_path, hierarchy):
    density = measure.chaos_density(hierarchy, 0.4)
    path = tmp_path / "density.csv"
    measure.write_density_csv(density, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,t,value"
    assert len(lines) == 257
    i, t, v = lines[5].split(",")
    assert int(i) == 4
    assert float(t) == 4 / 256
    assert float(v) == density[4]
