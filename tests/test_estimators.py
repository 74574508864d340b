import math

import numpy as np
import pytest

from gmchaos import estimators, harness

SQRT2 = math.sqrt(2.0)


def test_fourier_dimension_values():
    assert estimators.fourier_dimension(0.5) == pytest.approx(0.75)
    assert estimators.fourier_dimension(1.0) == pytest.approx(3 - 2 * SQRT2)
    assert estimators.fourier_dimension(1.0) == pytest.approx(0.171573, abs=1e-6)
    # branch continuity at sqrt(2)/2
    g = SQRT2 / 2
    assert estimators.fourier_dimension(g) == pytest.approx(0.5, abs=1e-12)
    assert 1 - g**2 == pytest.approx((SQRT2 - g) ** 2, abs=1e-12)
    with pytest.raises(ValueError):
        estimators.fourier_dimension(SQRT2)


def test_dimension_equals_grid_search_sup():
    p = np.arange(1.0 + 1e-5, 2.0 + 1e-12, 1e-5)
    for gamma in np.linspace(0.02, SQRT2 - 0.02, 50):
        values = 2.0 + gamma**2 - gamma**2 * p - 2.0 / p
        assert abs(float(values.max()) - estimators.fourier_dimension(gamma)) < 1e-8


def test_correlation_dimension_matches_decay_exponent():
    for gamma in np.linspace(0.05, SQRT2 - 0.05, 25):
        assert estimators.correlation_dimension(gamma) == pytest.approx(
            estimators.fourier_dimension(gamma), abs=1e-12
        )


def test_power_law_spectrum():
    assert estimators.power_law_spectrum(0.5, 1.0) == pytest.approx(1.0)
    assert estimators.power_law_spectrum(0.5, 2.0) == pytest.approx(1.75)


def test_exponent_margin_example():
    assert estimators.exponent_margin(0.5, 0.5, 1.8, 40) == pytest.approx(0.125, abs=1e-12)


def test_exponent_margin_identity():
    gen = np.random.default_rng(3)
    for _ in range(200):
        gamma = float(gen.uniform(0.05, SQRT2 - 0.05))
        tau = float(gen.uniform(0.0, 0.9))
        p = float(gen.uniform(1.01, 1.99))
        q = float(gen.uniform(4.0 / (1 - tau) + 0.1, 200.0))
        margin = estimators.exponent_margin(gamma, tau, p, q)
        alt = p / 2 * (estimators.decay_exponent_bound(gamma, p) - tau) - p / q
        assert abs(margin - alt) < 1e-12


def test_exponent_margin_monotone_in_q():
    low = estimators.exponent_margin(0.5, 0.5, 1.8, 40)
    high = estimators.exponent_margin(0.5, 0.5, 1.8, 4000)
    assert high > low
    assert high - low == pytest.approx(1.8 / 40 - 1.8 / 4000, abs=1e-12)


def test_exponent_margin_vanishing_moment_order():
    # as p drops to 1 the margin tends to -tau/2 - 1/q < 0
    value = estimators.exponent_margin(0.5, 0.5, 1.0 + 1e-9, 40.0)
    assert value < 0
    assert value == pytest.approx(-0.5 / 2 - 1 / 40, abs=1e-6)


def test_exponent_margin_validation():
    with pytest.raises(ValueError):
        estimators.exponent_margin(0.5, 0.5, 2.5, 40)
    with pytest.raises(ValueError):
        estimators.exponent_margin(0.5, 0.5, 1.8, 7.9)  # q below 4/(1 - tau)
    with pytest.raises(ValueError):
        estimators.exponent_margin(0.5, 1.2, 1.8, 40)


def test_find_exponents_feasible():
    plan = estimators.find_exponents(0.5, 0.675)
    assert plan.margin > 0
    assert 1 < plan.p < 2
    assert plan.q > 4 / (1 - 0.675)
    assert math.log2(plan.q) == int(math.log2(plan.q))
    # brute-force feasibility oracle agrees
    ps = np.linspace(1.01, 1.99, 197)
    qs = 2.0 ** np.arange(3, 16)
    feasible = any(
        estimators.exponent_margin(0.5, 0.675, float(p), float(q)) > 0
        for p in ps
        for q in qs
        if q > 4 / (1 - 0.675)
    )
    assert feasible


def test_find_exponents_rejects_critical_tau():
    with pytest.raises(estimators.NoFeasibleExponentsError):
        estimators.find_exponents(0.5, 0.75)
    with pytest.raises(estimators.NoFeasibleExponentsError):
        estimators.find_exponents(0.5, 0.9)


def test_find_exponents_interior_maximizer():
    # above sqrt(2)/2 the optimal moment order is sqrt(2)/gamma
    value = estimators.decay_exponent_bound(1.0, SQRT2)
    assert value == pytest.approx(3 - 2 * SQRT2, abs=1e-12)
    plan = estimators.find_exponents(1.0, 0.1)
    assert plan.p == pytest.approx(SQRT2 - 1e-3, abs=1e-12)


def test_decay_slope_exact_power_law():
    n = np.arange(1, 4097)
    abs2 = (n**-0.75)[None, :]
    fit = estimators.decay_slope(abs2, 16, 4096, statistic="mean")
    assert fit.slope == pytest.approx(-0.75, abs=1e-12)
    assert fit.stderr < 1e-12
    assert len(fit.blocks) == 8


def test_decay_slope_noisy_power_law():
    gen = np.random.default_rng(11)
    n = np.arange(1, 4097)
    abs2 = n**-0.75 * (1.0 + 0.1 * gen.uniform(-1, 1, size=(200, 4096)))
    fit = estimators.decay_slope(abs2, 16, 4096, statistic="mean")
    assert abs(fit.slope + 0.75) < 0.02
    fit_med = estimators.decay_slope(abs2, 16, 4096, statistic="median")
    assert abs(fit_med.slope + 0.75) < 0.02


def test_decay_slope_preconditions():
    data = np.ones((40, 256))
    with pytest.raises(ValueError):
        estimators.decay_slope(data, 32, 256, statistic="median")  # 3 blocks only
    with pytest.raises(ValueError):
        estimators.decay_slope(np.ones((10, 256)), 8, 256, statistic="median")
    with pytest.raises(ValueError):
        estimators.decay_slope(data, 8, 512, statistic="mean")  # beyond data
    with pytest.raises(ValueError, match="statistic must be mean or median, got 'quantile'"):
        estimators.decay_slope(data, 8, 256, statistic="quantile")
    with pytest.raises(ValueError, match="statistic must be mean or median, got 'quantile'"):
        harness.ExperimentConfig(gamma=0.5, depth=10, grid_size=2048, n_max=256, statistic="quantile")


def test_l2_slope_uniform_density():
    levels = range(2, 8)
    sums = np.array([[2.0**-lv for lv in levels]])
    fit = estimators.l2_spectrum_slope(sums, levels)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_l2_slope_single_atom():
    levels = range(2, 8)
    sums = np.array([[1.0 for _ in levels]])
    fit = estimators.l2_spectrum_slope(sums, levels)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_l2_slope_scale_invariance():
    gen = np.random.default_rng(5)
    levels = range(2, 9)
    sums = np.exp(gen.standard_normal((3, 7)))
    base = estimators.l2_spectrum_slope(sums, levels)
    scaled = estimators.l2_spectrum_slope(9.0**2 * sums, levels)
    assert scaled.slope == pytest.approx(base.slope, abs=1e-12)


def test_l2_slope_refuses_fewer_than_two_levels():
    with pytest.raises(ValueError, match=r"at least two levels, got \[4\]"):
        estimators.l2_spectrum_slope(np.array([[0.5]]), [4])
    with pytest.raises(ValueError, match=r"at least two levels, got \[\]"):
        estimators.l2_spectrum_slope(np.empty((1, 0)), range(5, 5))


def test_l2_slope_from_densities():
    from gmchaos import measure, sampler

    for _, _, _, density in measure.densities(0.0, sampler.block_fields(range(7), sampler.GridSpec(256), seed=2)):
        pass
    sums = [measure.l2_sums(density, range(1, 6))]
    fit = estimators.l2_spectrum_slope(sums, range(1, 6))
    assert fit.slope == pytest.approx(1.0, abs=1e-10)


def test_clt_exponent_value():
    assert estimators.clt_exponent(0.4) == pytest.approx(0.42)
    with pytest.raises(ValueError):
        estimators.clt_exponent(SQRT2 / 2)


def test_clt_profile_regime_and_shape():
    var = np.zeros(256)
    profile = estimators.rescaled_variance_profile(var, 120, 0.0, 4, 8)
    assert [row[2] for row in profile] == [0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        estimators.rescaled_variance_profile(var, 120, 0.8, 4, 8)
    with pytest.raises(ValueError):
        estimators.rescaled_variance_profile(var, 50, 0.4, 4, 8)
    with pytest.raises(ValueError):
        estimators.rescaled_variance_profile(var, 120, 0.4, 4, 12)


def test_clt_profile_flat_for_matching_decay():
    # coefficients built to decay exactly at the rescaling exponent give a
    # flat variance profile
    gen = np.random.default_rng(8)
    n = np.arange(1, 1025)
    sigma = n ** (-(1 - 0.4**2) / 2)
    coeffs = sigma * (gen.standard_normal((150, 1024)) + 1j * gen.standard_normal((150, 1024)))
    profile = estimators.rescaled_variance_profile(np.var(coeffs, axis=0), 150, 0.4, 5, 10)
    values = np.array([row[2] for row in profile])
    assert values.max() / values.min() < 1.3


def _write_slopes(fit, path):
    """The slope table as `report` writes it: integer block bounds, then the statistic."""
    harness.write_csv(path, "block_lo,block_hi,stat", [(int(lo), int(hi), y) for lo, hi, _, y in fit.blocks])


def test_slope_and_profile_csv(tmp_path):
    n = np.arange(1, 257)
    fit = estimators.decay_slope((n**-0.5)[None, :], 8, 256, statistic="mean")
    path = tmp_path / "slopes.csv"
    _write_slopes(fit, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "block_lo,block_hi,stat"
    assert len(lines) == 1 + len(fit.blocks)
    lo, hi, stat = lines[1].split(",")
    assert (float(lo), float(hi)) == (8.0, 16.0)
    float(stat)

    prof_path = tmp_path / "profile.csv"
    harness.write_csv(prof_path, "block_lo,block_hi,variance", [(8, 16, 0.25), (16, 32, 0.5)])
    lines = prof_path.read_text().splitlines()
    assert lines[0] == "block_lo,block_hi,variance"
    assert lines[1] == "8,16,0.25"


def test_slope_csv_writes_block_bounds_as_integers(tmp_path):
    n = np.arange(1, 2**21)
    fit = estimators.decay_slope((n**-0.5)[None, :], 2**16, 2**21 - 1, statistic="mean")
    path = tmp_path / "slopes.csv"
    _write_slopes(fit, path)
    bounds = [line.split(",")[:2] for line in path.read_text().splitlines()[1:]]
    assert bounds == [[str(2**a), str(2 ** (a + 1))] for a in range(16, 21)]
