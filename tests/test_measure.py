import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmchaos import cli, estimators, measure, sampler, spectral


def _density(gamma, depth=6, size=256, seed=21, replica=0):
    """The depth-`depth` density of one replica, levels 0..depth drawn one at a time."""
    fields = sampler.block_fields(range(depth + 1), sampler.GridSpec(size), seed, replica)
    for _, _, _, density in measure.densities(gamma, fields):
        pass
    return density


def test_gamma_validation(monkeypatch):
    measure.validate_gamma(0.0)
    measure.validate_gamma(1.41)
    for bad in (-0.1, math.sqrt(2.0), 2.0):
        with pytest.raises(ValueError):
            measure.validate_gamma(bad)
    # a string or a bool is refused by name, not converted, and before any draw
    opened = []
    monkeypatch.setattr(sampler.rng, "field_stream", lambda *key: opened.append(key))
    fields = sampler.block_fields(range(3), sampler.GridSpec(64), seed=1)
    checks = (measure.validate_gamma, estimators.fourier_dimension, lambda g: next(measure.densities(g, fields)))
    for bad in ("0.5", True):
        for check in checks:
            with pytest.raises(ValueError, match=f"^{re.escape(f'gamma must be a number, got {bad!r}')}$"):
                check(bad)
    assert opened == []


def test_level_weight_unit_mean():
    # independent replicas at a fixed grid point: the level-1 weight has
    # unit mean, so its centred profile over a unit density has mean zero
    n = 600
    grid = sampler.GridSpec(64)
    values = np.empty(n)
    for r in range(n):
        _, (_, variance, field) = sampler.block_fields(range(2), grid, seed=2, replica=r)
        values[r] = spectral.centered_profile(np.ones(64), 0.5, field, variance)[17]
    se = values.std(ddof=1) / math.sqrt(n)
    assert abs(values.mean()) <= 3 * se


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


def test_chaos_density_degenerate():
    # at gamma 0 every density is one
    fields = sampler.block_fields(range(7), sampler.GridSpec(256), seed=21)
    for _, _, _, density in measure.densities(0.0, fields):
        assert np.array_equal(density, np.ones(256))


def test_weight_field_degenerate():
    # at gamma 0 every level weight is one, so every centred profile is zero
    for _, variance, field in sampler.block_fields(range(7), sampler.GridSpec(256), seed=21):
        profile = spectral.centered_profile(np.ones(256), 0.0, field, variance)
        assert np.array_equal(profile, np.zeros(256))


def test_density_positive_and_finite():
    density = _density(1.3, depth=12, size=1024, seed=3)
    assert np.all(density > 0.0)
    assert np.all(np.isfinite(density))


BREAKS = st.one_of(
    st.integers(0, 10).map(lambda m: list(range(m + 1))),  # one level at a time
    st.sets(st.integers(0, 10), min_size=1).map(sorted),  # blocks
)


@given(
    breaks=BREAKS,
    gamma=st.floats(0.0, 1.4, exclude_max=True),
    replica=st.integers(0, 3),
    in_work=st.booleans(),
)
def test_streamed_densities_are_the_stacked_formula(breaks, gamma, replica, in_work):
    # each streamed density against the product of the weights written out
    # over copies of the same draws, bit for bit; a work array's old
    # contents must not reach it
    grid = sampler.GridSpec(256)
    work = np.full(2 * grid.size, np.nan) if in_work else None
    rows, variances = np.empty((len(breaks), grid.size)), np.empty(len(breaks))
    fields = sampler.block_fields(breaks, grid, seed=5, replica=replica)
    streamed = measure.densities(gamma, fields, work)
    for i, (depth, variance, field, density) in enumerate(streamed):
        assert depth == breaks[i]
        rows[i], variances[i] = field, variance
        expected = np.exp(gamma * rows[: i + 1].sum(0) - 0.5 * gamma**2 * np.sum(variances[: i + 1]))
        assert density.tobytes() == expected.tobytes()
        if in_work:
            assert np.shares_memory(density, work)
    assert i == len(breaks) - 1


def test_densities_refuse_gamma_before_drawing(monkeypatch):
    opened = []
    monkeypatch.setattr(sampler.rng, "field_stream", lambda *key: opened.append(key))
    fields = sampler.block_fields(range(3), sampler.GridSpec(64), seed=1)
    with pytest.raises(ValueError, match="gamma must lie in"):
        next(measure.densities(math.sqrt(2.0), fields))
    assert opened == []


@pytest.mark.parametrize(
    "work", [np.empty(130), np.empty(100), np.empty(128, dtype=np.int64), np.empty((2, 64))],
    ids=["long", "short", "integer", "two-rows"],
)
def test_densities_refuse_a_wrong_work_array(work):
    fields = sampler.block_fields(range(3), sampler.GridSpec(64), seed=1)
    with pytest.raises(ValueError, match="work must be a float64 array of 2G entries for grid size 64"):
        next(measure.densities(0.5, fields, work))


def test_total_mass_unit_mean():
    n = 3000
    masses = np.empty(n)
    for r in range(n):
        masses[r] = _density(0.7, depth=8, seed=31, replica=r).mean()
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
        for depth, _, _, density in measure.densities(0.6, sampler.block_fields(range(9), grid, 19, r)):
            if depth in depths:
                masses[r, depths.index(depth)] = density.mean()
    for c in range(len(depths)):
        se = masses[:, c].std(ddof=1) / math.sqrt(n)
        assert abs(masses[:, c].mean() - 1.0) <= 3 * se
    # paired depth-to-depth differences are centered as well
    for c in range(len(depths) - 1):
        diff = masses[:, c + 1] - masses[:, c]
        se = diff.std(ddof=1) / math.sqrt(n)
        assert abs(diff.mean()) <= 3 * se


def test_half_interval_mass_ensemble_mean():
    n = 2000
    masses = np.empty(n)
    for r in range(n):
        density = _density(0.5, depth=6, size=128, seed=13, replica=r)
        masses[r] = measure.dyadic_masses(density, 1)[0]
    se = masses.std(ddof=1) / math.sqrt(n)
    assert abs(masses.mean() - 0.5) <= 3 * se


def test_dyadic_masses():
    uniform = _density(0.0)
    assert measure.dyadic_masses(uniform, 2) == pytest.approx([0.25] * 4, abs=1e-15)
    assert measure.dyadic_masses(uniform, 0)[0] == pytest.approx(1.0, abs=1e-15)
    density = _density(0.9)
    masses = measure.dyadic_masses(density, 3)
    assert masses.size == 8
    assert masses.sum() == pytest.approx(measure.dyadic_masses(density, 0)[0], abs=1e-14)
    with pytest.raises(ValueError):
        measure.dyadic_masses(density, 9)  # finer than the 256-point grid
    # a level goes through the integer rule: not read as level 1, not failed inside reshape
    for bad in (True, 2.5):
        message = f"dyadic level must be an integer, got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            measure.dyadic_masses(density, bad)
    with pytest.raises(ValueError, match=r"^dyadic level must be an integer, got True$"):
        measure.l2_sums(density, (True, 2))


def test_frostman_uniform():
    density = _density(0.0)
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
    # seed and sample count go through the integer rule, refused by name, not truncated
    cases = [
        (lambda n, seed: measure.weight_moment_mc(0.5, 0, 2.0, n, seed=seed), 1000),
        (lambda n, seed: measure.holder_moment_probe(0.5, 3, 2.0, 0.05, n, seed=seed), 10**4),
    ]
    for probe, n in cases:
        for seed, message in ((1.5, "an integer, got 1.5"), (2.9, "an integer, got 2.9"),
                              (True, "an integer, got True"), (-1, "non-negative, got -1")):
            with pytest.raises(ValueError, match=f"^{re.escape(f'seed must be {message}')}$"):
                probe(n, seed)
        message = f"n_samples must be an integer, got {n + 0.7!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            probe(n + 0.7, 1)
        with pytest.raises(ValueError, match="^n_samples must be at least 1, got 0$"):
            probe(0, 1)


def test_density_csv_export(tmp_path):
    density = _density(0.4)  # simulate draws the same levels 0..6 of replica 0
    cli.main(["simulate", "--gamma", "0.4", "--m", "6", "--grid", "256", "--seed", "21",
              "--out", str(tmp_path)])
    lines = (tmp_path / "density.csv").read_text().splitlines()
    assert lines[0] == "i,t,value"
    assert len(lines) == 257
    i, t, v = lines[5].split(",")
    assert int(i) == 4
    assert float(t) == 4 / 256
    assert float(v) == density[4]
