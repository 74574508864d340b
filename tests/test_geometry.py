import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gmchaos import estimators, geometry, measure, spectral

LN2 = math.log(2.0)


@pytest.mark.parametrize(
    "j,h,expected",
    [
        (2, 0.0, LN2),
        (2, 0.5, 0.0),
        (2, 0.2, 0.293147),
        (2, 0.3, 0.110826),
        (0, 0.0, 1.0),
        (0, 0.4, 0.6),
        (0, 1.0, 0.0),
        (0, 2.0, 0.0),
    ],
)
def test_level_covariance_values(j, h, expected):
    assert geometry.level_covariance(j, h) == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize(
    "m,h,expected",
    [
        (3, 0.05, 3 * LN2 + 1 - 8 * 0.05),
        (3, 0.2, math.log(1 / 0.2)),
        (3, 1.0, 0.0),
        (3, 1.5, 0.0),
        (0, 0.0, 1.0),
    ],
)
def test_cumulative_covariance_values(m, h, expected):
    assert geometry.cumulative_covariance(m, h) == pytest.approx(expected, abs=1e-12)


def test_cumulative_covariance_example_value():
    assert geometry.cumulative_covariance(3, 0.05) == pytest.approx(2.679442, abs=1e-6)
    assert geometry.cumulative_covariance(3, 0.2) == pytest.approx(1.609438, abs=1e-6)


def test_telescoping_levels_sum_to_cumulative():
    lags = np.linspace(0.0, 1.2, 1000)
    for m in range(13):
        total = sum(geometry.level_covariance(j, lags) for j in range(m + 1))
        expected = geometry.cumulative_covariance(m, lags)
        assert np.max(np.abs(total - expected)) < 1e-12


def test_compact_support_is_exact_zero():
    for j in range(1, 12):
        edge = 2.0 ** (-(j - 1))
        for h in (edge, edge * 1.25, edge + 1.0):
            assert geometry.level_covariance(j, h) == 0.0
    for h in (1.0, 1.5, 7.0):
        assert geometry.level_covariance(0, h) == 0.0


def test_branch_continuity():
    for j in range(1, 12):
        for h in (2.0**-j, 2.0 ** (-(j - 1))):
            below = geometry.level_covariance(j, h * (1 - 1e-13))
            above = geometry.level_covariance(j, h * (1 + 1e-13))
            assert abs(below - above) < 1e-12


def test_monotone_nonincreasing():
    lags = np.linspace(0.0, 1.5, 4000)
    for j in range(8):
        values = geometry.level_covariance(j, lags)
        assert np.all(np.diff(values) <= 1e-15)


def test_negative_lag_rejected():
    with pytest.raises(ValueError):
        geometry.level_covariance(2, -0.1)
    with pytest.raises(ValueError):
        geometry.cumulative_covariance(2, -1e-9)
    with pytest.raises(ValueError):
        geometry.overlap_quadrature(2, -0.5)


def test_level_index_validated():
    with pytest.raises(ValueError):
        geometry.level_covariance(-1, 0.1)
    with pytest.raises(ValueError, match="^level index must be non-negative, got -2$"):
        geometry.level_variance(-2)
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValueError, match=f"^{re.escape(f'level index must be an integer, got {bad!r}')}$"):
            geometry.level_variance(bad)


def test_region_difference_consistent_with_covariance():
    # below lag 2^-j the variance minus the covariance is the area of a
    # strip minus its translate by t: t at level 0, 2^(j-1) t above
    for j in range(6):
        for t in np.linspace(0.0, 2.0**-j, 9):
            deficit = geometry.level_variance(j) - geometry.level_covariance(j, t)
            assert deficit == pytest.approx(t if j == 0 else 2.0 ** (j - 1) * t, abs=1e-12)


def test_quadrature_examples():
    assert geometry.overlap_quadrature(0, 0.25, 2000) == pytest.approx(0.75, abs=1e-4)
    assert geometry.overlap_quadrature(1, 1.0, 500) == 0.0
    assert geometry.overlap_quadrature(2, 0.2, 2000) == pytest.approx(0.293147, abs=1e-4)


def test_quadrature_agrees_with_closed_form():
    lags = np.linspace(0.0, 1.1, 50)
    for j in range(7):
        for h in lags:
            closed = geometry.level_covariance(j, float(h))
            quad = geometry.overlap_quadrature(j, float(h), 2000)
            assert abs(closed - quad) < 1e-3


@given(j=st.integers(0, 10), frac=st.floats(0.0, 1.5))
def test_quadrature_agrees_with_closed_form_at_random_lags(j, frac):
    h = frac * 2.0**-j  # in units of the level's support
    closed = geometry.level_covariance(j, h)
    assert abs(closed - geometry.overlap_quadrature(j, h, 2000)) < 1e-3


def test_quadrature_converges_with_resolution():
    coarse = abs(geometry.overlap_quadrature(3, 0.07, 200) - geometry.level_covariance(3, 0.07))
    fine = abs(geometry.overlap_quadrature(3, 0.07, 3200) - geometry.level_covariance(3, 0.07))
    assert fine <= coarse


def test_quadrature_resolution_floor():
    with pytest.raises(ValueError):
        geometry.overlap_quadrature(1, 0.1, 99)


NEGATIVE = "lags must be non-negative; take |t - s| before calling"
NAN = float("nan")


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: geometry.level_covariance(1, "0.25"), "lag must be a number, got '0.25'", id="string-lag"),
        pytest.param(lambda: geometry.level_covariance(1, True), "lag must be a number, got True", id="bool-lag"),
        pytest.param(lambda: geometry.level_covariance(1, [True, False]),
                     "lags must be integers or floats, got dtype bool", id="bool-lags"),
        pytest.param(lambda: geometry.cumulative_covariance(2, np.array(["0.25"])),
                     "lags must be integers or floats, got dtype <U4", id="string-lags"),
        pytest.param(lambda: geometry.level_covariance(1, NAN), NEGATIVE, id="nan-lag"),
        pytest.param(lambda: geometry.level_covariance(1, np.array([0.1, NAN])), NEGATIVE, id="nan-in-lags"),
        pytest.param(lambda: geometry.cumulative_covariance(3, NAN), NEGATIVE, id="nan-cumulative-lag"),
        pytest.param(lambda: geometry.overlap_quadrature(1, NAN), NEGATIVE, id="nan-quadrature-lag"),
        pytest.param(lambda: geometry.overlap_quadrature(0, 0.5, 2000.0),
                     "resolution must be an integer, got 2000.0", id="float-resolution"),
        pytest.param(lambda: spectral.lq_norm(np.ones(3), True), "q must be a number, got True", id="bool-q"),
        pytest.param(lambda: spectral.lq_norm(np.ones(3), NAN), "q must be >= 1, got nan", id="nan-q"),
        pytest.param(lambda: estimators.exponent_margin(0.5, 0.5, 1.5, NAN),
                     "q must exceed 4/(1 - tau) = 8, got nan", id="nan-margin-q"),
        pytest.param(lambda: estimators.exponent_margin(0.5, 0.5, "1.5", 16.0),
                     "moment order must be a number, got '1.5'", id="string-margin-p"),
        pytest.param(lambda: measure.weight_moment(0.5, 0, NAN), "moment order must be positive, got nan",
                     id="nan-moment-order"),
        pytest.param(lambda: measure.weight_moment_mc(0.5, 0, NAN, 100), "moment order must be positive, got nan",
                     id="nan-mc-moment-order"),
        pytest.param(lambda: estimators.power_law_spectrum(0.5, NAN), "q must not be nan", id="nan-spectrum-q"),
        pytest.param(lambda: estimators.power_law_spectrum(0.5, "2"), "q must be a number, got '2'",
                     id="string-spectrum-q"),
        pytest.param(lambda: estimators.decay_exponent_bound(0.5, "1.5"),
                     "moment order must be a number, got '1.5'", id="string-bound-p"),
    ],
)
def test_entries_refuse_a_non_number_or_nan_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
