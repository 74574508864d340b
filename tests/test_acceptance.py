"""Acceptance suite: one test per criterion, each printing a verdict line.

The statistical criteria run fixed-seed ensembles at desk scale; the
exact-identity criteria run at machine precision.  Shared ensembles are
computed once per session.
"""

import math

import numpy as np
import pytest

import gmchaos as gc
from gmchaos import spectral

N_MAX = 2**12
REPS = 200

# Scale of the decay-slope ensembles.  The fitted blocks must sit well below
# the construction depth of the approximate measure (frequencies near it see
# the truncation roll-off instead of the decay, measurably down to two
# octaves), so the depth runs four octaves above the top fitted frequency
# and the grid resolves every level.
GRID_SLOPE = gc.GridSpec(2**16)
DEPTH = 16

SEED_GAMMA05 = 1001
SEED_GAMMA10 = 1002
SEED_GAMMA04 = 303
SEED_FIDELITY = 56


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    return ok


@pytest.fixture(scope="module")
def gamma05_ensemble():
    norm_depths = (6, 8, 10, 12)
    abs2 = np.empty((REPS, N_MAX))
    s_levels = list(range(4, 11))
    s_sums = np.empty((REPS, len(s_levels)))
    frost_levels = list(range(6, 11))
    frost = np.empty((50, len(frost_levels)))
    spectra = {m: np.empty((REPS, N_MAX), dtype=complex) for m in norm_depths}
    for r in range(REPS):
        h = gc.sample_hierarchy(DEPTH, GRID_SLOPE, SEED_GAMMA05, r)
        density = gc.chaos_density(h, 0.5)
        abs2[r] = np.abs(gc.fourier_coefficients(density, N_MAX)) ** 2
        s_sums[r] = [float(np.sum(gc.dyadic_masses(density, lv) ** 2)) for lv in s_levels]
        if r < 50:
            frost[r] = gc.frostman_scan(density, 0.3, frost_levels)
        for m in norm_depths:
            part = gc.chaos_density(h, 0.5, depth=m)
            spectra[m][r] = gc.fourier_coefficients(part, N_MAX)
    return {
        "abs2": abs2,
        "s_levels": s_levels,
        "s_sums": s_sums,
        "frost_levels": frost_levels,
        "frost": frost,
        "spectra_by_depth": spectra,
    }


@pytest.fixture(scope="module")
def gamma10_abs2():
    abs2 = np.empty((REPS, N_MAX))
    for r in range(REPS):
        h = gc.sample_hierarchy(DEPTH, GRID_SLOPE, SEED_GAMMA10, r)
        density = gc.chaos_density(h, 1.0)
        abs2[r] = np.abs(gc.fourier_coefficients(density, N_MAX)) ** 2
    return abs2


def test_criterion_01_geometry_exactness():
    lags = np.linspace(0.0, 1.1, 50)
    worst_oracle = 0.0
    for j in range(7):
        for h in lags:
            closed = gc.level_covariance(j, float(h))
            quad = float(gc.overlap_quadrature(j, float(h), 2000))
            worst_oracle = max(worst_oracle, abs(closed - quad))
    grid = np.linspace(0.0, 1.2, 1000)
    worst_tel = 0.0
    for m in range(13):
        total = sum(gc.level_covariance(j, grid) for j in range(m + 1))
        worst_tel = max(worst_tel, float(np.max(np.abs(total - gc.cumulative_covariance(m, grid)))))
    ok = worst_oracle <= 1e-3 and worst_tel <= 1e-12
    assert report(
        1, ok, f"oracle defect {worst_oracle:.2e} (tol 1e-3), telescoping {worst_tel:.2e} (tol 1e-12)"
    )


def test_criterion_02_sampler_fidelity():
    grid = gc.GridSpec(256)
    reps = 20000
    levels = range(7)
    lag_sets = {}
    for j in levels:
        support = 1.0 if j == 0 else 2.0 ** (-(j - 1))
        lag_sets[j] = np.unique(
            np.maximum(1, (np.linspace(0.05, 0.95, 10) * support * 256).astype(int))
        )
    cov_sums = {j: np.zeros(len(lag_sets[j])) for j in levels}
    point = 101
    cross_pairs = [(0, 3), (1, 2), (2, 4), (3, 6), (0, 6)]
    cross = np.zeros(len(cross_pairs))
    cross_sq = np.zeros(len(cross_pairs))
    for r in range(reps):
        rows = [gc.sample_level(j, grid, SEED_FIDELITY, r) for j in levels]
        for j in levels:
            row = rows[j]
            for i, lag in enumerate(lag_sets[j]):
                cov_sums[j][i] += float(row[:-lag] @ row[lag:]) / (256 - lag)
        for i, (a, b) in enumerate(cross_pairs):
            prod = rows[a][point] * rows[b][point]
            cross[i] += prod
            cross_sq[i] += prod * prod
    worst_cov = 0.0
    for j in levels:
        emp = cov_sums[j] / reps
        theo = gc.level_covariance(j, lag_sets[j] / 256)
        worst_cov = max(worst_cov, float(np.max(np.abs(emp - theo))))
    cross_mean = cross / reps
    cross_se = np.sqrt((cross_sq / reps - cross_mean**2) / reps)
    worst_sigma = float(np.max(np.abs(cross_mean) / cross_se))
    ok = worst_cov <= 0.01 and worst_sigma <= 4.0
    assert report(
        2, ok, f"worst covariance error {worst_cov:.4f} (tol 0.01), worst cross-level {worst_sigma:.2f} s.e. (tol 4)"
    )


def test_criterion_03_exact_weight_moments():
    worst_z = 0.0
    for gi, gamma in enumerate((0.3, 0.7, 1.0)):
        for j in (0, 1, 4):
            for p in (1.2, 1.5, 2.0):
                mean, se = gc.weight_moment_mc(gamma, j, p, 10**5, seed=900 + 9 * gi + j)
                z = abs(mean - gc.weight_moment(gamma, j, p)) / se
                worst_z = max(worst_z, z)
    ok = worst_z <= 3.0
    assert report(3, ok, f"worst deviation {worst_z:.2f} s.e. over 27 cells (tol 3)")


def test_criterion_04_holder_moment_boundedness():
    worst = 0.0
    for gamma in (0.3, 0.7, 1.0):
        for j in range(9):
            for h in (2.0 ** (-j - 1), 2.0 ** (-j - 4)):
                value = gc.holder_moment_probe(gamma, j, 2.0, h, 2 * 10**4, seed=17 + j)
                worst = max(worst, value)
    mc = gc.holder_moment_probe(0.5, 0, 2.0, 0.1, 10**5, seed=5)
    quad = gc.holder_moment_quadrature(0.5, 0, 2.0, 0.1, order=80)
    converged = gc.holder_moment_quadrature(0.5, 0, 2.0, 0.1, order=160)
    quad_ok = abs(quad - converged) <= 1e-3
    mc_ok = abs(mc - quad) <= 0.05 * quad
    ok = worst <= 10.0 and quad_ok and mc_ok
    assert report(
        4,
        ok,
        f"max ratio {worst:.3f} (tol 10); quadrature self-agreement {abs(quad - converged):.2e} "
        f"(tol 1e-3); probe vs quadrature {abs(mc - quad):.4f}",
    )


def test_criterion_05_decomposition_identities():
    grid = gc.GridSpec(1024)
    gamma, tau, n_max = 0.5, 0.4, 128
    weights = spectral.decay_weights(n_max, tau)
    worst_tel = 0.0
    for rep in range(10):
        h = gc.sample_hierarchy(8, grid, seed=3000, replica=rep)
        for k in range(1, 9):
            low = weights * gc.fourier_coefficients(gc.chaos_density(h, gamma, k - 1), n_max)
            high = weights * gc.fourier_coefficients(gc.chaos_density(h, gamma, k), n_max)
            total = np.zeros(n_max, dtype=complex)
            for parity in ("odd", "even"):
                for interval in gc.dyadic_family(k - 1, parity):
                    total += gc.localized_vector(h, gamma, interval, tau, n_max)
            worst_tel = max(worst_tel, float(np.max(np.abs(total - (high - low)))))

    gen = np.random.default_rng(77)
    worst_abel = 0.0
    for _ in range(100):
        level = int(gen.integers(0, 7))
        family = gc.dyadic_family(int(gen.integers(0, 4)))
        interval = family[int(gen.integers(0, len(family)))]
        values = gen.standard_normal(2**level + 1) + 1j * gen.standard_normal(2**level + 1)
        n = int(gen.integers(1, 600))
        direct, abel = gc.abel_segment_transform(values, interval, n)
        worst_abel = max(worst_abel, abs(direct - abel))

    worst_prod = 0.0
    for _ in range(100):
        size = int(gen.integers(1, 10))
        a = gen.standard_normal(size) + 1j * gen.standard_normal(size)
        b = gen.standard_normal(size) + 1j * gen.standard_normal(size)
        worst_prod = max(
            worst_prod,
            abs(gc.product_difference_expansion(a, b) - (np.prod(a) - np.prod(b))),
        )
    ok = worst_tel <= 1e-10 and worst_abel <= 1e-12 and worst_prod <= 1e-12
    assert report(
        5,
        ok,
        f"increment split {worst_tel:.2e} (tol 1e-10), regrouping {worst_abel:.2e} (tol 1e-12), "
        f"product expansion {worst_prod:.2e} (tol 1e-12)",
    )


def test_criterion_06_separation_bound():
    grid = gc.GridSpec(2**12)
    tau = 0.4
    worst_excess = -np.inf
    checked = 0
    all_ok = True
    for gamma in (0.5, 1.0):
        for rep in range(10):
            h = gc.sample_hierarchy(6, grid, seed=4000, replica=rep)
            for k in (3, 5):
                for interval in gc.dyadic_family(k - 1):
                    comp = gc.separation_bound(h, gamma, interval, tau, max_block=4, slack=1e-8)
                    checked += comp.n.size
                    all_ok = all_ok and comp.all_satisfied
                    worst_excess = max(
                        worst_excess, float(np.max(comp.localized_abs - comp.bound))
                    )
    assert report(
        6,
        all_ok,
        f"{checked} frequencies checked, max (|Y| - bound) = {worst_excess:.3e} (slack 1e-8)",
    )


def test_criterion_07_exponent_machinery():
    p_grid = np.arange(1.0 + 1e-5, 2.0 + 1e-12, 1e-5)
    worst = 0.0
    for gamma in np.linspace(0.02, math.sqrt(2) - 0.02, 50):
        values = 2.0 + gamma**2 - gamma**2 * p_grid - 2.0 / p_grid
        worst = max(worst, abs(float(values.max()) - gc.fourier_dimension(gamma)))
    search_ok = True
    for gamma in (0.3, 0.7, 1.0, 1.3):
        d = gc.fourier_dimension(gamma)
        plan = gc.find_exponents(gamma, 0.9 * d)
        search_ok = search_ok and plan.margin > 0
        try:
            gc.find_exponents(gamma, d)
            search_ok = False
        except gc.NoFeasibleExponentsError:
            pass
    ok = worst <= 1e-8 and search_ok
    assert report(
        7, ok, f"sup-search defect {worst:.2e} (tol 1e-8); searched pairs feasible, critical tau rejected"
    )


def test_criterion_08_decay_slope_small_gamma(gamma05_ensemble):
    fit = gc.decay_slope(gamma05_ensemble["abs2"], 16, 4096, statistic="median")
    ok = -0.90 <= fit.slope <= -0.60
    assert report(
        8, ok, f"gamma=0.5 median slope {fit.slope:+.4f} (want [-0.90, -0.60]), stderr {fit.stderr:.3f}"
    )


def test_criterion_09_decay_slope_large_gamma(gamma05_ensemble, gamma10_abs2):
    fit10 = gc.decay_slope(gamma10_abs2, 16, 4096, statistic="median")
    fit05 = gc.decay_slope(gamma05_ensemble["abs2"], 16, 4096, statistic="median")
    ok = -0.35 <= fit10.slope <= -0.05 and fit10.slope > fit05.slope
    assert report(
        9,
        ok,
        f"gamma=1.0 median slope {fit10.slope:+.4f} (want [-0.35, -0.05]), "
        f"gamma=0.5 slope {fit05.slope:+.4f} (ordering {'ok' if fit10.slope > fit05.slope else 'violated'})",
    )


def test_criterion_10_correlation_dimension(gamma05_ensemble):
    fit = gc.l2_spectrum_slope(gamma05_ensemble["s_sums"], gamma05_ensemble["s_levels"])
    ok = abs(fit.slope - 0.75) <= 0.12
    assert report(10, ok, f"L2 slope {fit.slope:+.4f} (want 0.75 +- 0.12)")


def test_criterion_11_clt_rescaling():
    grid = gc.GridSpec(2**13)
    coeffs = np.empty((REPS, 2**10), dtype=complex)
    for r in range(REPS):
        h = gc.sample_hierarchy(12, grid, SEED_GAMMA04, r)
        density = gc.chaos_density(h, 0.4)
        coeffs[r] = gc.fourier_coefficients(density, 2**10)
    profile = gc.clt_rescale_profile(coeffs, 0.4, 6, 10)
    values = np.array([v for _, _, v in profile])
    spread = float(values.max() / values.min())
    ok = spread <= 2.0
    assert report(
        11,
        ok,
        f"rescaled block variances {np.array2string(values, precision=4)}, max/min {spread:.3f} (tol 2)",
    )


def test_criterion_12_uniform_bound_probe(gamma05_ensemble):
    plan = gc.find_exponents(0.5, 0.5)
    depths, means = gc.uniform_bound_probe(
        0.5, 0.5, plan.p, plan.q, gamma05_ensemble["spectra_by_depth"]
    )
    ratio = float(means[-1] / means[0])
    ok = ratio <= 1.5 and bool(np.all(np.isfinite(means)))
    assert report(
        12,
        ok,
        f"depths {depths}, norm means {np.array2string(means, precision=4)}, "
        f"last/first {ratio:.3f} (tol 1.5) at (p, q) = ({plan.p:.3f}, {plan.q:.0f})",
    )


def test_criterion_13_frostman_scan(gamma05_ensemble):
    mean_ratios = gamma05_ensemble["frost"].mean(axis=0)
    growth = mean_ratios[1:] / mean_ratios[:-1]
    worst = float(growth.max())
    ok = worst < 1.2
    assert report(
        13,
        ok,
        f"levels {gamma05_ensemble['frost_levels']}, mean sup ratios "
        f"{np.array2string(mean_ratios, precision=4)}, max growth {worst:.3f} (tol 1.2)",
    )
