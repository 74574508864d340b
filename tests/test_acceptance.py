"""Acceptance suite: one test per criterion, each printing a verdict line.

The statistical criteria run fixed-seed ensembles at desk scale; the
exact-identity criteria run at machine precision.  Criteria 1, 3, 5 and 7
call the identity checks of `gmchaos verify` (gmchaos.cli) at their own
scale; criteria 4, 6 and 13 read the test-only probes of tests/probes.py,
and criterion 12 averages the per-replica estimators.norm_powers that
run_replica computes.  Criteria 2, 5 and 6 draw their levels one at a time;
the ensemble criteria 8-13 sample through the library's own paths (the
norm-depth blocks of run_replica, run_replica itself and the clt aggregate).
Shared ensembles are computed once per session.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import gmchaos as gc
import probes
from gmchaos import cli, harness

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


def _replicas(replica):
    """replica(r) for r = 0..REPS-1 on two threads, in replica order.  Each
    replica is a pure function of its index, so the results are the serial ones."""
    with ThreadPoolExecutor(2) as pool:
        return list(pool.map(replica, range(REPS)))


@pytest.fixture(scope="module")
def gamma05_ensemble():
    norm_depths = [6, 8, 10, 12]
    plan = gc.find_exponents(0.5, 0.5)
    s_levels = list(range(4, 11))
    frost_levels = list(range(6, 11))

    def replica(r):
        depth_norms = []
        fields = gc.block_fields((*norm_depths, DEPTH), GRID_SLOPE, SEED_GAMMA05, r)
        for depth, _, _, density in gc.densities(0.5, fields):
            if depth in norm_depths:
                depth_norms.append(gc.norm_powers(gc.fourier_coefficients(density, N_MAX), 0.5, plan.p, plan.q))
        return (
            np.abs(gc.fourier_coefficients(density, N_MAX)) ** 2,
            gc.l2_sums(density, s_levels),
            probes.frostman_scan(density, 0.3, frost_levels) if r < 50 else None,
            depth_norms,
        )

    abs2 = np.empty((REPS, N_MAX))
    s_sums = np.empty((REPS, len(s_levels)))
    frost = np.empty((50, len(frost_levels)))
    norms = np.empty((len(norm_depths), REPS))  # one contiguous row per depth, as each mean reads it
    for r, (row, sums, scan, depth_norms) in enumerate(_replicas(replica)):
        abs2[r] = row
        s_sums[r] = sums
        if r < 50:
            frost[r] = scan
        norms[:, r] = depth_norms
    return {
        "abs2": abs2,
        "s_levels": s_levels,
        "s_sums": s_sums,
        "frost_levels": frost_levels,
        "frost": frost,
        "plan": plan,
        "norm_depths": norm_depths,
        "norms": norms,
    }


@pytest.fixture(scope="module")
def gamma10_abs2():
    config = gc.ExperimentConfig(
        gamma=1.0, depth=DEPTH, grid_size=GRID_SLOPE.size, n_max=N_MAX, seed=SEED_GAMMA10
    )
    return np.stack(_replicas(lambda r: np.abs(gc.run_replica(config, r).coefficients) ** 2))


def test_criterion_01_geometry_exactness():
    worst_oracle = cli.oracle_defect(7, 50)
    worst_tel = cli.telescoping_defect(13, 1000)
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
    at_point = np.empty(len(levels))
    for r in range(reps):
        for j, _, row in gc.block_fields(levels, grid, SEED_FIDELITY, r):
            lags = lag_sets[j]
            cov_sums[j] += np.array([row[:-lag] @ row[lag:] for lag in lags]) / (256 - lags)
            at_point[j] = row[point]
        for i, (a, b) in enumerate(cross_pairs):
            prod = at_point[a] * at_point[b]
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
    cells = [(gamma, j, p, 900 + 9 * gi + j)
             for gi, gamma in enumerate((0.3, 0.7, 1.0)) for j in (0, 1, 4) for p in (1.2, 1.5, 2.0)]
    worst_z = cli.moment_deviation(cells)
    ok = worst_z <= 3.0
    assert report(3, ok, f"worst deviation {worst_z:.2f} s.e. over 27 cells (tol 3)")


def test_criterion_04_holder_moment_boundedness():
    worst = 0.0
    for gamma in (0.3, 0.7, 1.0):
        for j in range(9):
            for h in (2.0 ** (-j - 1), 2.0 ** (-j - 4)):
                value = probes.holder_moment_probe(gamma, j, 2.0, h, 2 * 10**4, seed=17 + j)
                worst = max(worst, value)
    mc = probes.holder_moment_probe(0.5, 0, 2.0, 0.1, 10**5, seed=5)
    quad = probes.holder_moment_quadrature(0.5, 0, 2.0, 0.1, order=80)
    converged = probes.holder_moment_quadrature(0.5, 0, 2.0, 0.1, order=160)
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
    worst_tel = cli.increment_defect(gamma=0.5, n_max=128, depth=8, seed=3000, replicas=10)
    gen = np.random.default_rng(77)
    worst_abel = cli.abel_defect(gen, 600)
    worst_prod = cli.product_defect(gen, 10)
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
            fields = gc.block_fields(range(7), grid, seed=4000, replica=rep)
            for k, variance, field, density in gc.densities(gamma, fields):
                if k in (3, 5):
                    profile = gc.centered_profile(prev, gamma, field, variance)
                    for interval in gc.dyadic_family(k - 1):
                        comp = probes.separation_bound(profile, interval, tau, max_block=4)
                        checked += comp.n.size
                        all_ok = all_ok and bool(np.all(comp.localized_abs <= comp.bound + 1e-8))
                        worst_excess = max(
                            worst_excess, float(np.max(comp.localized_abs - comp.bound))
                        )
                prev = density.copy()
    assert report(
        6,
        all_ok,
        f"{checked} frequencies checked, max (|Y| - bound) = {worst_excess:.3e} (slack 1e-8)",
    )


def test_criterion_07_exponent_machinery():
    worst = cli.exponent_defect(np.linspace(0.02, math.sqrt(2) - 0.02, 50))
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
    config = gc.ExperimentConfig(
        gamma=0.4, depth=12, grid_size=2**13, n_max=2**10, replicas=REPS, seed=SEED_GAMMA04
    )
    profile = harness.clt_profile_from_result(gc.run_ensemble(config, workers=2), 6, 10)
    values = np.array([v for _, _, v in profile])
    spread = float(values.max() / values.min())
    ok = spread <= 2.0
    assert report(
        11,
        ok,
        f"rescaled block variances {np.array2string(values, precision=4)}, max/min {spread:.3f} (tol 2)",
    )


def test_criterion_12_uniform_bound_probe(gamma05_ensemble):
    plan, depths = gamma05_ensemble["plan"], gamma05_ensemble["norm_depths"]
    means = gamma05_ensemble["norms"].mean(axis=1)
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
