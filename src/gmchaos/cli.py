"""Command-line front end.

Subcommands: verify (exact/closed-form suites), simulate (one replica,
levels 0..m drawn one at a time), spectrum (ensemble statistics), dims
(slope estimates as JSON), clt (rescaling profile) and report (re-derive
fits from an archived ensemble).
build_parser declares every option once. A flat key = value config file
(`--config`) is read as flags placed right after the subcommand, so its
values are checked like flags and explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import estimators, geometry, harness, measure, spectral
from .sampler import GridSpec, block_fields, covariance_sequence, embedding_period, embedding_spectrum


def _config_argv(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """The flags a key = value config file stands for: `fit_lo = 16` (or
    `fit-lo = 16`) becomes `--fit-lo=16`.  Config files do not nest."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        parser.error(f"cannot read config file {path!r}: {exc.strerror}")
    argv = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            parser.error(f"config line {raw!r} is not key=value")
        key, value = line.split("=", 1)
        key = key.strip().replace("_", "-")
        if key == "config":
            parser.error(f"config line {raw!r} names a config file; config files do not nest")
        argv.append(f"--{key}={value.strip()}")
    return argv


# ---------------------------------------------------------------------------
# verify


def _check_geometry_oracle() -> str:
    lags = np.linspace(0.0, 1.1, 12)
    worst = 0.0
    for j in range(5):
        for h in lags:
            closed = geometry.level_covariance(j, float(h))
            quad = float(geometry.overlap_quadrature(j, float(h), 2000))
            worst = max(worst, abs(closed - quad))
    if worst > 1e-3:
        raise AssertionError(f"closed form vs quadrature deviation {worst:.2e} > 1e-3")
    return f"max |closed - quadrature| = {worst:.2e}"


def _check_telescoping() -> str:
    lags = np.linspace(0.0, 1.2, 301)
    worst = 0.0
    for m in range(11):
        total = sum(geometry.level_covariance(j, lags) for j in range(m + 1))
        worst = max(worst, float(np.max(np.abs(total - geometry.cumulative_covariance(m, lags)))))
    if worst > 1e-12:
        raise AssertionError(f"level sums deviate from cumulative covariance by {worst:.2e}")
    return f"max telescoping defect = {worst:.2e}"


def _check_branch_continuity() -> str:
    worst = 0.0
    for j in range(1, 11):
        for h in (2.0**-j, 2.0 ** (-(j - 1))):
            below = geometry.level_covariance(j, h * (1 - 1e-13))
            above = geometry.level_covariance(j, h * (1 + 1e-13))
            worst = max(worst, abs(below - above))
    if worst > 1e-12:
        raise AssertionError(f"branch mismatch {worst:.2e}")
    return f"max branch jump = {worst:.2e}"


def _check_embedding() -> str:
    worst = 0.0
    grid = GridSpec(64)
    for j in range(6):
        period = embedding_period(j, grid)
        if period < grid.size * (1 + geometry.level_support(j)) - 1:
            raise AssertionError(f"level {j}: period {period} folds its support onto the grid")
        seq = covariance_sequence(j, grid, period)
        implied = np.fft.irfft(embedding_spectrum(seq), n=period)
        worst = max(worst, float(np.max(np.abs(implied - seq))))
    if worst > 1e-10:
        raise AssertionError(f"embedding covariance defect {worst:.2e}")
    return f"max implied-covariance defect = {worst:.2e} at the sampler's periods"


def _check_product_identity(seed: int) -> str:
    gen = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        size = int(gen.integers(1, 9))
        a = gen.standard_normal(size) + 1j * gen.standard_normal(size)
        b = gen.standard_normal(size) + 1j * gen.standard_normal(size)
        direct = np.prod(a) - np.prod(b)
        worst = max(worst, abs(spectral.product_difference_expansion(a, b) - direct))
    if worst > 1e-12:
        raise AssertionError(f"product expansion defect {worst:.2e}")
    return f"max expansion defect = {worst:.2e}"


def _check_abel(seed: int) -> str:
    gen = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        level = int(gen.integers(0, 7))
        k = int(gen.integers(0, 4))
        family = spectral.dyadic_family(k)
        interval = family[int(gen.integers(0, len(family)))]
        values = gen.standard_normal(2**level + 1) + 1j * gen.standard_normal(2**level + 1)
        n = int(gen.integers(1, 512))
        direct, abel = spectral.abel_segment_transform(values, interval, n)
        worst = max(worst, abs(direct - abel))
    if worst > 1e-12:
        raise AssertionError(f"Abel regrouping defect {worst:.2e}")
    return f"max regrouping defect = {worst:.2e}"


def _check_moments(seed: int) -> str:
    worst_z = 0.0
    for j in (0, 1):
        for p in (1.5, 2.0):
            mean, stderr = measure.weight_moment_mc(0.7, j, p, 10**5, seed=seed + j)
            z = abs(mean - measure.weight_moment(0.7, j, p)) / stderr
            worst_z = max(worst_z, z)
    if worst_z > 3.0:
        raise AssertionError(f"weight moment off by {worst_z:.2f} standard errors")
    return f"worst moment deviation = {worst_z:.2f} s.e."


def _check_decomposition(seed: int) -> str:
    gamma, tau, n_max = 0.6, 0.4, 64
    weights = spectral.decay_weights(n_max, tau)
    worst = 0.0
    for k, variance, field, density in measure.densities(gamma, block_fields(range(7), GridSpec(1024), seed)):
        weighted = weights * spectral.fourier_coefficients(density, n_max)
        if k:
            profile = spectral.centered_profile(prev, gamma, field, variance)
            total = np.zeros(n_max, dtype=complex)
            for interval in spectral.dyadic_family(k - 1):
                total += spectral.localized_vector(profile, interval, tau, n_max)
            worst = max(worst, float(np.max(np.abs(total - (weighted - low)))))
        prev, low = density.copy(), weighted
    if worst > 1e-10:
        raise AssertionError(f"increment decomposition defect {worst:.2e}")
    return f"max increment defect = {worst:.2e}"


def _check_exponents() -> str:
    worst = 0.0
    p_grid = np.arange(1.0 + 1e-5, 2.0 + 1e-12, 1e-5)
    for gamma in np.linspace(0.05, 1.35, 10):
        values = 2.0 + gamma**2 - gamma**2 * p_grid - 2.0 / p_grid
        worst = max(worst, abs(float(values.max()) - estimators.fourier_dimension(gamma)))
    if worst > 1e-8:
        raise AssertionError(f"dimension vs grid search defect {worst:.2e}")
    return f"max sup-search defect = {worst:.2e}"


def cmd_verify(args: argparse.Namespace) -> int:
    checks = [
        ("geometry_oracle_agreement", _check_geometry_oracle),
        ("geometry_telescoping", _check_telescoping),
        ("geometry_branch_continuity", _check_branch_continuity),
        ("embedding_exactness", _check_embedding),
        ("product_difference_identity", lambda: _check_product_identity(args.seed)),
        ("abel_regrouping_identity", lambda: _check_abel(args.seed)),
        ("weight_moments", lambda: _check_moments(args.seed)),
        ("increment_decomposition", lambda: _check_decomposition(args.seed)),
        ("exponent_formulas", _check_exponents),
    ]
    failures = 0
    for name, check in checks:
        try:
            detail = check()
            print(f"PASS {name}: {detail}")
        except Exception as exc:  # report and keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# simulate / spectrum / dims / clt / report


def cmd_simulate(args: argparse.Namespace) -> int:
    # Rejects gamma, --grid and --m here and --seed in block_fields, before any sampling.
    measure.validate_gamma(args.gamma)
    grid = GridSpec(args.grid)
    if grid.size < spectral.NYQUIST_FRACTION:
        raise ValueError(f"grid size must be at least {spectral.NYQUIST_FRACTION}, got {grid.size}")
    fields = block_fields(range(geometry._integer(args.m, "depth", 0) + 1), grid, args.seed)
    for _, _, _, density in measure.densities(args.gamma, fields):
        pass  # levels 0..m one at a time; the last density is depth m's
    spectrum = spectral.fourier_coefficients(density, grid.size // spectral.NYQUIST_FRACTION)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # simulate's two tables end their lines with \r\n, part of their file format (README).
    harness.write_csv(out / "density.csv", "i,t,value", zip(range(grid.size), grid.times(), density), "\r\n")
    # abs2 squares the scalar modulus; weighted_abs is |mu_hat(n)| (the weight n^0 = 1 of tau 0)
    # from numpy's vectorised modulus, which may differ from the scalar one in the last bit.
    abs2 = [abs(c) ** 2 for c in spectrum]
    rows = zip(range(1, spectrum.size + 1), spectrum.real, spectrum.imag, abs2, np.abs(spectrum))
    harness.write_csv(out / "spectrum.csv", "n,re,im,abs2,weighted_abs", rows, "\r\n")
    print(f"wrote {out / 'density.csv'} and {out / 'spectrum.csv'}")
    return 0


def _build_config(args: argparse.Namespace, **overrides) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        gamma=args.gamma,
        depth=args.m,
        grid_size=args.grid,
        n_max=args.nmax,
        tau=args.tau,
        replicas=args.reps,
        seed=args.seed,
        statistic=args.stat,
        **overrides,
    )


def cmd_spectrum(args: argparse.Namespace) -> int:
    result = harness.run_ensemble(_build_config(args), workers=args.workers)
    if args.format == "json":
        harness.export_result(result, "json", args.out)
    else:  # per frequency (n, re, im, abs2[, quantile_50]), quantile_50 repeated on its block's rows
        mean = result.coeff_sum / result.count
        header, columns = "n,re,im,abs2", [mean.real, mean.imag, result.abs2_sum / result.count]
        if result.config.statistic == "median":
            medians = [math.exp(stat) for stat in harness.block_stats(result)]
            sizes = [len(n) for n in spectral.block_frequencies(result.config.n_max)]
            header, columns = header + ",quantile_50", columns + [np.repeat(medians, sizes)]
        harness.write_csv(args.out, header, zip(range(1, result.config.n_max + 1), *columns))
    print(f"wrote {args.out}")
    return 0


def cmd_dims(args: argparse.Namespace) -> int:
    level_hi = args.level_hi if args.level_hi is not None else min(8, GridSpec(args.grid).log2_size)
    levels = tuple(range(args.level_lo, level_hi + 1))
    config = _build_config(args, mass_levels=levels)
    fit_hi = args.nmax if args.fit_hi is None else args.fit_hi
    # Rejects the fit window and the level range before any sampling.
    spectral.dyadic_blocks(args.fit_lo, fit_hi, args.nmax)
    estimators.validate_l2_levels(levels)
    result = harness.run_ensemble(config, workers=args.workers)
    decay = harness.decay_fit_from_result(result, args.fit_lo, fit_hi)
    l2 = harness.l2_fit_from_result(result)
    payload = {
        "version": harness.VERSION,
        "config": asdict(config),
        "fourier_dimension": estimators.fourier_dimension(args.gamma),
        "correlation_dimension": estimators.correlation_dimension(args.gamma),
        "decay": asdict(decay),
        "l2": asdict(l2),
    }
    print(json.dumps(payload, indent=2))
    return 0


def cmd_clt(args: argparse.Namespace) -> int:
    # Rejects gamma, --reps and the block range before any sampling.
    estimators.validate_rescaling(args.gamma, args.reps, args.nmax, args.block_lo, args.block_hi)
    result = harness.run_ensemble(_build_config(args), workers=args.workers)
    profile = harness.clt_profile_from_result(result, args.block_lo, args.block_hi)
    harness.write_csv(args.out, "block_lo,block_hi,variance", profile)
    print(f"wrote {args.out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    result = harness.load_result(args.infile)
    decay = harness.decay_fit_from_result(result, args.fit_lo, args.fit_hi)
    l2 = harness.l2_fit_from_result(result) if result.config.mass_levels else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.export_result(result, "csv", out / "blocks.csv")
    slopes = [(int(lo), int(hi), stat) for lo, hi, _, stat in decay.blocks]
    harness.write_csv(out / "slopes.csv", "block_lo,block_hi,stat", slopes)
    summary = {
        "version": harness.VERSION,
        "config": asdict(result.config),
        "count": result.count,
        "fourier_dimension": estimators.fourier_dimension(result.config.gamma),
        "decay": asdict(decay),
        "unit_mass_z": harness.unit_mass_z(result),
    }
    if result.config.norm_depths:
        means = (result.norm_sum / result.count).tolist()
        summary["uniform_bound"] = dict(zip(map(str, result.config.norm_depths), means))
    if l2 is not None:
        summary["l2"] = asdict(l2)
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out / 'blocks.csv'}, {out / 'slopes.csv'} and {out / 'summary.json'}")
    return 0


# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file; flags override")
    parser.add_argument("--gamma", type=float, required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--grid", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gmchaos", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the exact/closed-form suites")
    p.add_argument("--seed", type=int, default=20240)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="one replica; dump density and spectrum CSV")
    _add_common(p)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_simulate)

    def ensemble_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        q = sub.add_parser(name, help=help_text)
        _add_common(q)
        q.add_argument("--workers", type=int, default=None, help="threads running replicas")
        q.add_argument("--nmax", type=int, required=True)
        q.add_argument("--reps", type=int, required=True)
        q.add_argument("--stat", choices=("mean", "median"), default="median")
        q.add_argument("--tau", type=float, default=0.0)
        return q

    p = ensemble_parser("spectrum", "ensemble spectral statistics")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_spectrum)

    p = ensemble_parser("dims", "slope estimates and closed-form exponents as JSON")
    p.add_argument("--fit-lo", dest="fit_lo", type=int, default=8)
    p.add_argument("--fit-hi", dest="fit_hi", type=int, default=None)
    p.add_argument("--level-lo", dest="level_lo", type=int, default=2)
    p.add_argument("--level-hi", dest="level_hi", type=int, default=None)
    p.set_defaults(func=cmd_dims)

    p = ensemble_parser("clt", "rescaled-coefficient variance profile CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--block-lo", dest="block_lo", type=int, default=6)
    p.add_argument("--block-hi", dest="block_hi", type=int, default=10)
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("report", help="re-derive fits from an archived ensemble JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fit-lo", dest="fit_lo", type=int, default=None)
    p.add_argument("--fit-hi", dest="fit_hi", type=int, default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(prog="gmchaos", add_help=False)
    pre.add_argument("--config")
    found, _ = pre.parse_known_args(argv)
    if found.config:
        # File flags go right after the subcommand, so explicit flags win.
        argv[1:1] = _config_argv(pre, found.config)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a refused input is a usage error
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
