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


def oracle_defect(levels: int, lags: int) -> float:
    """max |closed form - quadrature| of levels 0..levels - 1 at `lags` lags in [0, 1.1]."""
    worst = 0.0
    for j in range(levels):
        for h in np.linspace(0.0, 1.1, lags):
            closed = geometry.level_covariance(j, float(h))
            quad = geometry.overlap_quadrature(j, float(h), 2000)
            worst = np.maximum(worst, abs(closed - quad))
    return worst


def telescoping_defect(depths: int, lags: int) -> float:
    """max |sum of level covariances - cumulative| over depths 0..depths - 1, `lags` lags in [0, 1.2]."""
    grid = np.linspace(0.0, 1.2, lags)
    worst = 0.0
    for m in range(depths):
        total = sum(geometry.level_covariance(j, grid) for j in range(m + 1))
        worst = np.maximum(worst, float(np.max(np.abs(total - geometry.cumulative_covariance(m, grid)))))
    return worst


def branch_defect() -> float:
    """max |level j's covariance just below - just above| its branch points 2^-j and 2^-(j-1), j = 1..10."""
    worst = 0.0
    for j in range(1, 11):
        for h in (2.0**-j, 2.0 ** (-(j - 1))):
            below = geometry.level_covariance(j, h * (1 - 1e-13))
            above = geometry.level_covariance(j, h * (1 + 1e-13))
            worst = np.maximum(worst, abs(below - above))
    return worst


def embedding_defect() -> float:
    """max |implied - sequence covariance| of levels 0..5 at the sampler's periods (never folding) on grid 64."""
    worst = 0.0
    grid = GridSpec(64)
    for j in range(6):
        period = embedding_period(j, grid)
        seq = covariance_sequence(j, grid, period)
        implied = np.fft.irfft(embedding_spectrum(seq), n=period)
        worst = np.maximum(worst, float(np.max(np.abs(implied - seq))))
    return worst


def product_defect(gen: np.random.Generator, size_bound: int) -> float:
    """max |expansion - (prod(a) - prod(b))| over 100 drawn pairs of 1..size_bound - 1 factors."""
    worst = 0.0
    for _ in range(100):
        size = int(gen.integers(1, size_bound))
        a = gen.standard_normal(size) + 1j * gen.standard_normal(size)
        b = gen.standard_normal(size) + 1j * gen.standard_normal(size)
        direct = np.prod(a) - np.prod(b)
        worst = np.maximum(worst, abs(spectral.product_difference_expansion(a, b) - direct))
    return worst


def abel_defect(gen: np.random.Generator, n_bound: int) -> float:
    """max |direct - Abel-regrouped transform| over 100 drawn segments and n in 1..n_bound - 1."""
    worst = 0.0
    for _ in range(100):
        level = int(gen.integers(0, 7))
        k = int(gen.integers(0, 4))
        family = spectral.dyadic_family(k)
        interval = family[int(gen.integers(0, len(family)))]
        values = gen.standard_normal(2**level + 1) + 1j * gen.standard_normal(2**level + 1)
        n = int(gen.integers(1, n_bound))
        direct, abel = spectral.abel_segment_transform(values, interval, n)
        worst = np.maximum(worst, abs(direct - abel))
    return worst


def moment_deviation(cells: list[tuple[float, int, float, int]]) -> float:
    """Worst |Monte Carlo - exact weight moment| in s.e. over (gamma, level, order, seed) cells."""
    worst_z = 0.0
    for gamma, j, p, seed in cells:
        mean, stderr = measure.weight_moment_mc(gamma, j, p, 10**5, seed=seed)
        z = abs(mean - measure.weight_moment(gamma, j, p)) / stderr
        worst_z = np.maximum(worst_z, z)
    return worst_z


def increment_defect(gamma: float, n_max: int, depth: int, seed: int, replicas: int) -> float:
    """max |level k's localised vectors, summed left to right, - the weighted coefficient
    increment from depth k - 1 to k| over k = 1..depth, replicas 0..replicas - 1, grid 1024, tau 0.4."""
    tau = 0.4
    weights = spectral.decay_weights(n_max, tau)
    worst = 0.0
    for replica in range(replicas):
        fields = block_fields(range(depth + 1), GridSpec(1024), seed, replica)
        for k, variance, field, density in measure.densities(gamma, fields):
            weighted = weights * spectral.fourier_coefficients(density, n_max)
            if k:
                profile = spectral.centered_profile(prev, gamma, field, variance)
                total = np.zeros(n_max, dtype=complex)
                for interval in spectral.dyadic_family(k - 1):
                    total += spectral.localized_vector(profile, interval, tau, n_max)
                worst = np.maximum(worst, float(np.max(np.abs(total - (weighted - low)))))
            prev, low = density.copy(), weighted
    return worst


def exponent_defect(gammas: np.ndarray) -> float:
    """max |sup over a p grid in (1, 2] of 2 + gamma^2 (1 - p) - 2/p - Fourier dimension|."""
    worst = 0.0
    p_grid = np.arange(1.0 + 1e-5, 2.0 + 1e-12, 1e-5)
    for gamma in gammas:
        values = 2.0 + gamma**2 - gamma**2 * p_grid - 2.0 / p_grid
        worst = np.maximum(worst, abs(float(values.max()) - estimators.fourier_dimension(gamma)))
    return worst


def _within(defect: float, tolerance: float, detail: str) -> str:
    """The detail, formatted with the defect, once the defect is within the tolerance."""
    detail = detail.format(defect)
    if not defect <= tolerance:  # a NaN defect fails
        raise AssertionError(f"{detail} exceeds {tolerance:g}")
    return detail


def cmd_verify(args: argparse.Namespace) -> int:
    seed = geometry._integer(args.seed, "seed", 0)
    moment_cells = [(0.7, j, p, seed + j) for j in (0, 1) for p in (1.5, 2.0)]
    checks = [  # (name, defect, tolerance, detail)
        ("geometry_oracle_agreement", lambda: oracle_defect(5, 12), 1e-3, "max |closed - quadrature| = {:.2e}"),
        ("geometry_telescoping", lambda: telescoping_defect(11, 301), 1e-12, "max telescoping defect = {:.2e}"),
        ("geometry_branch_continuity", branch_defect, 1e-12, "max branch jump = {:.2e}"),
        ("embedding_exactness", embedding_defect, 1e-10,
         "max implied-covariance defect = {:.2e} at the sampler's periods"),
        ("product_difference_identity", lambda: product_defect(np.random.default_rng(seed), 9), 1e-12,
         "max expansion defect = {:.2e}"),
        ("abel_regrouping_identity", lambda: abel_defect(np.random.default_rng(seed), 512), 1e-12,
         "max regrouping defect = {:.2e}"),
        ("weight_moments", lambda: moment_deviation(moment_cells), 3.0, "worst moment deviation = {:.2f} s.e."),
        ("increment_decomposition", lambda: increment_defect(gamma=0.6, n_max=64, depth=6, seed=seed, replicas=1),
         1e-10, "max increment defect = {:.2e}"),
        ("exponent_formulas", lambda: exponent_defect(np.linspace(0.05, 1.35, 10)), 1e-8,
         "max sup-search defect = {:.2e}"),
    ]
    failures = 0
    for name, defect, tolerance, detail in checks:
        try:
            print(f"PASS {name}: {_within(defect(), tolerance, detail)}")
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # an unusable --out is refused before anything is drawn
    for _, _, _, density in measure.densities(args.gamma, fields):
        pass  # levels 0..m one at a time; the last density is depth m's
    spectrum = spectral.fourier_coefficients(density, grid.size // spectral.NYQUIST_FRACTION)
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


def _output_file(text: str) -> str:
    """An --out file: refused, naming it, unless its directory exists and it is not a directory itself."""
    if Path(text).is_dir() or not Path(text).parent.is_dir():
        raise argparse.ArgumentTypeError(f"not a file in an existing directory: {text!r}")
    return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file; flags override")
    parser.add_argument("--gamma", type=float, required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--grid", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # every usage error, a subcommand's too, reads `gmchaos: error: ...`
        self.print_usage(sys.stderr)
        self.exit(2, f"gmchaos: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gmchaos", description=__doc__)
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
        q.add_argument("--workers", type=int, default=1, help="threads running replicas")
        q.add_argument("--nmax", type=int, required=True)
        q.add_argument("--reps", type=int, required=True)
        q.add_argument("--stat", choices=("mean", "median"), default="median")
        q.add_argument("--tau", type=float, default=0.0)
        return q

    p = ensemble_parser("spectrum", "ensemble spectral statistics")
    p.add_argument("--out", type=_output_file, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_spectrum)

    p = ensemble_parser("dims", "slope estimates and closed-form exponents as JSON")
    p.add_argument("--fit-lo", dest="fit_lo", type=int, default=8)
    p.add_argument("--fit-hi", dest="fit_hi", type=int, default=None)
    p.add_argument("--level-lo", dest="level_lo", type=int, default=2)
    p.add_argument("--level-hi", dest="level_hi", type=int, default=None)
    p.set_defaults(func=cmd_dims)

    p = ensemble_parser("clt", "rescaled-coefficient variance profile CSV")
    p.add_argument("--out", type=_output_file, required=True)
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
    except (ValueError, OSError) as exc:  # a refused input or an unusable path (named) is a usage error
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
