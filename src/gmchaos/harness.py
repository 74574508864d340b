"""Deterministic Monte Carlo orchestration, aggregation and persistence.

A replica is a pure function of (config, replica id); it samples one field
block per depth it reads, not one field per level.  An ensemble is the
reduction of its replicas through a fixed pairwise summation tree, so the
result is byte-identical no matter how the replicas were scheduled.  With
several workers the replicas run on threads of the calling process: numpy's
FFTs, normal draws and exp release the interpreter lock, and all threads
share the sampler's cache of block filters.
Aggregates are mergeable: counts and histograms merge exactly, floating
accumulators merge associatively to rounding.

Block medians come from one sparse histogram of log|mu_hat|^2 per dyadic
frequency block.  Its integer counts merge by addition, so the histogram
does not depend on merge order, and a median read from it lies within half
a bin of the exact pooled median of the same replicas.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import estimators, measure, spectral
from .sampler import GridSpec, sample_blocks

VERSION = "gmchaos 0.3.0"

# Bins per unit of log|mu_hat|^2: medians land within 1/512, far inside slope errors (~0.03).
BINS_PER_UNIT = 256


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; validated on construction.

    Frequencies are capped at an eighth of the grid and the construction
    depth must exceed log2(n_max) by two, so all reported statistics sit in
    the frequency range the discretization resolves.
    """

    gamma: float
    depth: int
    grid_size: int
    n_max: int
    tau: float = 0.0
    replicas: int = 1
    seed: int = 0
    statistic: str = "median"
    norm_depths: tuple[int, ...] = ()
    mass_levels: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("depth", "grid_size", "n_max", "replicas", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("gamma", "tau"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        measure.validate_gamma(self.gamma)
        grid = GridSpec(self.grid_size)  # validates power of two
        spectral._check_n_max(self.n_max, grid)
        if self.depth < math.log2(self.n_max) + 2:
            raise ValueError(
                f"depth {self.depth} too shallow for n_max {self.n_max}; "
                f"need depth >= log2(n_max) + 2"
            )
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        spectral._check_tau(self.tau)
        if self.statistic not in ("mean", "median"):
            raise ValueError(f"statistic must be mean or median, got {self.statistic!r}")
        for name in ("norm_depths", "mass_levels"):
            entries = getattr(self, name)
            if not np.iterable(entries):
                raise ValueError(f"{name} must be a sequence of integers, got {entries!r}")
            values = tuple(_integer(v, f"{name} entry") for v in entries)
            if len(set(values)) < len(values):
                raise ValueError(f"{name.replace('_', ' ')} must not repeat, got {values}")
            object.__setattr__(self, name, values)
        if any(not 0 <= d <= self.depth for d in self.norm_depths):
            raise ValueError("norm depths must lie within the construction depth")
        if any(not 0 <= v <= grid.log2_size for v in self.mass_levels):
            raise ValueError("mass levels must be resolvable on the grid")
        self.exponents()  # norm depths need a feasible (p, q) plan

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.grid_size)

    def exponents(self) -> estimators.ExponentPlan | None:
        if not self.norm_depths or self.gamma == 0.0:
            return None
        return estimators.find_exponents(self.gamma, self.tau)

    def blocks(self) -> list[tuple[int, int]]:
        """First and last frequency of each dyadic block meeting 1..n_max, by exponent."""
        return [(n.start, n[-1]) for n in spectral.block_frequencies(self.n_max)]


def _integer(value, name: str) -> int:
    """A Python or numpy integer as int; a bool, float or string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ReplicaRecord:
    """Raw per-replica statistics before aggregation."""

    replica: int
    coefficients: np.ndarray
    total_mass: float
    level_mass_sq: np.ndarray
    norm_powers: np.ndarray


@dataclass(frozen=True, eq=False)
class LogHistogram:
    """Sparse counts of log|mu_hat|^2 in bins of width 1/BINS_PER_UNIT.

    `bins` holds the occupied bin ids floor(BINS_PER_UNIT * value) in
    increasing order, `counts` their counts, both int32: an ensemble's
    aggregates are held in memory for its whole run.

    `+` concatenates the two sorted bin lists, orders them with a stable
    argsort (linear on two sorted runs) and sums each run of equal bins.
    Integer counts do not depend on the order they are added in, so the
    merge is exact, commutative and associative.
    """

    bins: np.ndarray
    counts: np.ndarray

    @staticmethod
    def of(log_values: np.ndarray) -> "LogHistogram":
        ids = np.floor(BINS_PER_UNIT * log_values).astype(np.int32)
        ids.sort()
        return LogHistogram._summed(ids, np.ones(ids.size, dtype=np.int64))

    def __add__(self, other: "LogHistogram") -> "LogHistogram":
        ids = np.concatenate([self.bins, other.bins])
        order = np.argsort(ids, kind="stable")
        return LogHistogram._summed(ids[order], np.concatenate([self.counts, other.counts])[order])

    @staticmethod
    def _summed(ids: np.ndarray, counts: np.ndarray) -> "LogHistogram":
        """Sorted bin ids and their counts as a histogram, one bin per run of equal ids."""
        first = np.empty(ids.size, dtype=bool)  # where a run of equal ids starts
        first[:1] = True
        np.not_equal(ids[1:], ids[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        summed = np.add.reduceat(counts.astype(np.int64, copy=False), starts)
        if summed.max(initial=0) > np.iinfo(np.int32).max:
            raise OverflowError("merged histogram count does not fit int32")
        return LogHistogram(ids[starts], summed.astype(np.int32))

    def median(self) -> float:
        """Midpoint of the bin holding the middle order statistic; for an
        even count, the mean of the two middle ones' midpoints."""
        ends = np.cumsum(self.counts)
        middle = np.searchsorted(ends, [(ends[-1] - 1) // 2, ends[-1] // 2], side="right")
        return (float(self.bins[middle].mean()) + 0.5) / BINS_PER_UNIT


@dataclass(frozen=True)
class EnsembleResult:
    """Mergeable aggregate of replica statistics for one configuration.

    Every field after `config` is an accumulator that merges by addition;
    `_accumulators` gives their empty values and FIELDS their names, which
    empty_result, merge_results, equals, export_result and load_result walk.
    """

    config: ExperimentConfig
    count: int
    coeff_sum: np.ndarray
    abs2_sum: np.ndarray
    log_abs2_sum: np.ndarray
    mass_sum: float
    mass_sq_sum: float
    level_sq_sum: np.ndarray
    norm_sum: np.ndarray
    histograms: tuple[LogHistogram, ...]  # one per dyadic block, by exponent

    def equals(self, other: "EnsembleResult") -> bool:
        """Same configuration and same archived accumulator values."""
        return self.config == other.config and all(
            _encode(getattr(self, name)) == _encode(getattr(other, name)) for name in FIELDS
        )


FIELDS = tuple(f.name for f in fields(EnsembleResult) if f.name != "config")


def _accumulators(config: ExperimentConfig) -> dict:
    return {
        "count": 0,
        "coeff_sum": np.zeros(config.n_max, dtype=complex),
        "abs2_sum": np.zeros(config.n_max),
        "log_abs2_sum": np.zeros(config.n_max),
        "mass_sum": 0.0,
        "mass_sq_sum": 0.0,
        "level_sq_sum": np.zeros(len(config.mass_levels)),
        "norm_sum": np.zeros(len(config.norm_depths)),
        "histograms": tuple(LogHistogram.of(np.empty(0)) for _ in config.blocks()),
    }


def _add(a, b):
    if isinstance(a, tuple):
        return tuple(x + y for x, y in zip(a, b))
    return a + b


def empty_result(config: ExperimentConfig) -> EnsembleResult:
    return EnsembleResult(config=config, **_accumulators(config))


def run_replica(config: ExperimentConfig, replica_id: int) -> ReplicaRecord:
    """One replica: field blocks, density, spectrum and derived statistics.

    Only the depths the replica reads are sampled: one field per block of
    levels ending at a norm depth or at the construction depth.
    Deterministic in (config.seed, replica_id); every stochastic stream is
    keyed by that pair.
    """
    depths = sorted({*config.norm_depths, config.depth})
    hierarchy = sample_blocks(depths, config.grid, config.seed, replica_id)
    density = measure.chaos_density(hierarchy, config.gamma)
    plan = config.exponents()
    norms = np.zeros(len(config.norm_depths))
    if plan is not None:
        for i, depth in enumerate(config.norm_depths):
            part = measure.chaos_density(hierarchy, config.gamma, depth=depth)
            coefficients = spectral.fourier_coefficients(part, config.n_max)
            norms[i] = estimators.norm_powers(coefficients, config.tau, plan.p, plan.q)
    return ReplicaRecord(
        replica=int(replica_id),
        coefficients=spectral.fourier_coefficients(density, config.n_max),
        total_mass=float(density.mean()),
        level_mass_sq=measure.l2_sums(density, config.mass_levels),
        norm_powers=norms,
    )


def _singleton(config: ExperimentConfig, record: ReplicaRecord) -> EnsembleResult:
    abs2 = np.abs(record.coefficients) ** 2
    log_abs2 = np.log(np.maximum(abs2, estimators.LOG_FLOOR))
    return EnsembleResult(
        config=config,
        count=1,
        coeff_sum=record.coefficients.copy(),
        abs2_sum=abs2,
        log_abs2_sum=log_abs2,
        mass_sum=record.total_mass,
        mass_sq_sum=record.total_mass**2,
        level_sq_sum=record.level_mass_sq.copy(),
        norm_sum=record.norm_powers.copy(),
        histograms=tuple(LogHistogram.of(log_abs2[c]) for c in spectral.block_columns(config.n_max)),
    )


def merge_results(a: EnsembleResult, b: EnsembleResult) -> EnsembleResult:
    """Every accumulator added: counts and histogram counts exactly, sums to
    rounding."""
    if a.config != b.config:
        raise ValueError("cannot merge results with different configurations")
    return EnsembleResult(
        config=a.config, **{name: _add(getattr(a, name), getattr(b, name)) for name in FIELDS}
    )


def _tree_reduce(items: list[EnsembleResult], config: ExperimentConfig) -> EnsembleResult:
    # Fixed pairwise tree keyed by position: the reduction order never
    # depends on scheduling, so floating sums are bit-stable.
    if not items:
        return empty_result(config)
    while len(items) > 1:
        items = [
            merge_results(items[i], items[i + 1]) if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


def run_ensemble(
    config: ExperimentConfig,
    replica_range: tuple[int, int] | None = None,
    workers: int | None = None,
) -> EnsembleResult:
    """Reduce run_replica over a replica id range (default 0..replicas),
    serially or on `workers` threads.

    The reduction follows a fixed pairwise tree over the id order, so any
    number of workers produces identical bytes.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    lo, hi = replica_range if replica_range is not None else (0, config.replicas)
    if not 0 <= lo <= hi:
        raise ValueError(f"replica_range must have 0 <= lo <= hi, got ({lo}, {hi})")
    ids = range(lo, hi)
    if workers is None or workers == 1:
        records = [run_replica(config, i) for i in ids]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_replica, [config] * len(ids), ids))
    return _tree_reduce([_singleton(config, rec) for rec in records], config)


# ---------------------------------------------------------------------------
# Derived fits


def block_table(result: EnsembleResult) -> list[tuple[int, int, float]]:
    """Per-block decay statistic (block_lo, block_hi, stat of log |mu_hat|^2):
    the mean from the log sums, or the median from the block's histogram."""
    if result.count == 0:
        raise ValueError("empty ensemble has no statistics")
    rows = []
    blocks = zip(result.config.blocks(), spectral.block_columns(result.config.n_max), result.histograms)
    for (lo, hi), columns, histogram in blocks:
        if result.config.statistic == "mean":
            stat = float(np.mean(result.log_abs2_sum[columns] / result.count))
        else:
            stat = histogram.median()
        rows.append((lo, hi, stat))
    return rows


def decay_fit_from_result(
    result: EnsembleResult, n_lo: int | None = None, n_hi: int | None = None
) -> estimators.SlopeFit:
    """Decay-slope fit re-derived from the aggregate accumulators."""
    config = result.config
    stats = [stat for _, _, stat in block_table(result)]
    n_lo, n_hi = 8 if n_lo is None else n_lo, config.n_max if n_hi is None else n_hi
    return estimators.dyadic_block_fit(lambda a: stats[a], n_lo, n_hi, config.n_max, config.statistic)


def l2_fit_from_result(result: EnsembleResult) -> estimators.SlopeFit:
    sums = result.level_sq_sum / result.count
    return estimators.l2_spectrum_slope(sums[None, :], result.config.mass_levels)


def unit_mass_z(result: EnsembleResult) -> float | None:
    """Deviation of the mean total mass from one in standard errors, from
    mass_sum and mass_sq_sum; None below two replicas or at zero spread."""
    n = result.count
    if n < 2:
        return None
    mean = result.mass_sum / n
    var = (result.mass_sq_sum / n - mean**2) * n / (n - 1)
    return (mean - 1.0) / math.sqrt(var / n) if var > 0.0 else None


def clt_profile_from_result(
    result: EnsembleResult, block_lo_exp: int, block_hi_exp: int
) -> list[tuple[int, int, float]]:
    """Rescaled-coefficient variance profile from the aggregates, with the
    population variance E|z|^2 - |E z|^2 per frequency."""
    var = result.abs2_sum / result.count - np.abs(result.coeff_sum / result.count) ** 2
    return estimators.rescaled_variance_profile(
        var, result.count, result.config.gamma, block_lo_exp, block_hi_exp
    )


# ---------------------------------------------------------------------------
# Persistence


def config_to_dict(config: ExperimentConfig) -> dict:
    return asdict(config)


def _check_keys(data: dict, expected, what: str) -> None:
    missing = sorted(set(expected) - set(data))
    unknown = sorted(set(data) - set(expected))
    if missing or unknown:
        raise ValueError(f"{what}: missing keys {missing}, unknown keys {unknown}")


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {data!r}")
    _check_keys(data, [f.name for f in fields(ExperimentConfig)], "config")
    return ExperimentConfig(**data)


def _encode(value):
    # Arrays as float lists, complex ones as interleaved (re, im) pairs.
    if isinstance(value, tuple):
        return [{"bins": h.bins.tolist(), "counts": h.counts.tolist()} for h in value]
    return value.view(float).tolist() if isinstance(value, np.ndarray) else value


def _numbers(values: list, kinds: set, what: str) -> list:
    """A JSON list whose entries all have a type in `kinds`; a string or a
    boolean is refused, not converted."""
    strangers = [v for v in values if type(v) not in kinds]
    if strangers:
        raise ValueError(f"entry {strangers[0]!r} is not a JSON {what}")
    return values


def _int32(values, low: int) -> np.ndarray:
    """JSON integers as int32, read through int64 and refused outside
    low..int32 max, so a count never wraps whatever the numpy version."""
    wide = np.array(_numbers(values, {int}, "integer"), dtype=np.int64)
    if wide.size and (wide.min() < low or wide.max() > np.iinfo(np.int32).max):
        raise ValueError(f"integer outside {low}..{np.iinfo(np.int32).max}")
    return wide.astype(np.int32)


def _decode(data, empty):
    """An accumulator from its JSON value, shaped like its empty value."""
    if isinstance(empty, tuple):
        low = np.iinfo(np.int32).min
        value = tuple(LogHistogram(_int32(h["bins"], low), _int32(h["counts"], 0)) for h in data)
    elif isinstance(empty, np.ndarray):
        value = np.array(_numbers(data, {int, float}, "number"), dtype=float).view(empty.dtype)
    elif type(data) not in ({int} if type(empty) is int else {int, float}) or data < 0:
        raise ValueError(f"{data!r} is not a non-negative {type(empty).__name__}")
    else:
        return type(empty)(data)
    if len(value) != len(empty):
        raise ValueError(f"{len(value)} entries where the config needs {len(empty)}")
    return value


def export_result(result: EnsembleResult, fmt: str, path) -> None:
    """JSON is the archival format (loadable); CSV is the block-stat table."""
    if fmt == "json":
        payload = {"version": VERSION, "config": config_to_dict(result.config)}
        payload.update((name, _encode(getattr(result, name))) for name in FIELDS)
        encode = json.JSONEncoder(allow_nan=False).encode  # NaN and infinity are not JSON
        # Field by field, as json.dumps writes them: no chunk list spans the whole archive.
        pieces = [f"{encode(key)}: {encode(value)}" for key, value in payload.items()]
        with open(path, "w") as fh:
            fh.write("{" + ", ".join(pieces) + "}\n")
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            fh.write("block_lo,block_hi,stat\n")
            for lo, hi, stat in block_table(result):
                fh.write(f"{lo},{hi},{stat!r}\n")
    else:
        raise ValueError(f"format must be csv or json, got {fmt!r}")


def _refuse_constant(token: str):
    raise ValueError(f"archive holds the non-finite number {token}")


def load_result(path) -> EnsembleResult:
    """Read an archive written by export_result.  Another version, a missing
    or unknown key, a malformed field or a NaN or infinity is a ValueError
    that names it."""
    with open(path) as fh:
        payload = json.load(fh, parse_constant=_refuse_constant)
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != VERSION:
        raise ValueError(f"archive version {version!r} is not this library's {VERSION!r}")
    _check_keys(payload, ("version", "config", *FIELDS), "archive")
    try:
        config = config_from_dict(payload["config"])
    except ValueError as exc:
        raise ValueError(f"archive field 'config' is malformed: {exc}") from exc
    values = {}
    for name, empty in _accumulators(config).items():
        try:
            values[name] = _decode(payload[name], empty)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"archive field {name!r} is malformed: {exc!r}") from exc
    for a, (n, h) in enumerate(zip(spectral.block_frequencies(config.n_max), values["histograms"])):
        increasing = h.bins.size == h.counts.size and np.all(np.diff(h.bins) > 0)
        if not increasing or h.counts.sum() != values["count"] * len(n):
            why = f"block {a} is not {values['count']} x {len(n)} values in strictly increasing bins"
            raise ValueError(f"archive field 'histograms' is malformed: {why}")
    return EnsembleResult(config=config, **values)
