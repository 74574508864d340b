"""Deterministic Monte Carlo orchestration, aggregation and persistence.

A replica is a pure function of (config, replica id); it samples one field
block per depth it reads, not one field per level, and streams the blocks
through measure.densities, so it never holds more than one block.  An
ensemble is the reduction of its replicas through a fixed pairwise
summation tree, so the result is byte-identical no matter how the replicas
were scheduled.  With several workers the replicas run on threads of the
calling process: numpy's FFTs, normal draws and exp release the interpreter
lock, and all threads share the sampler's cache of block filters.  Each
worker, the calling thread when serial, runs one contiguous run of replica
ids in one work array, passed to run_replica, in which it colours,
exponentiates and transforms every replica of the run.  The calling
thread then feeds the tree one replica's aggregate at a time, as a binary
counter holding at most log2(R) + 1 aggregates (the R records stay).
Aggregates are mergeable: counts and histograms merge exactly, floating
accumulators merge associatively to rounding.  ExperimentConfig checks its
fields with geometry's integer and number rules, as every library entry does.

An ensemble keeps only the accumulator its statistic reads: log|mu_hat|^2
summed per frequency (mean), or one sparse histogram of it per dyadic block
(median), whose integer counts merge in any order to the same histogram; a
median read from it lies within half a bin of the exact pooled median of the
same replicas.  block_stats gives each block's decay statistic, the list
every decay fit of an ensemble reads.

The module writes the JSON archive (export_result), and every CSV table the
CLI writes goes through its write_csv.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import estimators, geometry, measure, spectral
from .sampler import GridSpec, block_fields, scratch_size

VERSION = "gmchaos 0.6.0"

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
        for name, low in {"depth": None, "grid_size": None, "n_max": None, "replicas": 1, "seed": 0}.items():
            object.__setattr__(self, name, geometry._integer(getattr(self, name), name, low))
        measure.validate_gamma(self.gamma)
        grid = GridSpec(self.grid_size)  # validates power of two
        spectral._check_n_max(self.n_max, grid)
        if self.depth < math.log2(self.n_max) + 2:
            raise ValueError(
                f"depth {self.depth} too shallow for n_max {self.n_max}; "
                f"need depth >= log2(n_max) + 2"
            )
        spectral._check_tau(self.tau)
        estimators.validate_statistic(self.statistic)
        for name in ("norm_depths", "mass_levels"):
            entries = getattr(self, name)
            if not np.iterable(entries):
                raise ValueError(f"{name} must be a sequence of integers, got {entries!r}")
            values = tuple(geometry._integer(v, f"{name} entry") for v in entries)
            if len(set(values)) < len(values):
                raise ValueError(f"{name.replace('_', ' ')} must not repeat, got {values}")
            object.__setattr__(self, name, values)
        if any(not 0 <= d <= self.depth for d in self.norm_depths):
            raise ValueError("norm depths must lie within the construction depth")
        if any(not 0 <= v <= grid.log2_size for v in self.mass_levels):
            raise ValueError("mass levels must be resolvable on the grid")
        if self.mass_levels:  # none, or enough for the L2 fit
            estimators.validate_l2_levels(self.mass_levels)
        self.exponents()  # norm depths need a feasible (p, q) plan

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.grid_size)

    def exponents(self) -> estimators.ExponentPlan | None:
        if not self.norm_depths or self.gamma == 0.0:
            return None
        return estimators.find_exponents(self.gamma, self.tau)


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
    log_abs2_sum is None unless the statistic is mean, histograms unless it
    is median.  `_accumulators` gives the empty values and _NAMES the names.
    """

    config: ExperimentConfig
    count: int
    coeff_sum: np.ndarray
    abs2_sum: np.ndarray
    mass_sum: float
    mass_sq_sum: float
    level_sq_sum: np.ndarray
    norm_sum: np.ndarray
    log_abs2_sum: np.ndarray | None = None  # mean only
    histograms: tuple[LogHistogram, ...] | None = None  # median only: one per dyadic block, by exponent

    def equals(self, other: "EnsembleResult") -> bool:
        """Same configuration and same archived accumulator values."""
        return self.config == other.config and all(
            _same(getattr(self, name), getattr(other, name)) for name in _NAMES[self.config.statistic]
        )


def _same(a, b) -> bool:
    """Equal accumulator values: same shapes and entries that compare equal."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(
            np.array_equal(x.bins, y.bins) and np.array_equal(x.counts, y.counts) for x, y in zip(a, b)
        )
    return bool(np.array_equal(a, b))


def _accumulators(config: ExperimentConfig) -> dict:
    """Empty accumulators of config's ensembles, by name in archive order."""
    n = config.n_max
    shared = {
        "count": 0,
        "coeff_sum": np.zeros(n, dtype=complex),
        "abs2_sum": np.zeros(n),
        "mass_sum": 0.0,
        "mass_sq_sum": 0.0,
        "level_sq_sum": np.zeros(len(config.mass_levels)),
        "norm_sum": np.zeros(len(config.norm_depths)),
    }
    if config.statistic == "mean":
        return {**shared, "log_abs2_sum": np.zeros(n)}
    return {**shared, "histograms": tuple(LogHistogram.of(np.empty(0)) for _ in spectral.block_columns(n))}


# Each statistic's accumulator names, read once from the smallest config, so a merge builds no empty values.
_NAMES = {s: tuple(_accumulators(ExperimentConfig(0.0, 2, 8, 1, statistic=s))) for s in ("mean", "median")}


def _add(a, b):
    if isinstance(a, tuple):
        return tuple(x + y for x, y in zip(a, b))
    return a + b


def empty_result(config: ExperimentConfig) -> EnsembleResult:
    return EnsembleResult(config=config, **_accumulators(config))


def _work(grid: GridSpec) -> np.ndarray:
    """Work array for any replica on `grid`: the sampler's scratch, then the
    running exponent and the density, in one allocation.  Freed, that one
    block of 6G floats lifts glibc's dynamic mmap threshold above the FFTs'
    own scratch, which then stays on the heap: at grid 2^16 a replica in a
    later ensemble takes about 0 minor page faults, against about 600 with
    four arrays."""
    return np.empty(scratch_size(grid) + 2 * grid.size)


def run_replica(config: ExperimentConfig, replica_id: int, work: np.ndarray | None = None) -> ReplicaRecord:
    """One replica: field blocks, density, spectrum and derived statistics.

    Only the depths the replica reads are sampled: one field per block of
    levels ending at a norm depth or at the construction depth, streamed
    through measure.densities.  Every grid-sized array is a slice of
    `work`, a float64 array of 6G + 2 entries whose contents do not matter
    (None allocates one): the sampler's scratch, then the running exponent
    and the density.  Each density's real FFT is taken into the head of the
    scratch, spent by then.  Deterministic in (config.seed, replica_id);
    every stochastic stream is keyed by that pair.
    """
    g = config.grid_size
    work = _work(config.grid) if work is None else work
    if work.dtype != float or work.shape != (scratch_size(config.grid) + 2 * g,):
        raise ValueError(f"work must be a float64 array of 6G + 2 entries for grid size {g}")
    spectrum = work[: g + 2].view(complex)
    depths = sorted({*config.norm_depths, config.depth})
    fields = block_fields(depths, config.grid, config.seed, replica_id, work)
    plan = config.exponents()
    norms = np.zeros(len(config.norm_depths))
    for depth, _, _, density in measure.densities(config.gamma, fields, work[-2 * g :]):
        if plan is not None and depth in config.norm_depths:
            coefficients = spectral.fourier_coefficients(density, config.n_max, spectrum)
            norms[config.norm_depths.index(depth)] = estimators.norm_powers(
                coefficients, config.tau, plan.p, plan.q
            )
    return ReplicaRecord(
        replica=int(replica_id),
        coefficients=spectral.fourier_coefficients(density, config.n_max, spectrum),
        total_mass=float(density.mean()),
        level_mass_sq=measure.l2_sums(density, config.mass_levels),
        norm_powers=norms,
    )


def _run(config: ExperimentConfig, ids: range) -> list[ReplicaRecord]:
    """run_replica over `ids` in order, all in one work array."""
    work = _work(config.grid)
    return [run_replica(config, i, work) for i in ids]


def _singleton(config: ExperimentConfig, record: ReplicaRecord) -> EnsembleResult:
    abs2 = np.abs(record.coefficients) ** 2
    log_abs2 = np.log(np.maximum(abs2, estimators.LOG_FLOOR))
    own = {"log_abs2_sum": log_abs2} if config.statistic == "mean" else {
        "histograms": tuple(LogHistogram.of(log_abs2[c]) for c in spectral.block_columns(config.n_max))
    }
    return EnsembleResult(
        config=config,
        count=1,
        coeff_sum=record.coefficients.copy(),
        abs2_sum=abs2,
        mass_sum=record.total_mass,
        mass_sq_sum=record.total_mass**2,
        level_sq_sum=record.level_mass_sq.copy(),
        norm_sum=record.norm_powers.copy(),
        **own,
    )


def merge_results(a: EnsembleResult, b: EnsembleResult) -> EnsembleResult:
    """Every accumulator added: counts and histogram counts exactly, sums to
    rounding."""
    if a.config != b.config:
        raise ValueError("cannot merge results with different configurations")
    names = _NAMES[a.config.statistic]
    return EnsembleResult(config=a.config, **{name: _add(getattr(a, name), getattr(b, name)) for name in names})


def _tree_reduce(items, config: ExperimentConfig) -> EnsembleResult:
    """The fixed pairwise tree over the items' positions (odd tails carried
    up) as a binary counter: each item merges into the stack top (left +
    right) while their sizes match, and the stack folds right to left at the
    end.  The order never depends on scheduling, so sums are bit-stable."""
    stack = []  # (subtree size, aggregate), sizes strictly decreasing
    for item in items:
        size = 1
        while stack and stack[-1][0] == size:
            item, size = merge_results(stack.pop()[1], item), 2 * size
        stack.append((size, item))
    result = stack.pop()[1] if stack else empty_result(config)
    while stack:
        result = merge_results(stack.pop()[1], result)
    return result


def run_ensemble(
    config: ExperimentConfig,
    replica_range: tuple[int, int] | None = None,
    workers: int | None = None,
) -> EnsembleResult:
    """Reduce run_replica over a replica id range (default 0..replicas),
    serially or on `workers` threads.

    The ids are cut into min(workers, replicas) contiguous runs in id order,
    one per worker: serially one run on the calling thread, else one per
    pool thread.  Each run allocates one work array and hands it to every
    run_replica call of the run.  The reduction follows a fixed pairwise
    tree over the id order, so any number of workers produces identical
    bytes; the calling thread feeds it one singleton at a time after the pool.
    """
    if workers is not None:
        geometry._integer(workers, "workers", 1)
    try:
        lo, hi = replica_range if replica_range is not None else (0, config.replicas)
    except (TypeError, ValueError):
        raise ValueError(f"replica_range must be a (lo, hi) pair, got {replica_range!r}") from None
    lo, hi = geometry._integer(lo, "replica_range entry"), geometry._integer(hi, "replica_range entry")
    if not 0 <= lo <= hi:
        raise ValueError(f"replica_range must have 0 <= lo <= hi, got ({lo}, {hi})")
    count = min(workers or 1, hi - lo)
    bounds = [lo + (hi - lo) * k // max(count, 1) for k in range(count + 1)]
    runs = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    if len(runs) > 1:
        with ThreadPoolExecutor(max_workers=len(runs)) as pool:
            parts = list(pool.map(_run, [config] * len(runs), runs))
    else:
        parts = [_run(config, ids) for ids in runs]
    return _tree_reduce((_singleton(config, record) for part in parts for record in part), config)


# ---------------------------------------------------------------------------
# Derived fits


def block_stats(result: EnsembleResult) -> list[float]:
    """Each dyadic block's decay statistic of log |mu_hat|^2, by block exponent:
    the mean from the log sums, or the median from the block's histogram."""
    if result.count == 0:
        raise ValueError("empty ensemble has no statistics")
    if result.config.statistic == "median":
        return [histogram.median() for histogram in result.histograms]
    logs = result.log_abs2_sum / result.count
    return [float(np.mean(logs[columns])) for columns in spectral.block_columns(result.config.n_max)]


def decay_fit_from_result(
    result: EnsembleResult, n_lo: int | None = None, n_hi: int | None = None
) -> estimators.SlopeFit:
    """Decay-slope fit re-derived from the aggregate accumulators."""
    config = result.config
    n_lo, n_hi = 8 if n_lo is None else n_lo, config.n_max if n_hi is None else n_hi
    return estimators.dyadic_block_fit(block_stats(result), n_lo, n_hi, config.n_max, config.statistic)


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


# Numbers encoded at a time: one piece's list and text stay small next to
# the archive text, which is held whole until the file is opened.
_CHUNK = 1024


def _array_pieces(values: np.ndarray, encode):
    """JSON text of a real or integer array in pieces: the list encode
    writes, a chunk of numbers at a time."""
    yield "["
    for start in range(0, values.size, _CHUNK):
        yield (", " if start else "") + encode(values[start : start + _CHUNK].tolist())[1:-1]
    yield "]"


def _json_pieces(value, encode):
    """JSON text of an archive field in pieces: arrays as number lists,
    complex ones as interleaved (re, im) pairs, histograms as
    {"bins": [...], "counts": [...]} objects, anything else by `encode`."""
    if isinstance(value, tuple):
        yield "["
        for i, histogram in enumerate(value):
            yield ', {"bins": ' if i else '{"bins": '
            yield from _array_pieces(histogram.bins, encode)
            yield ', "counts": '
            yield from _array_pieces(histogram.counts, encode)
            yield "}"
        yield "]"
    elif isinstance(value, np.ndarray):
        yield from _array_pieces(value.view(float), encode)
    else:
        yield encode(value)


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
        value = tuple(LogHistogram(_int32(h["bins"], low), _int32(h["counts"], 1)) for h in data)
    elif isinstance(empty, np.ndarray):
        value = np.array(_numbers(data, {int, float}, "number"), dtype=float).view(empty.dtype)
    elif type(data) not in ({int} if type(empty) is int else {int, float}) or data < 0:
        raise ValueError(f"{data!r} is not a non-negative {type(empty).__name__}")
    else:
        return type(empty)(data)
    if len(value) != len(empty):
        raise ValueError(f"{len(value)} entries where the config needs {len(empty)}")
    return value


def write_csv(path, header: str, rows, end: str = "\n") -> None:
    """The one table writer: the header line, then one line per row, each
    line ended by `end`.  An int cell is written with str, any other cell as
    repr(float(cell)), so a float is written in full and read back exactly."""
    with open(path, "w", newline="") as fh:
        fh.write(header + end)
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row) + end)


def export_result(result: EnsembleResult, fmt: str, path) -> None:
    """JSON is the archival format (loadable); CSV is the block-stat table."""
    if fmt == "json":
        payload = {"version": VERSION, "config": asdict(result.config)}
        payload.update((name, getattr(result, name)) for name in _NAMES[result.config.statistic])
        encode = json.JSONEncoder(allow_nan=False).encode  # NaN and infinity are not JSON
        # The bytes of json.dumps, encoded in small pieces and written one by one.
        pieces = []
        for key, value in payload.items():
            pieces += [", " if pieces else "{", encode(key), ": ", *_json_pieces(value, encode)]
        pieces.append("}\n")
        with open(path, "w") as fh:
            fh.writelines(pieces)
    elif fmt == "csv":
        stats = zip(spectral.block_frequencies(result.config.n_max), block_stats(result))
        write_csv(path, "block_lo,block_hi,stat", [(n.start, n[-1], stat) for n, stat in stats])
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
    try:
        config = config_from_dict(payload.get("config"))
    except ValueError as exc:
        raise ValueError(f"archive field 'config' is malformed: {exc}") from exc
    _check_keys(payload, ("version", "config", *_NAMES[config.statistic]), f"{config.statistic} archive")
    values = {}
    for name, empty in _accumulators(config).items():
        try:
            values[name] = _decode(payload[name], empty)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"archive field {name!r} is malformed: {exc!r}") from exc
    if config.statistic == "median":
        for a, (n, h) in enumerate(zip(spectral.block_frequencies(config.n_max), values["histograms"])):
            increasing = h.bins.size == h.counts.size and np.all(np.diff(h.bins) > 0)
            if not increasing or h.counts.sum() != values["count"] * len(n):
                why = f"block {a} is not {values['count']} x {len(n)} values in strictly increasing bins"
                raise ValueError(f"archive field 'histograms' is malformed: {why}")
    return EnsembleResult(config=config, **values)
