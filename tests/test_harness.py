import dataclasses
import json
import math
import os
import re
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import gmchaos
from gmchaos import estimators, harness, measure, rng, sampler, spectral


def small_config(**overrides):
    base = dict(
        gamma=0.5,
        depth=7,
        grid_size=256,
        n_max=32,
        tau=0.5,
        replicas=6,
        seed=41,
        statistic="median",
        norm_depths=(5, 7),
        mass_levels=(2, 3, 4),
    )
    base.update(overrides)
    return harness.ExperimentConfig(**base)


def same_histograms(a, b):
    return len(a.histograms) == len(b.histograms) and all(
        np.array_equal(x.bins, y.bins) and np.array_equal(x.counts, y.counts)
        for x, y in zip(a.histograms, b.histograms)
    )


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(grid_size=200)  # not a power of two
    with pytest.raises(ValueError):
        small_config(n_max=64)  # beyond grid/8
    with pytest.raises(ValueError):
        small_config(depth=6)  # below log2(n_max) + 2
    with pytest.raises(ValueError):
        small_config(replicas=0)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        small_config(seed=-1)
    with pytest.raises(ValueError):
        small_config(statistic="mode")
    with pytest.raises(ValueError):
        small_config(norm_depths=(9,))
    with pytest.raises(ValueError):
        small_config(mass_levels=(12,))
    with pytest.raises(ValueError, match=r"norm depths must not repeat, got \(5, 5, 7\)"):
        small_config(norm_depths=(5, 5, 7))
    with pytest.raises(ValueError, match=r"mass levels must not repeat, got \(2, 2, 3\)"):
        small_config(mass_levels=(2, 2, 3))
    with pytest.raises(ValueError, match=r"^an L2 slope needs at least two levels, got \[3\]$"):
        small_config(mass_levels=(3,))  # mass levels are none or at least two
    with pytest.raises(ValueError):
        small_config(tau=1.0)
    with pytest.raises(estimators.NoFeasibleExponentsError):
        small_config(gamma=1.3, tau=0.5, norm_depths=(5,))  # tau above the decay exponent
    # wrong types are refused by name before any check could truncate them
    wrong_types = [
        ("depth", 7.5, "depth must be an integer, got 7.5"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("replicas", True, "replicas must be an integer, got True"),
        ("mass_levels", (2.7, 3), "mass_levels entry must be an integer, got 2.7"),
        ("norm_depths", (5, False), "norm_depths entry must be an integer, got False"),
        ("norm_depths", 5, "norm_depths must be a sequence of integers, got 5"),
        ("gamma", "0.5", "gamma must be a number, got '0.5'"),
        ("gamma", True, "gamma must be a number, got True"),
        ("tau", "0.0", "tau must be a number, got '0.0'"),
        ("depth", "7", "depth must be an integer, got '7'"),
        ("seed", "1", "seed must be an integer, got '1'"),
        ("replicas", "4", "replicas must be an integer, got '4'"),
        ("n_max", 32.0, "n_max must be an integer, got 32.0"),
        ("grid_size", None, "grid_size must be an integer, got None"),
    ]
    for name, value, message in wrong_types:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**{name: value})
    numpy_typed = small_config(depth=np.int64(7), seed=np.uint32(41), norm_depths=np.array([5, 7]))
    assert numpy_typed == small_config()
    assert type(numpy_typed.depth) is type(numpy_typed.seed) is type(numpy_typed.norm_depths[0]) is int


def test_replica_determinism_and_separation(monkeypatch):
    config = small_config()
    a = harness.run_replica(config, 3)
    b = harness.run_replica(config, 3)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.total_mass == b.total_mass
    c = harness.run_replica(config, 4)
    assert not np.array_equal(a.coefficients, c.coefficients)
    # a replica id that is not a non-negative integer is refused before any draw
    opened = []
    monkeypatch.setattr(rng, "field_stream", lambda *key: opened.append(key))
    for bad, message in ((1.5, "an integer, got 1.5"), (True, "an integer, got True"), (-1, "non-negative, got -1")):
        with pytest.raises(ValueError, match=f"^replica must be {message}$"):
            harness.run_replica(config, bad)
    assert opened == []


@pytest.mark.parametrize(
    "work",
    [np.empty(6 * 256 + 1), np.empty(6 * 256 + 2, dtype=np.float32), np.empty((2, 3 * 256 + 1))],
    ids=["short", "float32", "two-dimensional"],
)
def test_run_replica_refuses_a_wrong_work_array(work):
    with pytest.raises(ValueError, match="float64 array of 6G \\+ 2 entries for grid size 256"):
        harness.run_replica(small_config(), 0, work)


def test_degenerate_gamma_replica():
    config = small_config(gamma=0.0, norm_depths=())
    record = harness.run_replica(config, 0)
    assert np.max(np.abs(record.coefficients)) < 1e-12
    assert record.total_mass == pytest.approx(1.0, abs=1e-15)
    # dyadic masses of the uniform density are the interval lengths
    assert np.allclose(record.level_mass_sq, [2.0**-2, 2.0**-3, 2.0**-4], atol=1e-14)


def test_single_replica_ensemble_equals_record():
    config = small_config(replicas=1)
    result = harness.run_ensemble(config)
    record = harness.run_replica(config, 0)
    assert result.count == 1
    assert np.array_equal(result.coeff_sum, record.coefficients)
    assert result.mass_sum == record.total_mass


def test_merge_identity_and_counts():
    config = small_config(replicas=4)
    result = harness.run_ensemble(config)
    empty = harness.empty_result(config)
    merged = harness.merge_results(result, empty)
    assert merged.equals(result)
    assert harness.run_ensemble(config, (2, 2)).equals(empty)
    assert harness.run_ensemble(config, (2, 2), workers=2).equals(empty)
    a = harness.run_ensemble(config, replica_range=(0, 2))
    b = harness.run_ensemble(config, replica_range=(2, 4))
    combined = harness.merge_results(a, b)
    assert combined.count == 4
    assert np.allclose(combined.abs2_sum, result.abs2_sum, rtol=1e-12)
    assert np.allclose(combined.norm_sum, result.norm_sum, rtol=1e-12)
    assert same_histograms(combined, result)


def test_merge_associativity():
    config = small_config(replicas=6)
    parts = [harness.run_ensemble(config, replica_range=(i, i + 2)) for i in (0, 2, 4)]
    left = harness.merge_results(harness.merge_results(parts[0], parts[1]), parts[2])
    right = harness.merge_results(parts[0], harness.merge_results(parts[1], parts[2]))
    assert left.count == right.count
    assert np.allclose(left.abs2_sum, right.abs2_sum, rtol=1e-12)
    assert np.allclose(left.coeff_sum, right.coeff_sum, rtol=1e-12)
    assert same_histograms(left, right)


def test_merge_commutative_histograms():
    config = small_config(replicas=4)
    a = harness.run_ensemble(config, replica_range=(0, 2))
    b = harness.run_ensemble(config, replica_range=(2, 4))
    ab = harness.merge_results(a, b)
    ba = harness.merge_results(b, a)
    assert ab.count == ba.count
    assert same_histograms(ab, ba)


TINY = dict(gamma=0.6, depth=5, grid_size=64, n_max=8, tau=0.3, seed=5,
            norm_depths=(3, 5), mass_levels=(1, 2))


@given(
    cuts=st.lists(st.integers(1, 11), max_size=5, unique=True),
    statistic=st.sampled_from(["mean", "median"]),
    data=st.data(),
)
def test_merge_is_exact_for_any_split_order_and_grouping(cuts, statistic, data):
    config = harness.ExperimentConfig(replicas=12, statistic=statistic, **TINY)
    whole = harness.run_ensemble(config)
    bounds = [0, *sorted(cuts), config.replicas]
    parts = [harness.run_ensemble(config, replica_range=r) for r in zip(bounds, bounds[1:])]
    parts = data.draw(st.permutations(parts))
    while len(parts) > 1:
        i = data.draw(st.integers(0, len(parts) - 2))
        parts[i : i + 2] = [harness.merge_results(parts[i], parts[i + 1])]
    merged = parts[0]
    for name in harness._accumulators(config):
        if name == "histograms":
            assert same_histograms(merged, whole)
        else:
            np.testing.assert_allclose(getattr(merged, name), getattr(whole, name), rtol=1e-12, atol=1e-12)


@given(seed=st.integers(0, 2**32), replicas=st.integers(1, 5))
def test_mean_and_median_ensembles_share_every_shared_accumulator_bitwise(seed, replicas):
    mean, median = (
        harness.run_ensemble(harness.ExperimentConfig(**{**TINY, "seed": seed, "replicas": replicas}, statistic=s))
        for s in ("mean", "median")
    )
    shared = set(harness._accumulators(mean.config)) & set(harness._accumulators(median.config))
    assert shared == {"count", "coeff_sum", "abs2_sum", "mass_sum", "mass_sq_sum", "level_sq_sum", "norm_sum"}
    for name in shared:
        assert np.asarray(getattr(mean, name)).tobytes() == np.asarray(getattr(median, name)).tobytes(), name
    assert mean.histograms is None and median.log_abs2_sum is None


@given(
    gamma=st.floats(0.0, 1.2),
    seed=st.integers(0, 2**32),
    replicas=st.integers(1, 4),
    statistic=st.sampled_from(["mean", "median"]),
)
def test_archive_export_load_export_is_byte_identical(gamma, seed, replicas, statistic):
    config = harness.ExperimentConfig(
        **{**TINY, "gamma": gamma, "tau": 0.0, "seed": seed, "replicas": replicas,
           "statistic": statistic}
    )
    result = harness.run_ensemble(config)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
        harness.export_result(result, "json", first)
        loaded = harness.load_result(first)
        harness.export_result(loaded, "json", second)
        assert loaded.equals(result)
        assert first.read_bytes() == second.read_bytes()


@given(
    seed=st.integers(0, 2**32),
    replicas=st.integers(1, 4),
    statistic=st.sampled_from(["mean", "median"]),
    mass_sum=st.floats(allow_nan=False, allow_infinity=False),
)
def test_archive_bytes_are_json_dumps_of_the_payload(seed, replicas, statistic, mass_sum):
    config = harness.ExperimentConfig(**{**TINY, "seed": seed, "replicas": replicas, "statistic": statistic})
    result = dataclasses.replace(harness.run_ensemble(config), mass_sum=mass_sum)
    payload = {"version": harness.VERSION, "config": dataclasses.asdict(config)}
    for name in harness._accumulators(config):
        value = getattr(result, name)
        if isinstance(value, tuple):
            value = [{"bins": h.bins.tolist(), "counts": h.counts.tolist()} for h in value]
        elif isinstance(value, np.ndarray):
            value = value.view(float).tolist()  # complex as interleaved (re, im)
        payload[name] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ensemble.json"
        harness.export_result(result, "json", path)
        assert path.read_bytes() == (json.dumps(payload, allow_nan=False) + "\n").encode()


def test_merge_rejects_config_mismatch():
    a = harness.run_ensemble(small_config(replicas=2))
    b = harness.run_ensemble(small_config(replicas=2, seed=42))
    with pytest.raises(ValueError):
        harness.merge_results(a, b)


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_execution_identical_bytes(tmp_path, workers):
    config = small_config(replicas=8)
    seq = harness.run_ensemble(config)
    par = harness.run_ensemble(config, workers=workers)
    assert seq.equals(par)
    harness.export_result(seq, "json", tmp_path / "seq.json")
    harness.export_result(par, "json", tmp_path / "par.json")
    assert (tmp_path / "seq.json").read_bytes() == (tmp_path / "par.json").read_bytes()


def test_workers_run_in_the_calling_process(monkeypatch):
    pids = []
    run_replica = harness.run_replica
    monkeypatch.setattr(
        harness, "run_replica", lambda config, i, work: pids.append(os.getpid()) or run_replica(config, i, work)
    )
    harness.run_ensemble(small_config(replicas=4), workers=2)
    assert pids == [os.getpid()] * 4


def test_total_mass_martingale():
    config = harness.ExperimentConfig(
        gamma=0.7, depth=8, grid_size=256, n_max=32, replicas=10**4, seed=7,
        statistic="mean",
    )
    result = harness.run_ensemble(config)
    mean = result.mass_sum / result.count
    assert abs(mean - 1.0) < 0.05


def test_export_round_trip(tmp_path):
    config = small_config()
    result = harness.run_ensemble(config)
    path = tmp_path / "ensemble.json"
    harness.export_result(result, "json", path)
    back = harness.load_result(path)
    assert back.equals(result)
    payload = json.loads(path.read_text())
    assert payload["version"] == harness.VERSION
    assert payload["config"]["gamma"] == 0.5


def test_export_csv_schema(tmp_path):
    config = small_config()
    result = harness.run_ensemble(config)
    path = tmp_path / "blocks.csv"
    harness.export_result(result, "csv", path)
    lines = path.read_text().splitlines()
    assert lines[0] == "block_lo,block_hi,stat"
    assert len(lines) == 1 + len(spectral.block_frequencies(config.n_max))
    lo, hi, stat = lines[1].split(",")
    assert (int(lo), int(hi)) == (1, 1)
    float(stat)


def test_histograms_count_every_value_and_are_deterministic():
    config = small_config(grid_size=2048, n_max=256, depth=10, replicas=3,
                          norm_depths=(), mass_levels=())
    result = harness.run_ensemble(config)
    blocks = spectral.block_frequencies(config.n_max)
    assert len(result.histograms) == len(blocks)
    for n, histogram in zip(blocks, result.histograms):
        assert histogram.counts.sum() == len(n) * 3
        assert np.all(histogram.counts > 0)
        assert np.all(np.diff(histogram.bins) > 0)
    again = harness.run_ensemble(config)
    assert result.equals(again)


def test_histograms_are_int32_and_refuse_overflow(tmp_path):
    result = harness.run_ensemble(small_config(replicas=3))
    path = tmp_path / "ensemble.json"
    harness.export_result(result, "json", path)
    merged = harness.merge_results(result, harness.load_result(path))
    for histogram in merged.histograms:
        assert histogram.bins.dtype == histogram.counts.dtype == np.int32
    top = np.iinfo(np.int32).max
    full = harness.LogHistogram(np.array([0], dtype=np.int32), np.array([top], dtype=np.int32))
    one = harness.LogHistogram(np.array([0, 5], dtype=np.int32), np.array([1, 1], dtype=np.int32))
    assert (full + harness.LogHistogram(one.bins[1:], one.counts[1:])).counts.tolist() == [top, 1]
    with pytest.raises(OverflowError):
        full + one


FLOOR = math.log(estimators.LOG_FLOOR)  # its bin is -176,839
LOG_VALUES = st.lists(
    st.one_of(st.floats(-40.0, 40.0), st.sampled_from([FLOOR, 0.0, 1 / 256, -1 / 256])),
    max_size=40,
)


@given(x=LOG_VALUES, y=LOG_VALUES)
@example(x=[], y=[])
@example(x=[0.3] * 7, y=[])
@example(x=[], y=[-2.5] * 3)
@example(x=[1.25] * 5, y=[1.25] * 4)
@example(x=[FLOOR] * 3, y=[FLOOR, 0.0])
def test_histogram_sum_counts_every_bin_like_unique(x, y):
    x, y = np.array(x, dtype=float), np.array(y, dtype=float)
    a, b = harness.LogHistogram.of(x), harness.LogHistogram.of(y)
    for merged, values in ((a + b, [x, y]), (a + b + a, [x, y, x]), (b + (a + b), [y, x, y])):
        bins, counts = np.unique(np.floor(256 * np.concatenate(values)), return_counts=True)
        assert merged.bins.tolist() == bins.tolist()
        assert merged.counts.tolist() == counts.tolist()
        for histogram in (a, b, merged):
            assert histogram.bins.dtype == histogram.counts.dtype == np.int32
    assert harness.LogHistogram.of(np.array([FLOOR])).bins.tolist() == [-176839]


def _reference_of(log_values):
    ids = np.floor(harness.BINS_PER_UNIT * log_values).astype(np.int32)
    bins, counts = np.unique(ids, return_counts=True)
    return harness.LogHistogram(bins, counts.astype(np.int32))


def _reference_add(a, b):
    bins, slot = np.unique(np.concatenate([a.bins, b.bins]), return_inverse=True)
    counts = np.zeros(bins.size, dtype=np.int64)
    np.add.at(counts, slot, np.concatenate([a.counts, b.counts]))
    return harness.LogHistogram(bins, counts.astype(np.int32))


def _reference_merge(a, b):
    sums = {}
    for name in harness._accumulators(a.config):
        x, y = getattr(a, name), getattr(b, name)
        sums[name] = tuple(map(_reference_add, x, y)) if name == "histograms" else x + y
    return dataclasses.replace(a, **sums)


def _reference_ensemble(config, lo, hi):
    """run_ensemble's fixed pairwise tree, with the statistic's accumulator
    built from each record's logs, histograms by np.unique and merged by
    np.add.at."""
    items, columns = [], spectral.block_columns(config.n_max)
    for i in range(lo, hi):
        record = harness.run_replica(config, i)
        single = harness._singleton(config, record)
        logs = np.log(np.maximum(np.abs(record.coefficients) ** 2, estimators.LOG_FLOOR))
        if config.statistic == "mean":
            single = dataclasses.replace(single, log_abs2_sum=logs)
        else:
            single = dataclasses.replace(single, histograms=tuple(_reference_of(logs[c]) for c in columns))
        items.append(single)
    while len(items) > 1:
        items = [
            _reference_merge(items[i], items[i + 1]) if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


@pytest.mark.parametrize("statistic", ["mean", "median"])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("lo, hi", [(0, 1), (0, 2), (0, 3), (0, 7), (0, 8), (0, 13), (0, 16), (0, 17), (5, 18)])
def test_run_ensemble_bytes_match_the_unique_and_add_at_reference(tmp_path, statistic, workers, lo, hi):
    config = small_config(replicas=hi, statistic=statistic)
    harness.export_result(harness.run_ensemble(config, (lo, hi), workers), "json", tmp_path / "run.json")
    harness.export_result(_reference_ensemble(config, lo, hi), "json", tmp_path / "reference.json")
    assert (tmp_path / "run.json").read_bytes() == (tmp_path / "reference.json").read_bytes()


def test_run_ensemble_holds_log2_r_aggregates(monkeypatch):
    """The reduction keeps at most ceil(log2 R) + 2 aggregates alive at once:
    the counter's stack, plus the operands and result of one merge."""
    refs, peak = [], 0

    def tracked(make):
        def wrapper(*args):
            nonlocal peak
            result = make(*args)
            refs.append(weakref.ref(result))
            peak = max(peak, sum(ref() is not None for ref in refs))
            return result

        return wrapper

    monkeypatch.setattr(harness, "_singleton", tracked(harness._singleton))
    monkeypatch.setattr(harness, "merge_results", tracked(harness.merge_results))
    replicas = 100
    harness.run_ensemble(small_config(replicas=replicas), workers=2)
    assert len(refs) == 2 * replicas - 1  # R singletons and R - 1 merges
    assert peak <= math.ceil(math.log2(replicas)) + 2


def test_run_replica_draws_one_field_per_read_depth(monkeypatch):
    opened = []
    field_stream = rng.field_stream
    monkeypatch.setattr(rng, "field_stream", lambda *key: opened.append(key) or field_stream(*key))
    config = harness.ExperimentConfig(
        gamma=0.5, depth=16, grid_size=2**16, n_max=4096, tau=0.3,
        norm_depths=(6, 8, 10, 12), mass_levels=tuple(range(4, 11)),
    )
    harness.run_replica(config, 0)
    assert [key[2:] for key in opened] == [(0, 6), (7, 8), (9, 10), (11, 12), (13, 16)]


def _stacked_densities(config, replica):
    """The density at each depth run_replica reads, {depth: density}: the
    product of the weights written out over copies of the same block fields,
    drawn the way it draws them."""
    depths = sorted({*config.norm_depths, config.depth})
    rows, variances = np.empty((len(depths), config.grid_size)), np.empty(len(depths))
    for i, (_, variance, field) in enumerate(sampler.block_fields(depths, config.grid, config.seed, replica)):
        rows[i], variances[i] = field, variance
    gamma = config.gamma
    return {
        depth: np.exp(gamma * rows[: i + 1].sum(0) - 0.5 * gamma**2 * np.sum(variances[: i + 1]))
        for i, depth in enumerate(depths)
    }


def test_replica_statistics_are_the_kernels():
    config = small_config()
    plan = config.exponents()
    for replica in range(3):
        record = harness.run_replica(config, replica)
        densities = _stacked_densities(config, replica)
        level_sq = measure.l2_sums(densities[config.depth], config.mass_levels)
        assert record.level_mass_sq.tobytes() == level_sq.tobytes()
        for depth, value in zip(config.norm_depths, record.norm_powers):
            coefficients = spectral.fourier_coefficients(densities[depth], config.n_max)
            assert value == estimators.norm_powers(coefficients, config.tau, plan.p, plan.q)


def test_running_exponent_is_the_stacked_block_density():
    # norm depths out of order: run_replica reads them in level order; a
    # work array's old contents must not reach the record
    config = harness.ExperimentConfig(
        gamma=0.5, depth=14, grid_size=2**12, n_max=256, tau=0.3,
        norm_depths=(10, 6, 12, 8), mass_levels=(2, 5, 9),
    )
    plan = config.exponents()
    for replica in range(2):
        for work in (None, np.full(6 * config.grid_size + 2, np.nan)):
            record = harness.run_replica(config, replica, work)
            densities = _stacked_densities(config, replica)
            density = densities[config.depth]
            assert record.coefficients.tobytes() == spectral.fourier_coefficients(density, config.n_max).tobytes()
            assert record.total_mass == float(density.mean())
            assert record.level_mass_sq.tobytes() == measure.l2_sums(density, config.mass_levels).tobytes()
            for depth, value in zip(config.norm_depths, record.norm_powers):
                coefficients = spectral.fourier_coefficients(densities[depth], config.n_max)
                assert value == estimators.norm_powers(coefficients, config.tau, plan.p, plan.q)


def test_run_replica_peak_memory():
    # in G-length float arrays: the running exponent and the density (2),
    # the first block's transform on its 2G circle (2), kept while the next
    # block's half-spectrum and transform on 1.125G (2.25) are made; five
    # stacked rows took 9.2
    config = harness.ExperimentConfig(
        gamma=0.5, depth=16, grid_size=2**12, n_max=256, tau=0.3,
        norm_depths=(6, 8, 10, 12), mass_levels=tuple(range(4, 11)),
    )
    harness.run_replica(config, 0)  # fills the filter cache
    tracemalloc.start()
    try:
        harness.run_replica(config, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 8 * config.grid_size, peak


WORK_CONFIG = dict(
    gamma=0.5, depth=14, grid_size=2**12, n_max=256, tau=0.3,
    norm_depths=(6, 8, 10, 12), mass_levels=tuple(range(4, 11)),
)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_work_arrays_carry_nothing_between_blocks_or_replicas(tmp_path, monkeypatch, workers):
    # the 1.125G blocks colour in slices of the 2G block's arrays, and every
    # replica's running exponent must restart at zero; each worker runs its
    # replicas in one work array, and no more workers start than replicas
    config = harness.ExperimentConfig(**WORK_CONFIG, replicas=7)
    singles = [harness._singleton(config, harness.run_replica(config, i)) for i in range(7)]
    harness.export_result(harness._tree_reduce(singles, config), "json", tmp_path / "standalone.json")
    works, run_replica = [], harness.run_replica
    monkeypatch.setattr(harness, "run_replica", lambda *args: works.append(args[2]) or run_replica(*args))
    harness.export_result(harness.run_ensemble(config, workers=workers), "json", tmp_path / "run.json")
    assert (tmp_path / "run.json").read_bytes() == (tmp_path / "standalone.json").read_bytes()
    assert len(works) == 7 and len({id(work) for work in works}) == min(workers, 7)


def test_replica_in_an_ensemble_allocates_no_grid_array(monkeypatch):
    config = harness.ExperimentConfig(**WORK_CONFIG, replicas=4)
    harness.run_replica(config, 0)  # fills the filter cache and the FFT plans
    peaks, run_replica = [], harness.run_replica

    def traced(config, i, work):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        record = run_replica(config, i, work)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return record

    monkeypatch.setattr(harness, "run_replica", traced)
    tracemalloc.start()
    try:
        harness.run_ensemble(config)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 4 and max(peaks) < 8 * config.grid_size, peaks


def test_norm_sum_matches_norm_powers():
    # report's uniform_bound, norm_sum / count, is the mean of norm_powers
    # over each norm depth's stacked raw coefficient rows
    config = small_config(replicas=8)
    plan = config.exponents()
    result = harness.run_ensemble(config)
    stacked = [_stacked_densities(config, replica) for replica in range(config.replicas)]
    means = [
        np.mean(estimators.norm_powers(
            np.array([spectral.fourier_coefficients(densities[depth], config.n_max) for densities in stacked]),
            config.tau, plan.p, plan.q,
        ))
        for depth in config.norm_depths
    ]
    np.testing.assert_allclose(result.norm_sum / result.count, means, rtol=1e-12)


def test_block_means_of_abs2_match_the_exact_second_moment():
    # 512 replicas in 16 groups of 32; per dyadic block [2^a, 2^(a+1)) from 8
    # to 511 (a = 3..8), the group means of abs2_sum / count over the oracle's
    # block mean must average to 1 within 4 between-group standard errors
    config = harness.ExperimentConfig(gamma=0.5, depth=11, grid_size=8192, n_max=512, replicas=512, seed=11)
    oracle = spectral.second_moment(config.gamma, config.depth, config.grid, config.n_max)
    columns = spectral.block_columns(config.n_max)[3:9]
    ratios = np.empty((16, len(columns)))
    for g in range(16):
        result = harness.run_ensemble(config, replica_range=(32 * g, 32 * g + 32))
        mean_abs2 = result.abs2_sum / result.count
        ratios[g] = [mean_abs2[c].mean() / oracle[c].mean() for c in columns]
    z = (ratios.mean(axis=0) - 1.0) / (ratios.std(axis=0, ddof=1) / 4.0)
    assert np.all(np.abs(z) <= 4.0), z


def test_histogram_median_within_half_a_bin():
    gen = np.random.default_rng(0)
    for size in (1, 2, 7, 40, 1001):
        values = gen.normal(-5.0, 3.0, size)
        histogram = harness.LogHistogram.of(values[: size // 2]) + harness.LogHistogram.of(
            values[size // 2 :]
        )
        assert abs(histogram.median() - np.median(values)) <= 0.5 / harness.BINS_PER_UNIT


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_median_fit_from_result_matches_estimator(seed):
    from gmchaos import estimators

    config = harness.ExperimentConfig(
        gamma=0.5, depth=10, grid_size=2048, n_max=256, replicas=40, seed=seed,
    )
    fit = harness.decay_fit_from_result(harness.run_ensemble(config), 8, 256)
    abs2 = np.array([np.abs(harness.run_replica(config, r).coefficients) ** 2 for r in range(40)])
    direct = estimators.decay_slope(abs2, 8, 256, statistic="median")
    assert [b[:3] for b in fit.blocks] == [b[:3] for b in direct.blocks]
    for ours, exact in zip(fit.blocks, direct.blocks):
        assert abs(ours[3] - exact[3]) <= 0.5 / harness.BINS_PER_UNIT


def test_decay_fit_from_result_matches_estimator():
    from gmchaos import estimators, spectral

    config = harness.ExperimentConfig(
        gamma=0.5, depth=10, grid_size=2048, n_max=256, replicas=40, seed=3,
        statistic="mean",
    )
    result = harness.run_ensemble(config)
    fit = harness.decay_fit_from_result(result, 8, 256)
    abs2 = np.empty((40, 256))
    for r in range(40):
        # run_replica draws the depth-10 field as the one block 0..10
        abs2[r] = np.abs(spectral.fourier_coefficients(_stacked_densities(config, r)[10], 256)) ** 2
    direct = estimators.decay_slope(abs2, 8, 256, statistic="mean")
    assert fit.slope == pytest.approx(direct.slope, abs=1e-12)


def test_l2_and_clt_from_result():
    config = harness.ExperimentConfig(
        gamma=0.4, depth=10, grid_size=2048, n_max=256, replicas=120, seed=9,
        statistic="mean", mass_levels=(2, 3, 4, 5),
    )
    result = harness.run_ensemble(config)
    l2 = harness.l2_fit_from_result(result)
    assert 0.3 < l2.slope < 1.1  # gamma=0.4 has correlation dimension 0.84
    profile = harness.clt_profile_from_result(result, 4, 7)
    assert len(profile) == 3
    assert all(v > 0 for _, _, v in profile)
    with pytest.raises(ValueError):
        harness.clt_profile_from_result(result, 4, 12)


def _archive(tmp_path, statistic="median", **changes):
    """A valid archive's payload with `changes` applied; None deletes a key."""
    path = tmp_path / "ensemble.json"
    harness.export_result(harness.run_ensemble(small_config(replicas=2, statistic=statistic)), "json", path)
    payload = json.loads(path.read_text())
    for key, value in changes.items():
        if value is None:
            del payload[key]
        else:
            payload[key] = value
    path.write_text(json.dumps(payload))
    return path


def test_load_rejects_old_format_archive(tmp_path):
    reservoir = {"priority": [1], "value": [0.5], "replica": [0], "n": [1]}
    path = _archive(
        tmp_path, version="gmchaos 0.1.0", histograms=None, abs2_sq_sum=[0.0] * 32,
        reservoirs={str(a): reservoir for a in range(6)},
    )
    with pytest.raises(ValueError, match=f"'gmchaos 0.1.0'.*'{re.escape(harness.VERSION)}'"):
        harness.load_result(path)


def test_load_rejects_wrong_version(tmp_path):
    with pytest.raises(ValueError, match="'gmchaos 9.9.9'"):
        harness.load_result(_archive(tmp_path, version="gmchaos 9.9.9"))


def test_load_names_unknown_and_missing_keys(tmp_path):
    with pytest.raises(ValueError, match="unknown keys \\['extra'\\]"):
        harness.load_result(_archive(tmp_path, extra=1))
    with pytest.raises(ValueError, match="missing keys \\['norm_sum'\\]"):
        harness.load_result(_archive(tmp_path, norm_sum=None))
    config = dataclasses.asdict(small_config(replicas=2))
    with pytest.raises(ValueError, match="config: missing keys \\[\\], unknown keys \\['fmt'\\]"):
        harness.load_result(_archive(tmp_path, config={**config, "fmt": "json"}))


@pytest.mark.parametrize(
    "statistic, changes, message",
    [
        ("median", {"log_abs2_sum": [0.0] * 32}, r"median archive: missing keys \[\], unknown keys \['log_abs2_sum'\]"),
        ("mean", {"histograms": []}, r"mean archive: missing keys \[\], unknown keys \['histograms'\]"),
        ("median", {"histograms": None}, r"median archive: missing keys \['histograms'\], unknown keys \[\]"),
        ("mean", {"log_abs2_sum": None}, r"mean archive: missing keys \['log_abs2_sum'\], unknown keys \[\]"),
    ],
    ids=["median-with-log-sums", "mean-with-histograms", "median-without-histograms", "mean-without-log-sums"],
)
def test_load_refuses_an_accumulator_its_statistic_does_not_keep(tmp_path, statistic, changes, message):
    with pytest.raises(ValueError, match=message):
        harness.load_result(_archive(tmp_path, statistic, **changes))


def test_load_names_malformed_field(tmp_path):
    with pytest.raises(ValueError, match="archive field 'abs2_sum' is malformed"):
        harness.load_result(_archive(tmp_path, abs2_sum=[0.0]))


@pytest.mark.parametrize(
    "field, index, token",
    [("mass_sum", None, "NaN"), ("abs2_sum", 0, "Infinity"), ("coeff_sum", 3, "-Infinity")],
)
def test_load_refuses_non_finite_numbers(tmp_path, field, index, token):
    path = _archive(tmp_path)
    payload = json.loads(path.read_text())
    if index is None:
        payload[field] = float(token)
    else:
        payload[field][index] = float(token)
    path.write_text(json.dumps(payload))
    assert token in path.read_text()
    with pytest.raises(ValueError, match=f"non-finite number {token}$"):
        harness.load_result(path)


def test_export_refuses_non_finite_numbers(tmp_path):
    result = harness.run_ensemble(small_config(replicas=2))
    path = tmp_path / "ensemble.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        harness.export_result(dataclasses.replace(result, mass_sum=math.nan), "json", path)
    assert not path.exists()  # refused before the file is opened


def test_export_peak_stays_below_twice_the_archive(tmp_path):
    config = harness.ExperimentConfig(gamma=0.5, depth=14, grid_size=2**15, n_max=4096, replicas=8)
    result = harness.run_ensemble(config)
    path = tmp_path / "ensemble.json"
    harness.export_result(result, "json", path)
    tracemalloc.start()
    try:
        harness.export_result(result, "json", path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = path.read_text()
    assert peak <= 2 * len(text), (peak, len(text))
    assert text == json.dumps(json.loads(text), allow_nan=False) + "\n"  # across chunk boundaries


@pytest.mark.parametrize("key, value", [("counts", 2**31), ("counts", -1), ("bins", 2**31)])
def test_load_refuses_histogram_values_outside_int32(tmp_path, key, value):
    path = _archive(tmp_path)
    payload = json.loads(path.read_text())
    payload["histograms"][0][key][0] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="archive field 'histograms' is malformed.*outside"):
        harness.load_result(path)


def _shuffle_block_bins(payload):
    bins = payload["histograms"][4]["bins"]
    bins[0], bins[-1] = bins[-1], bins[0]


def _append_empty_bin(payload):
    block = payload["histograms"][3]
    block["bins"].append(block["bins"][-1] + 5)
    block["counts"].append(0)


def _entry(value, *keys):
    """A change that puts `value` at payload[keys[0]][keys[1]]..."""

    def change(payload):
        target = payload
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value

    return change


@pytest.mark.parametrize(
    "change, message",
    [
        (_shuffle_block_bins, r"'histograms' is malformed: block 4 is not 2 x 16 values in strictly"),
        (_append_empty_bin, r"'histograms' is malformed: .*integer outside 1\.\.2147483647"),
        ({"count": 7}, r"'histograms' is malformed: block 0 is not 7 x 1 values"),
        ({"count": -40}, r"'count' is malformed: ValueError\('-40 is not a non-negative int'\)"),
        ({"count": "40"}, r"'count' is malformed: ValueError\(\"'40' is not a non-negative int\"\)"),
        ({"count": 2.5}, r"'count' is malformed: ValueError\('2.5 is not a non-negative int'\)"),
        ({"count": True}, r"'count' is malformed: ValueError\('True is not a non-negative int'\)"),
        ({"mass_sum": "39.5"}, r"'mass_sum' is malformed: .*'39.5' is not a non-negative float"),
        (_entry("0.81", "abs2_sum", 0), r"'abs2_sum' is malformed: .*entry '0.81' is not a JSON number"),
        (_entry(True, "abs2_sum", 3), r"'abs2_sum' is malformed: .*entry True is not a JSON number"),
        (_entry(False, "coeff_sum", 1), r"'coeff_sum' is malformed: .*entry False is not a JSON number"),
        (_entry("1", "histograms", 0, "counts", 0), r"'histograms' is malformed: .*'1' is not a JSON integer"),
        (_entry("1", "histograms", 3, "bins", 0), r"'histograms' is malformed: .*'1' is not a JSON integer"),
        (_entry(True, "histograms", 0, "counts", 0), r"'histograms' is malformed: .*True is not a JSON integer"),
        ({"config": 5}, r"'config' is malformed: config must be a JSON object, got 5$"),
        (_entry("0.5", "config", "gamma"), r"'config' is malformed: gamma must be a number, got '0.5'$"),
        (_entry("0.0", "config", "tau"), r"'config' is malformed: tau must be a number, got '0.0'$"),
        (_entry(7.5, "config", "depth"), r"'config' is malformed: depth must be an integer, got 7.5$"),
        (_entry("7", "config", "depth"), r"'config' is malformed: depth must be an integer, got '7'$"),
        (_entry(1.5, "config", "seed"), r"'config' is malformed: seed must be an integer, got 1.5$"),
        (_entry("1", "config", "seed"), r"'config' is malformed: seed must be an integer, got '1'$"),
        (_entry(True, "config", "replicas"), r"'config' is malformed: replicas must be an integer, got True$"),
        (_entry("4", "config", "replicas"), r"'config' is malformed: replicas must be an integer, got '4'$"),
        (_entry(32.0, "config", "n_max"), r"'config' is malformed: n_max must be an integer, got 32.0$"),
        (_entry(2.7, "config", "mass_levels", 0), r"'config' is malformed: mass_levels entry must be .*2.7$"),
    ],
    ids=["unsorted-bins", "empty-bin", "count-7", "count-negative", "count-string", "count-float", "count-bool",
         "mass-sum-string", "abs2-sum-string", "abs2-sum-bool", "coeff-sum-bool", "counts-string",
         "bins-string", "counts-bool", "config-not-object", "gamma-string", "tau-string",
         "depth-float", "depth-string", "seed-float", "seed-string", "replicas-bool",
         "replicas-string", "n-max-float", "mass-level-float"],
)
def test_load_refuses_malformed_counts_and_histograms(tmp_path, change, message):
    path = _archive(tmp_path)
    payload = json.loads(path.read_text())
    if callable(change):
        change(payload)
    else:
        payload.update(change)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=message):
        harness.load_result(path)


@pytest.mark.parametrize(
    "replica_range, message",
    [
        ((5, 2), r"0 <= lo <= hi, got \(5, 2\)"),
        ((-2, 1), r"0 <= lo <= hi, got \(-2, 1\)"),
        ((0.5, 2), "replica_range entry must be an integer, got 0.5"),
        ((0, "2"), "replica_range entry must be an integer, got '2'"),
        (3, r"replica_range must be a \(lo, hi\) pair, got 3"),
        ((0, 1, 2), r"replica_range must be a \(lo, hi\) pair, got \(0, 1, 2\)"),
    ],
    ids=["hi-below-lo", "lo-negative", "lo-float", "hi-string", "not-a-pair", "triple"],
)
def test_run_ensemble_refuses_bad_replica_range_before_any_replica(monkeypatch, replica_range, message):
    calls = []
    monkeypatch.setattr(harness, "run_replica", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=message):
        harness.run_ensemble(small_config(), replica_range)
    assert calls == []


@pytest.mark.parametrize(
    "workers, message",
    [
        (0, "workers must be at least 1, got 0"),
        (2.5, "workers must be an integer, got 2.5"),
        (True, "workers must be an integer, got True"),
        ("2", "workers must be an integer, got '2'"),
    ],
    ids=["zero", "float", "bool", "string"],
)
def test_run_ensemble_refuses_bad_workers_before_any_replica(monkeypatch, workers, message):
    calls = []
    monkeypatch.setattr(harness, "run_replica", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=message):
        harness.run_ensemble(small_config(), workers=workers)
    assert calls == []


def test_package_archive_and_project_versions_agree():
    # a regex, not tomllib: the project supports Python 3.10
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', text, re.MULTILINE) == [gmchaos.__version__]
    assert harness.VERSION == f"gmchaos {gmchaos.__version__}"
