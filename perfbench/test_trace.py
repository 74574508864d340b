"""Sanity checks of the traced benchmark run.

    python3 -m pytest perfbench/test_trace.py -q

Each workload's traced run must reach every boundary it is expected to
exercise, a boundary that records no call must be reported by name (so a
renamed library function shows up instead of reading as zero cost), and
span self times must add up to the traced wall time.
"""

import math
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from gmchaos import harness, sampler  # noqa: E402


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request):
    root = HERE / ".work"
    root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="test-", dir=root))
    try:
        metrics, record, tracer = run.run(request.param, 7, seconds=0, trace=True, workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return request.param, metrics, record, tracer


def test_run_is_correct(traced):
    _, metrics, record, _ = traced
    assert record["failures"] == []
    assert metrics["error_rate"] == 0.0


def test_expected_boundaries_record_calls(traced):
    name, _, record, tracer = traced
    assert tracer.missing == []
    assert record["zero_call_boundaries"] == [], f"no calls on {name}"
    skipped = workloads.WORKLOADS[name].skips
    assert skipped <= {b.name for b in tracer.boundaries}


def test_metrics_match_benchmark_json(traced):
    _, metrics, _, _ = traced
    assert set(metrics) == set(run.declared_metrics(trace=True))
    assert all(math.isfinite(v) for v in metrics.values())


def test_self_times_sum_to_traced_wall(traced):
    _, _, record, tracer = traced
    roots = [s for s in tracer.spans if s.parent < 0]
    assert {s.name for s in roots} == {"bench.setup", "bench.job"}
    assert math.isclose(sum(tracer.self_times()), sum(s.duration for s in roots), rel_tol=1e-9)
    jobs = sum(s.duration for s in roots if s.name == "bench.job")
    walls = sum(record["traced_jobs_wall_s"])
    assert walls <= jobs <= walls * 1.01 + 1e-3


def test_zero_call_boundary_is_reported_by_name():
    renamed = tr.Boundary("sampler.sample_blocks", sampler, "sample_blocks")
    tracer = tr.Tracer(tr.BOUNDARIES + (renamed,))
    original = harness.run_replica
    tracer.install()
    try:
        harness.run_replica(workloads.WORKLOADS["tiny_many"].config(seed=1), 0)
    finally:
        tracer.uninstall()
    assert harness.run_replica is original
    assert tracer.missing == ["sampler.sample_blocks"]
    expected = ["harness.run_replica", "sampler.sample_level", "sampler.sample_blocks"]
    assert tracer.zero_call_boundaries(expected) == ["sampler.sample_blocks"]
