"""The benchmark's workloads, the timed job each one repeats, and its gates.

One job is one ensemble as a user runs it: validate a configuration, run
the ensemble, persist it as the archival JSON, load it back and fit the
decay (and L2) slopes.  Jobs run one after another from a single client;
each waits for the one before it.  Every job gets its own experiment seed,
drawn from the workload seed, so the same ``--seed`` gives the same inputs.

Gates check the law the outputs must obey, not the values of today's
streams, so a change that alters the random streams passes them unchanged.
They run after the timed jobs and count into the run's failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from gmchaos import cli, harness

# Pool size of the pooled workload: two workers, never more than the CPUs
# this process may run on.
WORKERS = min(2, len(os.sched_getaffinity(0)))

# |z| of the pooled unit-mass check.  The total mass has mean exactly one
# and finite variance at these gammas, so under the law a pooled z beyond 5
# has probability below 1e-6.
UNIT_MASS_Z = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    # ExperimentConfig fields other than the replica count and the seed.
    science: dict
    replicas: int  # per job
    trace_jobs: int  # jobs repeated under tracing, a fixed amount of work
    fit_lo: int = 8
    pooled: bool = False
    # Traced boundaries this workload never reaches in the bench process.
    skips: frozenset = frozenset()

    def config(self, seed: int) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(replicas=self.replicas, seed=seed, **self.science)

    def job_seeds(self, seed: int):
        """Endless, reproducible stream of per-job experiment seeds."""
        gen = random.Random(f"{self.name}/{seed}")
        while True:
            yield gen.randrange(2**31)


WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance-fixture scale: level-field sampling is most of a
        # replica, so this shows changes to the level loop.
        Workload(
            name="deep_serial",
            science=dict(
                gamma=0.5,
                depth=16,
                grid_size=2**16,
                n_max=4096,
                tau=0.3,
                norm_depths=(6, 8, 10, 12),
                mass_levels=tuple(range(4, 11)),
            ),
            replicas=8,
            trace_jobs=3,
            skips=frozenset({"cli.cmd_spectrum", "cli.cmd_report"}),
        ),
        # Small grid, many replicas: per-call overhead and the aggregate
        # dominate, not FFT arithmetic.
        Workload(
            name="tiny_many",
            science=dict(gamma=0.5, depth=7, grid_size=256, n_max=32, statistic="median"),
            replicas=256,
            trace_jobs=2,
            # n_max 32 holds four complete dyadic blocks only from n = 1.
            fit_lo=1,
            skips=frozenset(
                {
                    "measure.dyadic_masses",
                    "spectral.martingale_vector",
                    "estimators.l2_spectrum_slope",
                    "cli.cmd_spectrum",
                    "cli.cmd_report",
                }
            ),
        ),
        # README scale through cli.main with a pool: the only workload with
        # process dispatch, IPC and archive file write and read.
        Workload(
            name="readme_parallel",
            science=dict(gamma=0.5, depth=11, grid_size=8192, n_max=512, statistic="median"),
            replicas=128,
            trace_jobs=2,
            pooled=True,
            # Replicas run in the workers; the bench process samples only
            # the set-up replica, which has no norm depths or mass levels.
            skips=frozenset(
                {
                    "measure.dyadic_masses",
                    "spectral.martingale_vector",
                    "estimators.l2_spectrum_slope",
                }
            ),
        ),
    )
}


def setup(workload: Workload) -> harness.ReplicaRecord:
    """Validate a configuration and run the first, cache-filling replica."""
    return harness.run_replica(workload.config(seed=0), 0)


@dataclass
class JobResult:
    seed: int
    ensemble_s: float  # inside the run_ensemble / cli spectrum call
    wall_s: float  # the whole job: ensemble, persistence and fits
    archive: Path
    result: harness.EnsembleResult | None = field(default=None, repr=False)
    fits: dict = field(default_factory=dict)


def run_job(workload: Workload, seed: int, workdir: Path) -> JobResult:
    archive = workdir / f"job-{seed}.json"
    if workload.pooled:
        return _cli_job(workload, seed, archive)
    t0 = perf_counter()
    config = workload.config(seed)
    t1 = perf_counter()
    result = harness.run_ensemble(config)
    t2 = perf_counter()
    harness.export_result(result, "json", archive)
    loaded = harness.load_result(archive)
    fits = {"decay": harness.decay_fit_from_result(loaded, workload.fit_lo).slope}
    if config.mass_levels:
        fits["l2"] = harness.l2_fit_from_result(loaded).slope
    t3 = perf_counter()
    return JobResult(seed, t2 - t1, t3 - t0, archive, result, fits)


def _spectrum_argv(workload: Workload, seed: int, replicas: int, out: Path, workers: int):
    s = workload.science
    return [
        "spectrum",
        "--gamma", str(s["gamma"]),
        "--m", str(s["depth"]),
        "--grid", str(s["grid_size"]),
        "--nmax", str(s["n_max"]),
        "--reps", str(replicas),
        "--seed", str(seed),
        "--stat", s["statistic"],
        "--format", "json",
        "--workers", str(workers),
        "--out", str(out),
    ]  # fmt: skip


def _quiet_main(argv) -> None:
    # The CLI reports the files it wrote on stdout, whose last line belongs
    # to the benchmark result.
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"gmchaos {argv[0]} exited with {code}")


def _cli_job(workload: Workload, seed: int, archive: Path) -> JobResult:
    report = archive.with_suffix(".report")
    t0 = perf_counter()
    _quiet_main(_spectrum_argv(workload, seed, workload.replicas, archive, WORKERS))
    t1 = perf_counter()
    _quiet_main(["report", "--in", str(archive), "--out", str(report)])
    t2 = perf_counter()
    summary = json.loads((report / "summary.json").read_text())
    return JobResult(seed, t1 - t0, t2 - t0, archive, fits={"decay": summary["decay"]["slope"]})


# ---------------------------------------------------------------------------
# Gates


def gate_fits(job: JobResult) -> str | None:
    """Decay slope finite and negative; L2 slope, a correlation-dimension
    estimate, finite and in (0, 1]."""
    decay = job.fits.get("decay")
    if decay is None or not math.isfinite(decay) or decay >= 0:
        return f"decay slope {decay!r} is not finite and negative"
    l2 = job.fits.get("l2")
    if l2 is not None and not (math.isfinite(l2) and 0.0 < l2 <= 1.0):
        return f"l2 slope {l2!r} is not a dimension in (0, 1]"
    return None


def gate_round_trip(job: JobResult) -> str | None:
    """The archive loads back to an equal aggregate and re-exports to the
    same bytes."""
    loaded = harness.load_result(job.archive)
    if job.result is not None and not loaded.equals(job.result):
        return "loaded archive differs from the in-memory result"
    again = job.archive.with_suffix(".again.json")
    harness.export_result(loaded, "json", again)
    if again.read_bytes() != job.archive.read_bytes():
        return "re-exported archive differs from the original bytes"
    return None


def gate_unit_mass(jobs: list[JobResult]) -> str | None:
    """Pooled over the run's jobs, the mean total mass is one within
    UNIT_MASS_Z standard errors (from mass_sum and mass_sq_sum)."""
    count = mass = mass_sq = 0.0
    for job in jobs:
        result = job.result if job.result is not None else harness.load_result(job.archive)
        count += result.count
        mass += result.mass_sum
        mass_sq += result.mass_sq_sum
    if count < 2:
        return f"unit-mass check needs two replicas, got {count:g}"
    mean = mass / count
    var = (mass_sq / count - mean**2) * count / (count - 1)
    z = (mean - 1.0) / math.sqrt(var / count)
    if not abs(z) <= UNIT_MASS_Z:
        return f"unit-mass z-score {z:.2f} beyond {UNIT_MASS_Z} over {count:g} replicas"
    return None


def gate_worker_identity(workload: Workload, seed: int, workdir: Path) -> str | None:
    """A short slice of the pooled job is byte-identical serial and pooled.

    Both runs write the same path, because the archive records it."""
    out = workdir / f"identity-{seed}.json"
    archives = []
    for workers in (1, WORKERS):
        _quiet_main(_spectrum_argv(workload, seed, 16, out, workers))
        archives.append(out.read_bytes())
    if archives[0] != archives[1]:
        return f"archives differ between 1 and {WORKERS} workers"
    return None
