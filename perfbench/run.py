"""gmchaos benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload deep_serial --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  One client runs the workload's job in a closed loop for
``--seconds`` (and at least MIN_JOBS jobs), then checks the outputs.

With ``--trace 0`` the last stdout line holds the end-to-end metrics,
measured with no tracing.  With ``--trace 1`` the same untraced loop runs
first; then the workload's first few jobs are repeated with every module
boundary wrapped (see ``tracer.py``) and the last line holds the per-layer
metrics.  The line before the result records the machine and every job.
``NOTES.md`` defines each metric.
"""

from __future__ import annotations

import os

# Single-threaded numerics in this process and in every child it starts;
# set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_SAMPLES = 9
# Every run times at least this many jobs, however long they take.
MIN_JOBS = 3
# The job whose time a run reports, counted from the slowest (slow_tail).
SLOW_RANK = 5
CHILD_TIMEOUT_S = 120


def import_library() -> None:
    """Import gmchaos from this checkout's src, never from anywhere else."""
    if not (SRC / "gmchaos" / "__init__.py").is_file():
        sys.exit(f"error: no gmchaos sources under {SRC}; run from a gmchaos checkout")
    sys.path.insert(0, str(SRC))
    import gmchaos

    if Path(gmchaos.__file__).resolve().parent != SRC / "gmchaos":
        sys.exit(f"error: imported gmchaos from {gmchaos.__file__}, not from {SRC}")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units of one trace mode, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Ledger:
    """Operations attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, name: str, fn):
        """Run fn as one operation; an exception is a failure."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failures.append(f"{name}: {traceback.format_exc()}")
            return None

    def check(self, name: str, gate) -> None:
        """Run a gate as one operation; a returned problem is a failure."""
        problem = self.attempt(name, gate)
        if problem:
            self.failures.append(f"{name}: {problem}")


class ChildPeakRss:
    """Largest summed high-water RSS of this process's live children.

    Pool workers are reaped before run_ensemble returns, so their peaks are
    polled from /proc while they live.  Each poll sums the peaks of the
    children alive at that moment, so pools that follow one another are
    not added up.
    """

    def __init__(self, enabled: bool, interval: float = 0.05):
        # A serial workload has no children; its poll would only contend
        # for the interpreter lock.
        self.enabled = enabled
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def __enter__(self):
        if self.enabled:
            self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        if self.enabled:
            self._thread.join()

    def _poll(self) -> None:
        while not self._stop.wait(self.interval):
            pids = []
            for task in Path("/proc/self/task").glob("*/children"):
                try:
                    pids += task.read_text().split()
                except OSError:  # the thread ended since the listing
                    continue
            self.peak_kb = max(self.peak_kb, sum(_high_water_kb(pid) for pid in pids))


def _high_water_kb(pid: str) -> int:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:  # the child exited since the listing
        return 0
    return next((int(ln.split()[1]) for ln in status.splitlines() if ln.startswith("VmHWM:")), 0)


def machine_record(seed: int) -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            names = (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
            model = next(names, "")
    except OSError:
        pass
    llc = ""
    levels = list(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/level"))
    if levels:
        top = max(levels, key=lambda p: int(p.read_text()))
        llc = f"L{top.read_text().strip()} {(top.parent / 'size').read_text().strip()}"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "llc": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "seed": seed,
        "start_method": multiprocessing.get_start_method(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _commit() -> str:
    # Read from the checkout's own .git only; an exported tree has none.
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        return (git / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        return "unknown"


def setup_seconds(workload: str) -> list[float]:
    """Set-up times measured in fresh interpreters (see setup_probe.py)."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def slow_tail(times: list[float]) -> float:
    """The fifth-slowest per-job time: the time all but four jobs beat.

    Not the median: a shared host runs at a base speed with bursts of up to
    1.8x that last seconds to minutes, and a run's median follows whichever
    state covers most of it.  Nearly every run holds some jobs at base
    speed, which its slow tail finds.  The fifth-slowest rather than the
    slowest, so that a few stalled jobs do not set the figure (NOTES.md).
    """
    return sorted(times)[-min(SLOW_RANK, len(times))]


def ipc_bytes(workload, record, replicas: int) -> int:
    """Computed: pickled size of the replica records one pooled ensemble
    returns from its workers (executor framing not counted)."""
    if not workload.pooled:
        return 0
    return sum(len(pickle.dumps(replace(record, replica=i))) for i in range(replicas))


def run(workload_name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    """One benchmark run; returns (metric values, record, tracer or None)."""
    import tracer as tr
    import workloads as w

    workload = w.WORKLOADS[workload_name]
    ledger = Ledger()
    record = {"machine": machine_record(seed), "workload": workload_name, "trace": int(trace)}
    setup_runs = [] if trace else setup_seconds(workload_name)

    tracer = tr.Tracer()
    if trace:
        tracer.install()
    try:
        with tracer.root("bench.setup"):
            first = w.setup(workload)
    finally:
        tracer.uninstall()

    # Timed phase: closed loop, one job after the other, tracing off.
    seeds = workload.job_seeds(seed)
    # One untimed job first, so that no timed job pays for warming up.
    warm = ledger.attempt("warm-up job", lambda: w.run_job(workload, next(seeds), workdir))
    jobs = []
    attempts = 0
    with ChildPeakRss(enabled=workload.pooled) as children:
        t0 = perf_counter()
        while attempts < max(MIN_JOBS, workload.trace_jobs) or perf_counter() - t0 < seconds:
            attempts += 1
            job_seed = next(seeds)
            job = ledger.attempt(f"job {job_seed}", lambda: w.run_job(workload, job_seed, workdir))
            if job is not None:
                jobs.append(job)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children.peak_kb
    if not jobs:
        raise RuntimeError("every job failed:\n" + "\n".join(ledger.failures))

    # Traced phase: the first jobs again, same seeds, every boundary wrapped.
    traced = []
    if trace:
        tracer.install()
        try:
            for job in jobs[: workload.trace_jobs]:
                with tracer.root("bench.job"):
                    again = ledger.attempt(
                        f"traced job {job.seed}", lambda: w.run_job(workload, job.seed, workdir)
                    )
                if again is not None:
                    traced.append(again)
        finally:
            tracer.uninstall()

    checked = jobs + traced + ([warm] if warm is not None else [])
    for job in checked:
        ledger.check(f"gate fits {job.seed}", lambda: w.gate_fits(job))
        ledger.check(f"gate round_trip {job.seed}", lambda: w.gate_round_trip(job))
    ledger.check("gate unit_mass", lambda: w.gate_unit_mass(checked))
    if workload.pooled and jobs:
        ledger.check(
            "gate worker_identity", lambda: w.gate_worker_identity(workload, jobs[0].seed, workdir)
        )

    record["jobs"] = [
        {"seed": j.seed, "ensemble_s": j.ensemble_s, "wall_s": j.wall_s, **j.fits} for j in jobs
    ]
    record["failures"] = ledger.failures
    if trace:
        metrics = tr.layer_metrics(tracer)
        metrics["harness.archive_bytes"] = sum(j.archive.stat().st_size for j in traced)
        metrics["harness.ipc_bytes"] = len(traced) * ipc_bytes(workload, first, workload.replicas)
        # Against the untraced median, which a slow first job cannot skew.
        untraced = statistics.median(j.wall_s for j in jobs)
        metrics["trace.overhead_s"] = sum(j.wall_s - untraced for j in traced)
        metrics["error_rate"] = len(ledger.failures) / ledger.attempted
        record["traced_jobs_wall_s"] = [j.wall_s for j in traced]
        expected = [b.name for b in tracer.boundaries if b.name not in workload.skips]
        record["zero_call_boundaries"] = tracer.zero_call_boundaries(expected)
    else:
        metrics = {
            "replicas_per_s": workload.replicas / slow_tail([j.ensemble_s for j in jobs]),
            "wall_s": slow_tail([j.wall_s for j in jobs]),
            "setup_s": statistics.median(setup_runs),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        record["setup_runs_s"] = setup_runs
    record["attempted"] = ledger.attempted
    record["failed"] = len(ledger.failures)
    return metrics, record, tracer if trace else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    units = declared_metrics(bool(args.trace))
    workroot = HERE / ".work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workroot))
    try:
        metrics, record, _ = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:  # another run still uses it
            pass
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} not as in BENCHMARK.json")
    for name in record.get("zero_call_boundaries", ()):
        print(f"warning: boundary {name} recorded no call on {args.workload}", file=sys.stderr)
    for failure in record["failures"]:
        print(f"failure: {failure}", file=sys.stderr)
    print(json.dumps(record))
    result = {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
