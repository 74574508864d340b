"""Span tracing at the module boundaries of gmchaos, from outside the library.

A boundary is a public function replaced, for the duration of a traced
phase, by a wrapper that records one span per call: name, start, end and
the index of the enclosing span.  Each wrapper is installed on the name the
caller looks up (``harness.sample_hierarchy`` is what ``run_replica`` calls,
``sampler.embedding_spectrum`` is what the embedding cache calls), so the
library itself is untouched.  Spans stay in memory; metrics are derived from
them when the run ends.

Only the process that installed the tracer records spans.  Pool workers
forked while it is installed run the wrappers as plain pass-throughs, so a
pooled run sees parent-side spans only.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
from dataclasses import dataclass
from time import perf_counter

from gmchaos import cli, estimators, geometry, harness, measure, rng, sampler, spectral


@dataclass(frozen=True)
class Boundary:
    """One traced entry point: the span name and where the caller finds it."""

    name: str
    module: object
    attr: str
    # Points of the circulant embedding a call colours, from its arguments;
    # only the level sampler has one.
    points: object = None


def _level_points(j, grid, *args, **kwargs) -> int:
    return 2 * grid.size


BOUNDARIES = (
    Boundary("harness.run_ensemble", harness, "run_ensemble"),
    Boundary("harness.run_replica", harness, "run_replica"),
    Boundary("sampler.sample_hierarchy", harness, "sample_hierarchy"),
    Boundary("sampler.sample_level", sampler, "sample_level", _level_points),
    Boundary("sampler.embedding", sampler, "embedding_spectrum"),
    Boundary("geometry.level_covariance", geometry, "level_covariance"),
    Boundary("rng.field_stream", rng, "field_stream"),
    Boundary("rng.item_priorities", rng, "item_priorities"),
    Boundary("measure.chaos_density", measure, "chaos_density"),
    Boundary("measure.dyadic_masses", measure, "dyadic_masses"),
    Boundary("spectral.fourier_coefficients", spectral, "fourier_coefficients"),
    Boundary("spectral.martingale_vector", spectral, "martingale_vector"),
    Boundary("harness.merge_results", harness, "merge_results"),
    Boundary("harness.export_result", harness, "export_result"),
    Boundary("harness.load_result", harness, "load_result"),
    Boundary("estimators.line_fit", estimators, "line_fit"),
    Boundary("estimators.l2_spectrum_slope", estimators, "l2_spectrum_slope"),
    Boundary("cli.cmd_spectrum", cli, "cmd_spectrum"),
    Boundary("cli.cmd_report", cli, "cmd_report"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    points: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs boundary wrappers and keeps the spans they record."""

    def __init__(self, boundaries=BOUNDARIES):
        self.boundaries = tuple(boundaries)
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """Record a span that no boundary wraps around the with-block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, boundary: Boundary, fn):
        tracer, name, points = self, boundary.name, boundary.points

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if points is not None:
                    tracer.spans[idx].points = points(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary; a boundary whose function is gone is noted
        in ``missing`` by name instead of failing the run."""
        self.missing = []
        for b in self.boundaries:
            fn = getattr(b.module, b.attr, None)
            if fn is None:
                self.missing.append(b.name)
                continue
            self._saved.append((b.module, b.attr, fn))
            setattr(b.module, b.attr, self._wrap(b, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # -- derived quantities ------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def _ancestors(self, idx: int):
        """Span idx and every span enclosing it, innermost first."""
        while idx >= 0:
            yield self.spans[idx]
            idx = self.spans[idx].parent

    def within(self, span: Span, prefix: str) -> bool:
        """Whether a span whose name starts with ``prefix`` encloses ``span``."""
        return any(a.name.startswith(prefix) for a in self._ancestors(span.parent))

    def busy(self, prefix: str) -> float:
        """Time with at least one span whose name starts with ``prefix`` open:
        the sum of such spans not nested in another one."""
        outer = (s for s in self.spans if s.name.startswith(prefix) and not self.within(s, prefix))
        return sum((s.duration for s in outer), 0.0)

    def zero_call_boundaries(self, expected) -> list[str]:
        """Names in ``expected`` that recorded no call, missing ones included."""
        seen = {s.name for s in self.spans}
        return [name for name in expected if name not in seen]


def _quantile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer busy times, call counts and computed sampler counts."""
    spans = tracer.spans
    replicas = [s for s in spans if s.name == "harness.run_replica"]
    self_time = tracer.self_times()
    replica_self = sum(t for s, t in zip(spans, self_time) if s.name == "harness.run_replica")
    # The aggregate is what run_ensemble spends outside the replicas it
    # runs itself: singletons, the merge tree and, when pooled, dispatch.
    aggregate = tracer.busy("harness.run_ensemble") - sum(
        r.duration for r in replicas if tracer.within(r, "harness.run_ensemble")
    )
    level_points = sum(s.points for s in spans if s.name == "sampler.sample_level")
    per_replica = max(len(replicas), 1)
    durations_ms = [1e3 * r.duration for r in replicas]
    out = {}
    for name in (
        "sampler.sample_hierarchy",
        "sampler.sample_level",
        "sampler.embedding",
        "rng.field_stream",
        "rng.item_priorities",
        "harness.merge_results",
        "measure.chaos_density",
        "spectral.fourier_coefficients",
    ):
        out[f"{name}_s"] = tracer.busy(name)
        out[f"{name}_calls"] = tracer.calls(name)
    for name in (
        "geometry.level_covariance",
        "measure.dyadic_masses",
        "spectral.martingale_vector",
    ):
        out[f"{name}_s"] = tracer.busy(name)
    # One level call draws 2 x points normals (real and imaginary noise)
    # and runs one complex FFT over the points.
    out["sampler.normals_drawn"] = 2 * level_points / per_replica
    out["sampler.fft_points"] = level_points / per_replica
    out["harness.aggregate_s"] = aggregate
    out["harness.run_replica_ms_p50"] = _quantile(durations_ms, 5)
    out["harness.run_replica_ms_p90"] = _quantile(durations_ms, 9)
    out["harness.run_replica_self_s"] = replica_self
    out["harness.export_s"] = tracer.busy("harness.export_result")
    out["harness.load_s"] = tracer.busy("harness.load_result")
    out["estimators.fit_s"] = tracer.busy("estimators.")
    out["cli.spectrum_s"] = tracer.busy("cli.cmd_spectrum")
    out["cli.report_s"] = tracer.busy("cli.cmd_report")
    return out
