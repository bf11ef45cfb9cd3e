"""Per-cell observability capture for the parallel sweep runner.

Ambient ``--trace`` / ``--profile`` / ``--metrics`` scopes are
process-global: a ``ProcessPoolExecutor`` worker never sees the parent's
``use_tracer`` default (spawn) or sees a stale copy pointing at the
parent's open file (fork) — either way records were silently lost or
corrupted.  This module makes capture *explicit and serializable*
instead:

1. the parent derives a :class:`CaptureConfig` from its ambient scopes
   (:meth:`CaptureConfig.from_ambient`),
2. :func:`repro.runner.cells.execute_cell` runs the cell inside
   :func:`capture_cell`, which shadows every ambient scope with
   process-local collectors and seals a plain-data :class:`CellMetrics`,
3. the parent replays each cell's payload — in submit order — into its
   own live scopes via :func:`replay_payload`.

Because the capture path is identical inline and in a worker, ``--jobs
N`` reproduces the ``--jobs 1`` record stream exactly, and a payload
served from the result cache replays the same way a fresh one does.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterator, List, Optional

from ..sim.trace import RecordingTracer, default_tracer, use_tracer
from .metrics import MetricsRegistry, ambient_metrics_registry, use_metrics

__all__ = ["CaptureConfig", "CellMetrics", "capture_cell", "replay_payload"]


@dataclass(frozen=True)
class CaptureConfig:
    """Which observability channels a cell run must collect.

    Plain data (picklable, JSON-able) so it crosses the process boundary
    with the cell and participates in the cache key — a captured result
    and an uncaptured one are different cache entries.
    """

    #: Collect the full trace-record stream (``--trace``).
    trace: bool = False
    #: Collect a per-cell :class:`~repro.obs.metrics.MetricsRegistry`
    #: snapshot (``--metrics``).
    metrics: bool = False
    #: Collect per-job simulator self-profile samples (``--profile``).
    profile: bool = False

    def __bool__(self) -> bool:
        return self.trace or self.metrics or self.profile

    def to_dict(self) -> Dict[str, bool]:
        return {"trace": self.trace, "metrics": self.metrics,
                "profile": self.profile}

    @classmethod
    def from_dict(cls, data: Dict[str, bool]) -> "CaptureConfig":
        return cls(trace=bool(data.get("trace")),
                   metrics=bool(data.get("metrics")),
                   profile=bool(data.get("profile")))

    @classmethod
    def from_ambient(cls) -> "CaptureConfig":
        """Derive the capture the calling process's live scopes need."""
        from ..bench.profile import ACTIVE_PROFILES  # lazy: bench imports runner

        return cls(
            trace=default_tracer().enabled,
            metrics=ambient_metrics_registry() is not None,
            profile=bool(ACTIVE_PROFILES),
        )


@dataclass
class CellMetrics:
    """Serializable observability payload of one executed cell."""

    #: Trace records as plain dicts (``{"t", "type", ...fields}``).
    records: Optional[List[Dict[str, Any]]] = None
    #: Per-cell metrics snapshot (:meth:`MetricsRegistry.snapshot`).
    metrics: Optional[Dict[str, Any]] = None
    #: Per-job self-profile samples (:class:`repro.bench.profile.JobSample`
    #: fields; ``wall_time_s`` reflects the *original* execution when the
    #: payload is served from the cache).
    profile: Optional[List[Dict[str, Any]]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"records": self.records, "metrics": self.metrics,
                "profile": self.profile}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellMetrics":
        return cls(records=data.get("records"), metrics=data.get("metrics"),
                   profile=data.get("profile"))


class _CellCapture:
    """Live collectors for one cell run (sealed into :class:`CellMetrics`)."""

    def __init__(
        self,
        config: CaptureConfig,
        recorder: Optional[RecordingTracer],
        registry: Optional[MetricsRegistry],
        samples: Optional[List[Dict[str, Any]]],
    ):
        self.config = config
        self.recorder = recorder
        self.registry = registry
        self.samples = samples

    def seal(self) -> Dict[str, Any]:
        records = None
        if self.recorder is not None:
            records = [
                {"t": r.t, "type": r.type, **r.data}
                for r in self.recorder.records
            ]
        return CellMetrics(
            records=records,
            metrics=self.registry.snapshot() if self.registry is not None else None,
            profile=self.samples,
        ).to_dict()


@contextlib.contextmanager
def capture_cell(config: CaptureConfig) -> Iterator[_CellCapture]:
    """Run a cell body under process-local collectors.

    Every ambient scope is shadowed for the duration — the inherited
    tracer (possibly the parent's open trace file, under fork), the
    ambient metrics registry, and the job-observer list — so capture is
    hermetic: the same cell captures the same payload inline, in a
    worker, or nested under any outer instrumentation.
    """
    from ..bench.profile import JobSample  # lazy: bench imports runner
    from ..mpi.job import JOB_OBSERVERS  # lazy: keep worker imports cheap

    recorder = RecordingTracer() if config.trace else None
    registry = MetricsRegistry() if config.metrics else None
    samples: Optional[List[Dict[str, Any]]] = [] if config.profile else None

    def observe(job, result) -> None:
        samples.append(asdict(JobSample.from_job(job, result)))

    saved_observers = JOB_OBSERVERS[:]
    JOB_OBSERVERS[:] = [observe] if samples is not None else []
    try:
        with use_tracer(recorder), use_metrics(registry):
            yield _CellCapture(config, recorder, registry, samples)
    finally:
        JOB_OBSERVERS[:] = saved_observers


def replay_payload(payload: Optional[Dict[str, Any]]) -> None:
    """Feed one sealed :class:`CellMetrics` payload into the calling
    process's live scopes: records into the ambient tracer, the metrics
    snapshot into the ambient registry, profile samples into every
    active :class:`~repro.bench.profile.SelfProfile`."""
    if not payload:
        return
    tracer = default_tracer()
    if tracer.enabled:
        for rec in payload.get("records") or []:
            data = {k: v for k, v in rec.items() if k not in ("t", "type")}
            tracer.emit(rec["t"], rec["type"], **data)
    snap = payload.get("metrics")
    if snap:
        registry = ambient_metrics_registry()
        if registry is not None:
            registry.merge_snapshot(snap)
    samples = payload.get("profile")
    if samples:
        from ..bench.profile import ACTIVE_PROFILES, JobSample

        for profile in list(ACTIVE_PROFILES):
            for sample in samples:
                profile.add_sample(JobSample(**sample))
