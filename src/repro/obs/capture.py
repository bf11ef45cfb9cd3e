"""Per-cell observability capture for the parallel sweep runner.

The ``--trace`` / ``--metrics`` / ``--profile`` sinks (a tracer, a
:class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.bench.profile.SelfProfile`) live in the calling process,
and a pool worker cannot write into them.  So capture is explicit and
serializable:

1. :func:`repro.runner.run_cells` derives a :class:`CaptureConfig` from
   which sinks it was given,
2. :func:`repro.runner.cells.execute_cell` runs the cell with a
   :class:`CellCapture`, which builds every session the cell needs with
   a tracer of its own collectors and seals a plain-data
   :class:`CellMetrics`,
3. ``run_cells`` replays each cell's payload — in input order — into
   the sinks via :func:`replay_payload`.

Because the capture path is identical inline and in a worker, ``--jobs
N`` reproduces the ``--jobs 1`` record stream exactly, and a payload
served from the result cache replays the same way a fresh one does.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..sim.trace import RecordingTracer, TeeTracer, Tracer
from .metrics import MetricsRegistry, MetricsTracer

__all__ = ["CaptureConfig", "CellCapture", "CellMetrics", "replay_payload"]


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
    #: Collect per-session simulator self-profile samples (``--profile``).
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


@dataclass
class CellMetrics:
    """Serializable observability payload of one executed cell."""

    #: Trace records as plain dicts (``{"t", "type", ...fields}``).
    records: Optional[List[Dict[str, Any]]] = None
    #: Per-cell metrics snapshot (:meth:`MetricsRegistry.snapshot`).
    metrics: Optional[Dict[str, Any]] = None
    #: Per-session self-profile samples (:class:`repro.bench.profile.JobSample`
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


class CellCapture:
    """Live collectors for one cell run (sealed into :class:`CellMetrics`).

    The cell builds its sessions through :meth:`session`, so every one
    of them reports to the cell's collectors and nothing else.
    """

    def __init__(self, config: CaptureConfig):
        self.recorder = RecordingTracer() if config.trace else None
        self.registry = MetricsRegistry() if config.metrics else None
        self.profile = config.profile
        #: (session, wall-clock start) of every session built, in order.
        self._sessions: List[Tuple[Any, float]] = []

    def _tracer(self) -> Optional[Tracer]:
        # One MetricsTracer per session: its derived state (per-core
        # frequency, in-flight flows) tracks one session's clock.
        if self.registry is None:
            return self.recorder
        metrics = MetricsTracer(self.registry)
        if self.recorder is None:
            return metrics
        return TeeTracer([self.recorder, metrics])

    def session(self, **kwargs: Any):
        """A :class:`~repro.sim.session.SimSession` built from ``kwargs``
        that traces into this capture and is profiled until :meth:`seal`."""
        from ..sim.session import SimSession

        t0 = time.perf_counter()
        session = SimSession(tracer=self._tracer(), **kwargs)
        self._sessions.append((session, t0))
        return session

    def seal(self) -> Dict[str, Any]:
        records = None
        if self.recorder is not None:
            records = [
                {"t": r.t, "type": r.type, **r.data}
                for r in self.recorder.records
            ]
        samples = None
        if self.profile:
            from ..bench.profile import JobSample  # lazy: bench imports runner

            end = time.perf_counter()
            samples = [
                asdict(JobSample.from_session(session, end - t0))
                for session, t0 in self._sessions
            ]
        return CellMetrics(
            records=records,
            metrics=self.registry.snapshot() if self.registry is not None else None,
            profile=samples,
        ).to_dict()


def replay_payload(
    payload: Optional[Dict[str, Any]],
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    profile: Optional[Any] = None,
) -> None:
    """Feed one sealed :class:`CellMetrics` payload into the given sinks:
    records into ``tracer``, the metrics snapshot into ``metrics``,
    profile samples into ``profile`` (a
    :class:`~repro.bench.profile.SelfProfile`)."""
    if not payload:
        return
    if tracer is not None and tracer.enabled:
        for rec in payload.get("records") or []:
            data = {k: v for k, v in rec.items() if k not in ("t", "type")}
            tracer.emit(rec["t"], rec["type"], **data)
    snap = payload.get("metrics")
    if snap and metrics is not None:
        metrics.merge_snapshot(snap)
    samples = payload.get("profile")
    if samples and profile is not None:
        from ..bench.profile import JobSample

        profile.samples.extend(JobSample(**sample) for sample in samples)
