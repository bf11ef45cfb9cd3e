"""repro.obs — the unified observability layer.

The paper's evaluation lives and dies by fine-grained timelines: which
cores sit in which P/T-state when, where slack accrues, where network
contention bites (PAPER.md §V–VI).  ``repro.obs`` gathers the
instrumentation behind ``--trace``, ``--metrics`` and ``--profile``;
every sink reaches a simulation as an argument, never from a
module-level scope:

:mod:`~repro.obs.metrics`
    :class:`MetricsRegistry` — counters, gauges and sim-clock-sampled
    time-series aggregates, fed from the SimSession trace-hook bus by a
    :class:`MetricsTracer` passed as (or teed into) the session's
    tracer.  A session built without one pays nothing.
:mod:`~repro.obs.chrome`
    A Chrome trace-event (``chrome://tracing`` / Perfetto) exporter that
    turns flow/core/power/fault trace records into per-rank duration
    slices and counter tracks (CLI: ``repro trace-export``).
:mod:`~repro.obs.capture`
    Per-cell capture for the sweep runner: :func:`execute_cell` seals a
    serializable :class:`CellMetrics`, and ``run_cells`` replays the
    payloads into its sinks in input order, so ``--jobs N``
    observability output is byte-identical to ``--jobs 1`` — and
    survives the result cache.

Use::

    from repro import SimSession, run_collective_once
    from repro.obs import MetricsRegistry, MetricsTracer

    registry = MetricsRegistry()
    session = SimSession(tracer=MetricsTracer(registry))
    run_collective_once("alltoall", 1 << 20, session=session)
    print(registry.snapshot()["counters"]["net.flows_started"])
"""

from .capture import CaptureConfig, CellCapture, CellMetrics, replay_payload
from .chrome import chrome_trace, export_chrome_trace, read_jsonl_records
from .metrics import MetricsRegistry, MetricsTracer, SeriesStats

__all__ = [
    "CaptureConfig",
    "CellCapture",
    "CellMetrics",
    "MetricsRegistry",
    "MetricsTracer",
    "SeriesStats",
    "chrome_trace",
    "export_chrome_trace",
    "read_jsonl_records",
    "replay_payload",
]
