"""Per-run governor telemetry.

A :class:`GovernorReport` is the governor's flight recorder: every
actuation (drop, restore, socket throttle, pre-scale), every armed and
cancelled θ timer, the prediction quality of the ``predictive`` policy,
and an estimate of the energy the actuations saved relative to running
the same timeline with no governor.  Reports are JSON-able and exported
through :func:`repro.bench.export.save_governor_json` (the CLI writes
``results/governor.json`` when ``--profile`` is active).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

__all__ = ["GovernorReport", "NON_SUMMABLE_FIELDS", "merge_reports"]

#: Fields that do not sum across runs: configuration (first run's values
#: are kept — one CLI run uses one config) and the per-run monitor
#: detail (replaced by a merge marker).  Every OTHER field is summed by
#: :func:`merge_reports` automatically — adding a counter to
#: :class:`GovernorReport` cannot silently drop it from merged output.
NON_SUMMABLE_FIELDS = frozenset({"policy", "theta_us", "monitor"})


@dataclass
class GovernorReport:
    """Counters and estimates for one governed job run."""

    policy: str = "none"
    theta_us: float = 0.0
    #: Top-level MPI calls and waits the monitor observed.
    calls_observed: int = 0
    waits_observed: int = 0
    total_wait_s: float = 0.0
    #: θ timers armed at wait entry / cancelled because the wait ended first.
    timers_armed: int = 0
    timers_cancelled: int = 0
    #: Cores dropped to the low-power state after θ of continuous wait.
    drops: int = 0
    #: Drops undone at wait exit (paying the transition penalty).
    restores: int = 0
    #: Drops undone *early* because a transfer started toward/from the core
    #: (RDMA needs the endpoint's feed path; see MessageEngine hook).
    traffic_restores: int = 0
    #: Whole-socket T-state actuations (socket-granular hardware).
    socket_throttles: int = 0
    #: Predictive policy: calls pre-scaled to fmin before entry.
    prescales: int = 0
    #: Predictive decisions taken from the analytic model (cold history).
    cold_decisions: int = 0
    #: Pre-scaled calls that turned out too short to amortise transitions.
    mispredictions: int = 0
    #: Calls skipped by the predictor that turned out long enough.
    missed_engagements: int = 0
    #: Simulated seconds spent in restore transitions (the governor's cost).
    penalty_s: float = 0.0
    #: Integrated (power-before − power-during) over every drop interval.
    estimated_saving_j: float = 0.0
    #: Slack monitor snapshot (histogram + per-(op,size) call history).
    monitor: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        # Derived from fields() so a new counter can never be forgotten
        # here (field order == declaration order == export order).
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def one_line(self) -> str:
        """Terse summary for CLI output."""
        return (
            f"governor[{self.policy}]: {self.drops} drops "
            f"({self.traffic_restores} traffic-restored, "
            f"{self.socket_throttles} socket throttles), "
            f"{self.prescales} pre-scales, "
            f"~{self.estimated_saving_j:.1f} J saved, "
            f"{self.penalty_s * 1e6:.0f} us transition penalty"
        )


def merge_reports(reports: List[GovernorReport]) -> Optional[GovernorReport]:
    """Sum counter fields across runs (a CLI experiment runs many jobs).

    The summed set is *derived* from ``dataclasses.fields()`` minus the
    explicit :data:`NON_SUMMABLE_FIELDS` exclusion list — the previous
    hand-maintained sum silently dropped any counter added after it was
    written (``prescales``, ``estimated_saving_j`` and ``penalty_s`` all
    drifted that way at one point or another).  The merged report keeps
    the first run's policy/θ (one CLI run uses one config) and drops
    the per-run monitor detail, which does not merge meaningfully;
    per-run monitors stay available on the individual reports.
    """
    if not reports:
        return None
    merged = GovernorReport(policy=reports[0].policy, theta_us=reports[0].theta_us)
    for f in fields(GovernorReport):
        if f.name in NON_SUMMABLE_FIELDS:
            continue
        setattr(merged, f.name, sum(getattr(r, f.name) for r in reports))
    merged.monitor = {"runs_merged": len(reports)}
    return merged
