"""Wall-clock self-profile of the simulator.

The ROADMAP's bar is "as fast as the hardware allows", so the bench layer
needs to see how fast the *simulator itself* runs, not just the simulated
timings it reports.  :class:`SelfProfile` aggregates one
:class:`JobSample` per simulation session:

* host wall-clock seconds the session took,
* kernel events processed (and the derived events/second rate),
* fabric re-rating effort (water-filling calls × flows covered — the
  number the incremental re-rater shrinks).

The sample unit is the session, not the job: co-scheduled jobs share one
event loop and one fabric, so a session's work is counted once however
many jobs it ran (the report's "sessions run" counts these samples;
every cell kind but ``multijob`` runs one job per session).  The sweep runner
builds the samples from the sessions each cell built and appends them
to the ``profile`` it was given (:func:`repro.runner.run_cells`)::

    prof = SelfProfile()
    run_cells(cells, profile=prof)
    print(prof.report())

The CLI exposes it as ``python -m repro experiment <name> --profile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class JobSample:
    """Self-profile of one simulation session (all jobs it ran)."""

    n_ranks: int
    sim_time_s: float
    wall_time_s: float
    events_processed: int
    rerate_calls: int
    flows_rerated: int

    @classmethod
    def from_session(cls, session, wall_time_s: float) -> "JobSample":
        """The sample of one finished session, ``wall_time_s`` after it
        was built."""
        return cls(
            n_ranks=session.ranks_launched,
            sim_time_s=session.env.now,
            wall_time_s=wall_time_s,
            events_processed=session.env.events_processed,
            rerate_calls=session.net.fabric.rerate_calls,
            flows_rerated=session.net.fabric.flows_rerated,
        )

    @property
    def events_per_s(self) -> float:
        return self.events_processed / self.wall_time_s if self.wall_time_s > 0 else 0.0


@dataclass
class SelfProfile:
    """The :class:`JobSample` s of a run, plus their summary."""

    samples: List[JobSample] = field(default_factory=list)

    # -- aggregates --------------------------------------------------------
    @property
    def total_wall_s(self) -> float:
        return sum(s.wall_time_s for s in self.samples)

    @property
    def total_events(self) -> int:
        return sum(s.events_processed for s in self.samples)

    @property
    def total_flows_rerated(self) -> int:
        return sum(s.flows_rerated for s in self.samples)

    def report(self) -> str:
        """Human-readable summary block."""
        if not self.samples:
            return "self-profile: no sessions ran"
        wall = self.total_wall_s
        events = self.total_events
        rate = events / wall if wall > 0 else 0.0
        lines = [
            "self-profile:",
            f"  sessions run        : {len(self.samples)}",
            f"  simulator wall time : {wall:.3f} s",
            f"  kernel events       : {events:,} ({rate:,.0f} events/s)",
            f"  rerate calls        : {sum(s.rerate_calls for s in self.samples):,}",
            f"  flows re-rated      : {self.total_flows_rerated:,}",
        ]
        slowest = max(self.samples, key=lambda s: s.wall_time_s)
        lines.append(
            f"  slowest session     : {slowest.n_ranks} ranks, "
            f"{slowest.wall_time_s:.3f} s wall for {slowest.sim_time_s:.4f} s "
            "simulated"
        )
        return "\n".join(lines)
