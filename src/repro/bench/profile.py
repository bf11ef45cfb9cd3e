"""Wall-clock self-profile of the simulator.

The ROADMAP's bar is "as fast as the hardware allows", so the bench layer
needs to see how fast the *simulator itself* runs, not just the simulated
timings it reports.  :class:`SelfProfile` hooks
:data:`repro.mpi.job.JOB_OBSERVERS` and aggregates, per completed job:

* host wall-clock seconds spent inside ``MpiJob.run``,
* kernel events processed (and the derived events/second rate),
* fabric re-rating effort (water-filling calls × flows covered — the
  number the incremental re-rater shrinks).

Use as a context manager::

    with SelfProfile() as prof:
        run_experiment(...)
    print(prof.report())

The CLI exposes it as ``python -m repro experiment <name> --profile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

from ..mpi.job import JOB_OBSERVERS

#: Profiles currently inside their ``with`` block.  The sweep runner
#: replays worker-captured samples into these (pool workers never fire
#: the parent's :data:`JOB_OBSERVERS`), and
#: :meth:`repro.obs.capture.CaptureConfig.from_ambient` keys off it.
ACTIVE_PROFILES: List["SelfProfile"] = []


def _remove_identity(seq: List, item) -> None:
    """Drop the last entry that *is* ``item`` (no-op when absent).

    ``list.remove`` compares by equality — bound methods of different
    instances are unequal, but re-entering the *same* profile creates
    equal-yet-distinct method objects and equality removal can then pull
    out the wrong registration.  Identity + last-occurrence gives strict
    LIFO unwinding and tolerates an entry someone else already removed.
    """
    for i in range(len(seq) - 1, -1, -1):
        if seq[i] is item:
            del seq[i]
            return


@dataclass
class JobSample:
    """Self-profile of one completed job."""

    n_ranks: int
    sim_time_s: float
    wall_time_s: float
    events_processed: int
    rerate_calls: int
    flows_rerated: int

    @classmethod
    def from_job(cls, job, result) -> "JobSample":
        """The sample of one finished ``MpiJob`` run (a JOB_OBSERVERS hook's
        ``(job, result)`` arguments)."""
        return cls(
            n_ranks=job.n_ranks,
            sim_time_s=result.duration_s,
            wall_time_s=result.stats.wall_time_s,
            events_processed=result.stats.events_processed,
            rerate_calls=result.stats.rerate_calls,
            flows_rerated=result.stats.flows_rerated,
        )

    @property
    def events_per_s(self) -> float:
        return self.events_processed / self.wall_time_s if self.wall_time_s > 0 else 0.0


@dataclass
class SelfProfile:
    """Collects :class:`JobSample` s for every job run while active."""

    samples: List[JobSample] = field(default_factory=list)
    #: Observer tokens pushed by __enter__, popped by __exit__ (a stack,
    #: so re-entrant use of one instance unwinds correctly).
    _tokens: List[Callable] = field(default_factory=list, init=False, repr=False)

    def _observe(self, job, result) -> None:
        self.add_sample(JobSample.from_job(job, result))

    def add_sample(self, sample: JobSample) -> None:
        """Record one job sample (direct observation or runner replay)."""
        self.samples.append(sample)

    def __enter__(self) -> "SelfProfile":
        # Bind the method ONCE and remember the exact object appended:
        # each `self._observe` access builds a fresh (equal but distinct)
        # bound method, so exit-time removal must go by identity.
        token = self._observe
        self._tokens.append(token)
        JOB_OBSERVERS.append(token)
        ACTIVE_PROFILES.append(self)
        return self

    def __exit__(self, *exc) -> None:
        token = self._tokens.pop() if self._tokens else None
        try:
            if token is not None:
                _remove_identity(JOB_OBSERVERS, token)
        finally:
            # Deregister from the replay list even if the observer list
            # was concurrently mutated/raised — a leaked entry here would
            # keep feeding a dead profile forever.
            _remove_identity(ACTIVE_PROFILES, self)

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
            return "self-profile: no jobs ran"
        wall = self.total_wall_s
        events = self.total_events
        rate = events / wall if wall > 0 else 0.0
        lines = [
            "self-profile:",
            f"  jobs run            : {len(self.samples)}",
            f"  simulator wall time : {wall:.3f} s",
            f"  kernel events       : {events:,} ({rate:,.0f} events/s)",
            f"  rerate calls        : {sum(s.rerate_calls for s in self.samples):,}",
            f"  flows re-rated      : {self.total_flows_rerated:,}",
        ]
        slowest = max(self.samples, key=lambda s: s.wall_time_s)
        lines.append(
            f"  slowest job         : {slowest.n_ranks} ranks, "
            f"{slowest.wall_time_s:.3f} s wall for {slowest.sim_time_s:.4f} s "
            "simulated"
        )
        return "\n".join(lines)
