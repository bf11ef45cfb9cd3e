"""Cluster-wide power-budget arbiter (Medhat et al., arXiv:1410.6824).

The governor (:mod:`.governor`) saves power *per rank* inside one
collective; the arbiter is the cluster-scale dual: a global power cap is
split into per-node budgets, and every node is held to its budget by
clamping its DVFS point — the highest P-state whose *modeled* node draw
(node base + all cores polling at T0) fits the budget.  Two policies:

``uniform``
    Static equal split: every node gets ``cap / n_nodes`` forever.  This
    is the RAPL-style baseline redistribution is measured against.

``redistribute``
    Slack-driven budget shifting.  The arbiter keeps its own
    :class:`~repro.runtime.slack.SlackMonitor`, fed by the MPI layer's
    wait sites (see ``RankContext._wait``).  On every tick, nodes whose
    mean per-core wait EWMA exceeds ``slack_threshold_s`` — and nodes
    hosting no ranks at all — become *donors*: their budget falls to
    their fmin demand, and the freed headroom is split equally among the
    remaining (critical-path) nodes.  Slack-rich communication-bound
    jobs therefore release power that compute-bound co-scheduled jobs
    spend on higher frequencies, exactly the Medhat et al. mechanism.

Actuation is out-of-band (firmware power-controller style): budget
enforcement flips node frequency at tick time without charging a rank
Odvfs — the performance cost reaches the workload through
``Core.speed_factor`` and the NIC rating, which follows the node's mean
core frequency (``IBNetwork.dvfs_changed``).  When a governor runs under
an arbiter, the governor's own actuations still pay their transition
penalties; the arbiter only moves the ceiling.

Termination contract: ``Environment.run()`` drains the queue completely,
so a naively self-re-arming periodic timer would never let a simulation
end.  The tick timer arms only while launched jobs still have unfinished
ranks (:meth:`PowerArbiter.job_started` / :meth:`rank_finished`) and the
pending timer is cancelled when the last rank finishes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..cluster.cpu import Activity
from .slack import SlackMonitor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.events import Timer
    from ..sim.session import SimSession

__all__ = [
    "ArbiterConfig",
    "ArbiterPolicy",
    "ArbiterReport",
    "PowerArbiter",
]


class ArbiterPolicy(enum.Enum):
    """How the global cap is split into per-node budgets."""

    UNIFORM = "uniform"
    REDISTRIBUTE = "redistribute"


@dataclass(frozen=True)
class ArbiterConfig:
    """Tunables of the cluster power arbiter (plain-data round-trippable,
    so a sweep cell can carry it across a process boundary and into a
    cache key, like :class:`~repro.runtime.governor.GovernorConfig`)."""

    policy: ArbiterPolicy = ArbiterPolicy.UNIFORM
    #: Cluster-wide cap in watts (modeled draw; must be > 0).
    power_cap_w: float = 0.0
    #: Budget re-evaluation period for the redistribute policy.
    interval_s: float = 500e-6
    #: Mean per-core wait EWMA above which a node donates headroom.
    slack_threshold_s: float = 200e-6
    #: EWMA smoothing for the arbiter's own slack monitor.
    ewma_alpha: float = 0.25

    def __post_init__(self) -> None:
        if self.power_cap_w <= 0:
            raise ValueError("power_cap_w must be > 0 (watts)")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if self.slack_threshold_s <= 0:
            raise ValueError("slack_threshold_s must be > 0")

    def to_dict(self) -> dict:
        return {
            "policy": self.policy.value,
            "power_cap_w": self.power_cap_w,
            "interval_s": self.interval_s,
            "slack_threshold_s": self.slack_threshold_s,
            "ewma_alpha": self.ewma_alpha,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ArbiterConfig":
        kwargs = dict(data)
        if "policy" in kwargs:
            kwargs["policy"] = ArbiterPolicy(kwargs["policy"])
        return cls(**kwargs)


@dataclass
class ArbiterReport:
    """Per-run arbiter telemetry (plain counters; JSON-able)."""

    policy: str = "uniform"
    power_cap_w: float = 0.0
    ticks: int = 0
    #: Ticks whose budget vector differed from the previous one.
    rebalances: int = 0
    #: Node-level frequency clamps actually applied (state changes).
    freq_changes: int = 0
    #: Peak number of simultaneous donor nodes seen on any tick.
    donors_peak: int = 0
    #: Time-integral of headroom moved from donors to critical nodes (J):
    #: ``sum over ticks of donated_w * interval``.
    donated_j: float = 0.0
    #: Smallest / largest per-node budget ever assigned (W).
    min_budget_w: float = 0.0
    max_budget_w: float = 0.0

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "power_cap_w": self.power_cap_w,
            "ticks": self.ticks,
            "rebalances": self.rebalances,
            "freq_changes": self.freq_changes,
            "donors_peak": self.donors_peak,
            "donated_j": self.donated_j,
            "min_budget_w": self.min_budget_w,
            "max_budget_w": self.max_budget_w,
        }

    def one_line(self) -> str:
        """Terse summary for CLI output."""
        return (
            f"arbiter[{self.policy} @ {self.power_cap_w:g} W]: "
            f"{self.ticks} ticks, {self.rebalances} rebalances, "
            f"{self.freq_changes} node freq changes, "
            f"{self.donated_j:.1f} J donated"
        )


class PowerArbiter:
    """Session-wide budget enforcement over the per-core power model.

    Lifecycle mirrors the governor: construct with an
    :class:`ArbiterConfig`, :meth:`bind` to a session (the session does
    this when it owns the arbiter), then jobs notify
    :meth:`job_started` / :meth:`rank_finished` and the MPI wait sites
    feed :meth:`record_wait`.  :meth:`finish_run` seals the report.
    """

    def __init__(self, config: ArbiterConfig):
        self.config = config
        self.monitor = SlackMonitor(alpha=config.ewma_alpha)
        self.session: Optional["SimSession"] = None
        self._timer: Optional["Timer"] = None
        self._active_ranks = 0
        #: node_id -> number of ranks placed there (by job_started).
        self._node_ranks: Dict[int, int] = {}
        #: node_id -> core ids on that node (for the slack mean).
        self._node_cores: Dict[int, List[int]] = {}
        #: node_id -> last enforced budget (W); None before first tick.
        self._budgets: Optional[List[float]] = None
        # Telemetry.
        self.ticks = 0
        self.rebalances = 0
        self.freq_changes = 0
        self.donors_peak = 0
        self.donated_j = 0.0
        self.min_budget_w = float("inf")
        self.max_budget_w = 0.0

    # -- wiring -------------------------------------------------------------
    def bind(self, session: "SimSession") -> None:
        """Attach to a session's substrate (idempotent for the same one)."""
        if self.session is session:
            return
        if self.session is not None:
            raise ValueError("a PowerArbiter can only bind to one SimSession")
        self.session = session
        self.env = session.env
        self.net = session.net
        self.power_model = session.power_model
        self.cluster = session.cluster
        for node in self.cluster.nodes:
            self._node_ranks.setdefault(node.node_id, 0)
            self._node_cores[node.node_id] = [
                core.core_id for socket in node.sockets for core in socket.cores
            ]
        # Precompute the node demand curve: modeled draw of one node with
        # every core polling at T0, per P-state (ascending).  The polling
        # bound is deliberately conservative — budgets never oscillate
        # with activity, which keeps enforcement deterministic and stable.
        cpu = self.cluster.spec.node.cpu
        cores = self.cluster.cores_per_node
        base = self.power_model.params.node_base_w
        self._pstates = list(cpu.pstates_ghz)
        self._demand_w = [
            base
            + cores
            * self.power_model.core_power_for(f, 0, Activity.POLLING)
            for f in self._pstates
        ]

    # -- notification hooks (jobs + MPI wait sites) -------------------------
    def job_started(self, job) -> None:
        """A co-scheduled job launched: register its placement and make
        sure the tick timer runs while anything is active."""
        if self.session is None:  # pragma: no cover - defensive
            raise RuntimeError("bind() the arbiter to a session first")
        self._active_ranks += job.n_ranks
        for rank in range(job.n_ranks):
            node_id = job.affinity.node_of(rank)
            self._node_ranks[node_id] = self._node_ranks.get(node_id, 0) + 1
        # Enforce the cap from t=0 (nodes boot at fmax) and start ticking.
        # A second job launching at the same instant re-kicks: cancel any
        # pending tick first so exactly one timer chain ever runs.
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._tick(kick=True)

    def rank_finished(self) -> None:
        """One rank's program completed; the last one stops the ticks."""
        self._active_ranks -= 1
        if self._active_ranks <= 0 and self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def record_wait(self, core_id: int, seconds: float) -> None:
        """One completed MPI wait (the redistribute policy's slack feed)."""
        self.monitor.record_wait(core_id, seconds)

    # -- budget math --------------------------------------------------------
    def _node_slack_s(self, node_id: int) -> float:
        """Mean wait EWMA over the node's cores (0.0 while unobserved)."""
        total = 0.0
        cores = self._node_cores[node_id]
        for core_id in cores:
            ewma = self.monitor.mean_wait_s(core_id)
            if ewma is not None:
                total += ewma
        return total / len(cores) if cores else 0.0

    def _compute_budgets(self) -> tuple:
        """Per-node budget vector (W) under the configured policy.

        Returns ``(budgets, donors)``.  The invariant both policies keep:
        ``sum(budgets) <= power_cap_w`` whenever the cap is feasible at
        all (a cap below ``n_nodes * fmin demand`` is clamped to fmin
        everywhere — the hardware floor).
        """
        n = self.cluster.n_nodes
        share = self.config.power_cap_w / n
        if self.config.policy is ArbiterPolicy.UNIFORM:
            return [share] * n, []
        floor = self._demand_w[0]  # fmin demand: what a donor keeps
        donors = [
            node_id
            for node_id in range(n)
            if self._node_ranks.get(node_id, 0) == 0
            or self._node_slack_s(node_id) >= self.config.slack_threshold_s
        ]
        if not donors or len(donors) == n:
            # Nothing to shift (no slack signal yet, or everyone idles):
            # fall back to the uniform split.
            return [share] * n, donors if len(donors) == n else []
        donated = max(0.0, share - floor) * len(donors)
        bonus = donated / (n - len(donors))
        donor_set = set(donors)
        budgets = [
            floor if node_id in donor_set else share + bonus
            for node_id in range(n)
        ]
        return budgets, donors

    def _clamp_freq(self, budget_w: float) -> float:
        """Highest P-state whose modeled node demand fits ``budget_w``
        (fmin when even the floor exceeds the budget — hardware floor)."""
        best = self._pstates[0]
        for freq, demand in zip(self._pstates, self._demand_w):
            if demand <= budget_w:
                best = freq
        return best

    # -- the tick -----------------------------------------------------------
    def _tick(self, kick: bool = False) -> None:
        """Recompute budgets, enforce them, and re-arm while active."""
        self._timer = None
        now = self.env.now
        budgets, donors = self._compute_budgets()
        self.ticks += 1
        changed = budgets != self._budgets
        if changed:
            if self._budgets is not None:
                self.rebalances += 1
            self.min_budget_w = min(self.min_budget_w, min(budgets))
            self.max_budget_w = max(self.max_budget_w, max(budgets))
        self.donors_peak = max(self.donors_peak, len(donors))
        if donors:
            share = self.config.power_cap_w / self.cluster.n_nodes
            donated_w = sum(max(0.0, share - budgets[d]) for d in donors)
            self.donated_j += donated_w * self.config.interval_s
        if changed:
            for node in self.cluster.nodes:
                target = self._clamp_freq(budgets[node.node_id])
                if node.sockets[0].cores[0].frequency_ghz != target:
                    for socket in node.sockets:
                        socket.set_frequency(target, now)
                    self.net.dvfs_changed(node.node_id)
                    self.freq_changes += 1
            self._budgets = budgets
        tracer = self.session.tracer if self.session is not None else None
        if tracer is not None and tracer.enabled:
            # Observes only (marks never steer): timelines stay identical
            # with tracing on or off.
            tracer.mark(
                now, "arbiter.tick",
                cap_w=self.config.power_cap_w,
                budget_w=sum(budgets),
                donors=len(donors),
            )
        if self._active_ranks > 0 or kick:
            # Uniform budgets are static: enforcing once at kick time is
            # enough, so only the redistribute policy keeps ticking.
            if self.config.policy is ArbiterPolicy.REDISTRIBUTE:
                self._timer = self.env.call_at(
                    now + self.config.interval_s, lambda t: self._tick()
                )

    # -- reporting ----------------------------------------------------------
    def finish_run(self) -> ArbiterReport:
        """Seal the run: stop the tick timer and return the report."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        return self.report()

    def report(self) -> ArbiterReport:
        return ArbiterReport(
            policy=self.config.policy.value,
            power_cap_w=self.config.power_cap_w,
            ticks=self.ticks,
            rebalances=self.rebalances,
            freq_changes=self.freq_changes,
            donors_peak=self.donors_peak,
            donated_j=self.donated_j,
            min_budget_w=0.0 if self.min_budget_w == float("inf")
            else self.min_budget_w,
            max_budget_w=self.max_budget_w,
        )
