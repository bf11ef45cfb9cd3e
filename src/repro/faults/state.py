"""Runtime fault injection: binds a :class:`FaultPlan` to one session.

A :class:`FaultState` is built by :class:`~repro.sim.session.SimSession`
(never shared between sessions): it resolves the plan's fractions into
concrete victim sets, precomputes the full link-event schedule, and arms
one cancellable timer per event.  The injection paths are:

* **Link events** — each event flips a multiplicative ``fault_factor``
  on the victim node's ``nic_up``/``nic_dn`` links and calls
  ``fabric.capacities_changed([links])``, so only the affected
  connected component is re-rated (the same incremental path DVFS
  transitions take).  Factors stack as an explicit list per link and the
  product is recomputed on every change, so when the last window closes
  the factor is *exactly* 1.0 again — no float drift.
* **Compute perturbation** — :meth:`perturb_compute` is consulted by
  ``RankContext.compute`` (and therefore every application kernel):
  straggler victims pay a multiplier, OS-noise victims accrue one pulse
  per noise period of compute.
* **Transition jitter** — :meth:`dvfs_latency_s` /
  :meth:`throttle_latency_s` replace the spec's constant transition
  latencies with a per-core seeded draw; both the MPI power-management
  calls and the governor's actuation paths consult them.

Determinism: victim sets and link schedules are fixed at construction
from tagged substreams of the plan's seed; per-core jitter streams are
consumed in the core's own (deterministic) actuation order.  With the
same plan, two runs perturb — and therefore simulate — identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from .plan import (
    FaultPlan,
    FaultSpecError,
    LinkDegrade,
    LinkFlap,
    OsNoise,
    Straggler,
    TransitionJitter,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random

    from ..cluster.cpu import Core
    from ..network.fabric import Link
    from ..sim.events import Timer
    from ..sim.session import SimSession

__all__ = ["FaultReport", "FaultState"]

#: Backstop against degenerate specs (e.g. a 1 µs flap period over a
#: 1000 s window) arming millions of timers.
_MAX_LINK_EVENTS = 100_000


@dataclass(frozen=True)
class FaultReport:
    """What a bound plan actually did to one run."""

    seed: int
    injectors: str
    link_events: int
    straggler_cores: int
    noise_cores: int
    straggled_calls: int
    noise_pulses: int
    jittered_transitions: int

    def one_line(self) -> str:
        return (
            f"faults[seed={self.seed}]: {self.link_events} link events, "
            f"{self.straggler_cores} straggler cores "
            f"({self.straggled_calls} slowed computes), "
            f"{self.noise_pulses} noise pulses on {self.noise_cores} cores, "
            f"{self.jittered_transitions} jittered transitions"
        )


def _pick(rng: "random.Random", population: List, fraction: float) -> List:
    """At least one victim, deterministically sampled, in stable order."""
    count = max(1, round(fraction * len(population)))
    count = min(count, len(population))
    picked = rng.sample(population, count)
    return sorted(picked, key=population.index)


class FaultState:
    """One session's live injection state (see the module docstring)."""

    def __init__(self, plan: FaultPlan, session: "SimSession"):
        self.plan = plan
        self.session = session
        self.env = session.env
        # -- counters (folded into the report) -----------------------------
        self.link_events = 0
        self.straggled_calls = 0
        self.noise_pulses = 0
        self.jittered_transitions = 0
        # -- compute perturbation state ------------------------------------
        #: core_id → compute-time multiplier (> 1.0 for stragglers).
        self.compute_scale: Dict[int, float] = {}
        self._noise_period: Dict[int, float] = {}
        self._noise_pulse: Dict[int, float] = {}
        #: core_id → compute seconds accrued since the last pulse.
        self._noise_credit: Dict[int, float] = {}
        # -- transition jitter ---------------------------------------------
        jitters = plan.of_type(TransitionJitter)
        self._jitter = jitters[0] if jitters else None
        self._jitter_rng: Dict[int, "random.Random"] = {}
        # -- link events ---------------------------------------------------
        #: link → stack of active capacity factors (product = fault_factor).
        self._active_factors: Dict["Link", List[float]] = {}
        self._timers: List["Timer"] = []
        self._resolve_victims(session.cluster)
        self._schedule_link_events(session.cluster, session.net)
        if self.env.tracer.enabled:
            self.env.tracer.fault(self.env.now, "plan", spec=plan.describe())

    # -- victim resolution --------------------------------------------------
    def _resolve_victims(self, cluster) -> None:
        core_ids = [core.core_id for core in cluster.cores]
        for idx, inj in enumerate(self.plan.of_type(Straggler)):
            rng = self.plan.rng("straggler", idx)
            if inj.scope == "node":
                nodes = _pick(rng, [n.node_id for n in cluster.nodes],
                              inj.fraction)
                victims = [c.core_id for n in nodes
                           for c in cluster.nodes[n].cores]
            else:
                victims = _pick(rng, core_ids, inj.fraction)
            for core_id in victims:
                self.compute_scale[core_id] = (
                    self.compute_scale.get(core_id, 1.0) * inj.multiplier
                )
        for idx, inj in enumerate(self.plan.of_type(OsNoise)):
            rng = self.plan.rng("noise", idx)
            for core_id in _pick(rng, core_ids, inj.core_fraction):
                # Overlapping noise injectors: the denser period wins.
                if (core_id not in self._noise_period
                        or inj.period_s < self._noise_period[core_id]):
                    self._noise_period[core_id] = inj.period_s
                    self._noise_pulse[core_id] = inj.pulse_s
                self._noise_credit.setdefault(core_id, 0.0)

    # -- link-event scheduling ----------------------------------------------
    def _schedule_link_events(self, cluster, net) -> None:
        """Precompute every (time, links, factor, on/off) boundary and arm
        one timer per boundary.  The schedule is finite by construction
        (flap windows are bounded; an infinite degrade never restores)."""
        events: List[Tuple[float, int, Tuple["Link", ...], float, bool]] = []
        order = 0
        node_ids = [n.node_id for n in cluster.nodes]

        def links_of(node_id: int) -> Tuple["Link", ...]:
            return (net.nic_up(node_id), net.nic_dn(node_id))

        for idx, inj in enumerate(self.plan.of_type(LinkDegrade)):
            rng = self.plan.rng("degrade", idx)
            for node_id in _pick(rng, node_ids, inj.node_fraction):
                links = links_of(node_id)
                events.append((inj.start_s, order, links, inj.factor, True))
                order += 1
                end = inj.start_s + inj.duration_s
                if end != float("inf"):
                    events.append((end, order, links, inj.factor, False))
                    order += 1
        for idx, inj in enumerate(self.plan.of_type(LinkFlap)):
            rng = self.plan.rng("flap", idx)
            for node_id in _pick(rng, node_ids, inj.node_fraction):
                links = links_of(node_id)
                horizon = inj.start_s + inj.duration_s
                t = inj.start_s + rng.uniform(0.5, 1.5) * inj.period_s
                while t < horizon:
                    t_up = min(t + inj.down_s, horizon)
                    events.append((t, order, links, inj.factor, True))
                    order += 1
                    events.append((t_up, order, links, inj.factor, False))
                    order += 1
                    t += rng.uniform(0.5, 1.5) * inj.period_s
        if len(events) > _MAX_LINK_EVENTS:
            raise FaultSpecError(
                f"fault plan schedules {len(events)} link events "
                f"(max {_MAX_LINK_EVENTS}); raise the flap period or "
                "shorten the window"
            )
        for when, _, links, factor, begin in sorted(events):
            self._timers.append(self.env.call_at(
                when,
                lambda _timer, links=links, factor=factor, begin=begin:
                    self._link_event(links, factor, begin),
            ))

    def _link_event(self, links: Tuple["Link", ...], factor: float,
                    begin: bool) -> None:
        """Apply/remove one capacity factor and re-rate the component."""
        for link in links:
            stack = self._active_factors.setdefault(link, [])
            if begin:
                stack.append(factor)
            else:
                stack.remove(factor)
            product = 1.0
            for f in stack:
                product *= f
            link.fault_factor = product
        self.link_events += 1
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.fault(
                self.env.now, "link",
                links=[lk.name for lk in links],
                factor=links[0].fault_factor,
            )
        self.session.net.fabric.capacities_changed(links)

    # -- compute perturbation ------------------------------------------------
    def perturb_compute(self, core: "Core", seconds: float) -> float:
        """Fault-adjusted cost (at fmax) of ``seconds`` of work on ``core``."""
        scale = self.compute_scale.get(core.core_id)
        if scale is not None:
            seconds *= scale
            self.straggled_calls += 1
        period = self._noise_period.get(core.core_id)
        if period is not None:
            credit = self._noise_credit[core.core_id] + seconds
            pulses = int(credit / period)
            if pulses:
                credit -= pulses * period
                seconds += pulses * self._noise_pulse[core.core_id]
                self.noise_pulses += pulses
                tracer = self.env.tracer
                if tracer.enabled:
                    tracer.fault(self.env.now, "noise",
                                 core=core.core_id, pulses=pulses)
            self._noise_credit[core.core_id] = credit
        return seconds

    # -- transition-latency jitter -------------------------------------------
    def dvfs_latency_s(self, core: "Core") -> float:
        """This transition's Odvfs for ``core`` (jittered if planned)."""
        return self._jittered(core, core.spec.dvfs_latency_s)

    def throttle_latency_s(self, core: "Core") -> float:
        """This transition's Othrottle for ``core`` (jittered if planned)."""
        return self._jittered(core, core.spec.throttle_latency_s)

    def _jittered(self, core: "Core", base: float) -> float:
        if self._jitter is None:
            return base
        rng = self._jitter_rng.get(core.core_id)
        if rng is None:
            rng = self.plan.rng("jitter", core.core_id)
            self._jitter_rng[core.core_id] = rng
        self.jittered_transitions += 1
        return base * rng.uniform(self._jitter.lo, self._jitter.hi)

    # -- lifecycle -----------------------------------------------------------
    def finish_run(self) -> FaultReport:
        """Cancel pending link timers and return the report."""
        for timer in self._timers:
            if not timer.cancelled and not timer.fired:
                timer.cancel()
        self._timers.clear()
        return self.report()

    def report(self) -> FaultReport:
        return FaultReport(
            seed=self.plan.seed,
            injectors=self.plan.describe(),
            link_events=self.link_events,
            straggler_cores=len(self.compute_scale),
            noise_cores=len(self._noise_period),
            straggled_calls=self.straggled_calls,
            noise_pulses=self.noise_pulses,
            jittered_transitions=self.jittered_transitions,
        )
