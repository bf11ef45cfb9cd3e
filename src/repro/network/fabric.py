"""Flow-level network fabric with max-min fair bandwidth sharing.

Every bulk transfer is a :class:`Flow` across an ordered set of
:class:`Link` s (e.g. source NIC uplink → destination NIC downlink; or the
node's memory link for shared-memory copies).  Whenever the flow population
or a link capacity changes, flow rates are recomputed with the classic
max-min water-filling algorithm (respecting per-flow caps, which model the
sending CPU's pipeline feed limit).

Re-rating is *incremental*: the fabric keeps a link → flows index and,
when a flow arrives/finishes or a link's capacity moves, re-runs
water-filling only over the affected **connected component** — the flows
transitively sharing links with a changed link.  Components share no
links, so their allocations are independent and the untouched ones keep
their rates (this is exact, not an approximation).  Byte progress is
settled lazily per flow (each flow remembers when its rate last changed).

Two kernels implement this contract (DESIGN.md §12):

* ``repro.network.kernel.VectorFabric`` — the production kernel, which
  :class:`~repro.network.ibnet.IBNetwork` builds: flow state lives in
  slot-addressed numpy arrays, same-timestamp admissions are batched
  into one deferred water-filling flush, and the single wake-up timer is
  armed from an ``argmin`` over a persistent finish-time vector instead
  of per-flow heap pushes.
* :class:`ScalarFabric` — the reference object-graph implementation:
  per-flow completion predictions on a min-heap guarded by per-flow
  epochs, one re-rate per fabric event.  Tests and benchmarks construct
  it directly as the differential-testing oracle
  (``tests/network/test_fabric_vectorized.py``); the whole-fabric
  recompute baseline ``benchmarks/bench_kernel_scaling.py`` measures
  against is a test-side subclass of it (``tests/oracles.py``).

Both produce identical per-flow rates and completion times.  To make
that equality exact (not approximate), every floating-point fold both
kernels share is performed in one canonical order: components are walked
in flow-admission (``seq``) order, water-filling subtracts each link's
frozen demand as a single summed delta, and due completions are
processed in ``(finish, seq)`` order.

This is where the paper's contention parameter ``Cnet`` comes from in our
reproduction: it is *emergent* — eight ranks per node draining through one
QDR HCA simply share 3 GB/s — rather than a fitted constant.
"""

from __future__ import annotations

import heapq
import math
import operator
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim import Environment, Event
from ..sim.events import Timer
from .params import NetworkSpec

#: Residual bytes below which a flow is considered complete (far smaller
#: than any datatype we transfer).
_EPSILON_BYTES = 0.5

#: Tight-link detection tolerance for water-filling: a link is at the
#: current water level when its fair share ``s`` satisfies
#: ``s <= max(level·(1+REL), level + ABS)``.  The relative term absorbs
#: accumulated rounding at physical bandwidths; the absolute term keeps
#: equal-share links tie-breaking consistently when the level itself is
#: ~0 (heavily faulted links), where a purely relative tolerance
#: degenerates to exact comparison.  ABS is far below any physically
#: meaningful rate (1e-24 B/s ≈ one byte per 3e7 ages of the universe).
_TIGHT_REL = 1e-12
_TIGHT_ABS = 1e-24

_seq_of = operator.attrgetter("seq")


def _tight_limit(level: float) -> float:
    """Shares at or below this value count as tight at ``level``."""
    rel = level * (1.0 + _TIGHT_REL)
    ab = level + _TIGHT_ABS
    return ab if ab > rel else rel


class Link:
    """A unidirectional capacity-constrained resource.

    ``capacity_fn`` (if given) is consulted on every recomputation so that
    capacities can track external state — the NIC links use it to follow
    the node's DVFS level (uncore slowdown).  ``fault_factor`` is the
    fault layer's multiplicative degradation (see :mod:`repro.faults`);
    it stays exactly 1.0 — and therefore bit-invisible — unless a fault
    plan is active.
    """

    __slots__ = ("name", "base_capacity", "capacity_fn", "fault_factor")

    def __init__(
        self,
        name: str,
        base_capacity: float,
        capacity_fn: Optional[Callable[[], float]] = None,
    ):
        if base_capacity <= 0:
            raise ValueError(f"link {name}: capacity must be positive")
        self.name = name
        self.base_capacity = base_capacity
        self.capacity_fn = capacity_fn
        self.fault_factor = 1.0

    @property
    def capacity(self) -> float:
        cap = (
            self.capacity_fn() if self.capacity_fn is not None
            else self.base_capacity
        )
        if self.fault_factor != 1.0:
            cap *= self.fault_factor
        return cap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.capacity / 1e9:.2f} GB/s>"


class Flow:
    """One in-flight bulk transfer (scalar-kernel state layout)."""

    __slots__ = (
        "links",
        "nbytes",
        "remaining",
        "rate",
        "cap",
        "event",
        "label",
        "seq",
        "started_at",
        "updated_at",
        "_epoch",
    )

    def __init__(
        self,
        links: Tuple[Link, ...],
        nbytes: float,
        cap: float,
        event: Event,
        label: str = "",
    ):
        self.links = links
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.cap = cap
        self.event = event
        self.label = label
        #: Fabric-assigned admission number (deterministic tie-break).
        self.seq = -1
        self.started_at = 0.0
        #: Simulation time up to which ``remaining`` has been settled.
        self.updated_at = 0.0
        #: Bumped on every rate change; stale finish-time predictions in
        #: the completion heap carry an older epoch and are skipped.
        self._epoch = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Flow {self.label} rem={self.remaining:.0f}B rate={self.rate / 1e9:.2f}GB/s>"


def maxmin_rates(
    flows: Sequence[Flow],
    capacities: Dict[Link, float],
    congestion: float = 0.0,
    congestion_saturation: int = 7,
) -> Dict[Flow, float]:
    """Max-min fair allocation with per-flow caps (water-filling).

    Repeatedly finds the most constrained resource — either a link whose
    fair share is smallest or a flow whose cap binds first — freezes the
    affected flows at that rate, removes their demand, and iterates.
    The per-link membership index and the cap-sorted cursor are maintained
    across rounds, so freezing a flow is O(path length) instead of the
    former O(n) list removal plus per-round full count rebuilds.

    ``congestion`` degrades a link carrying n flows to
    ``capacity / (1 + congestion·min(n−1, congestion_saturation))``
    before sharing.

    Floating-point folds are canonical (see module docstring): the flows
    frozen in a round are processed in their position order within
    ``flows``, and each link's residual is reduced once per round by the
    summed demand of that round's frozen flows — bit-for-bit what the
    vector kernel's ``np.add.at`` accumulation computes.

    This is :class:`ScalarFabric`'s filler and the exact oracle for the
    vector kernel's two fillers (``repro.network.kernel.waterfill`` and
    the id-based small-component ``waterfill_ids``), which production
    runs use instead.
    """
    rates: Dict[Flow, float] = {}
    if not flows:
        return rates
    if congestion > 0.0:
        load: Dict[Link, int] = {}
        for flow in flows:
            for link in flow.links:
                load[link] = load.get(link, 0) + 1
        capacities = {
            link: cap
            / (1.0 + congestion * min(load.get(link, 1) - 1, congestion_saturation))
            for link, cap in capacities.items()
        }
    residual = dict(capacities)
    # Insertion-ordered structures keep every iteration deterministic
    # (plain sets would walk in id() order, which varies between runs).
    unfrozen: Dict[Flow, None] = dict.fromkeys(flows)
    members: Dict[Link, Dict[Flow, None]] = {}
    for flow in unfrozen:
        for link in flow.links:
            members.setdefault(link, {})[flow] = None
    flow_list = list(unfrozen)
    order = {flow: i for i, flow in enumerate(flow_list)}
    by_cap = sorted(range(len(flow_list)), key=lambda i: (flow_list[i].cap, i))
    cap_ptr = 0
    while unfrozen:
        while cap_ptr < len(by_cap) and flow_list[by_cap[cap_ptr]] not in unfrozen:
            cap_ptr += 1
        min_cap = (
            flow_list[by_cap[cap_ptr]].cap if cap_ptr < len(by_cap) else math.inf
        )
        link_share: Dict[Link, float] = {}
        for link, flows_on in members.items():
            if flows_on:
                link_share[link] = residual[link] / len(flows_on)
        bottleneck_share = min(link_share.values()) if link_share else math.inf
        if min_cap < bottleneck_share:
            # Cap binds first: freeze all flows at that cap level.
            level = min_cap
            frozen: List[Flow] = []
            j = cap_ptr
            while j < len(by_cap):
                flow = flow_list[by_cap[j]]
                if flow.cap > level:
                    break
                if flow in unfrozen:
                    frozen.append(flow)
                j += 1
        else:
            level = bottleneck_share
            limit = _tight_limit(level)
            tight = [lk for lk, s in link_share.items() if s <= limit]
            frozen_set: Dict[Flow, None] = {}
            for link in tight:
                for flow in members[link]:
                    frozen_set[flow] = None
            frozen = list(frozen_set)
        frozen.sort(key=order.__getitem__)
        delta: Dict[Link, float] = {}
        for flow in frozen:
            rate = min(level, flow.cap)
            rates[flow] = rate
            for link in flow.links:
                delta[link] = delta.get(link, 0.0) + rate
                del members[link][flow]
            del unfrozen[flow]
        for link, d in delta.items():
            residual[link] = max(0.0, residual[link] - d)
    return rates


class FabricBase:
    """State and bookkeeping shared by the scalar and vector kernels:
    link registry, the active-flow set, the link → flows index, per-link
    admission counters, and the zero-rated (stalled) flow set."""

    def __init__(self, env: Environment, spec: NetworkSpec):
        self.env = env
        self.spec = spec
        self._links: Dict[str, Link] = {}
        #: Active flows in admission order (ordered set).
        self._flows: Dict[object, None] = {}
        #: link → active flows crossing it (ordered set per link).
        self._flows_on: Dict[Link, Dict[object, None]] = {}
        self._timer: Optional[Timer] = None
        self._seq = 0
        #: Flows whose last water-filling left them at rate 0 (their
        #: bottleneck link is fully faulted).  A zero-rated flow has no
        #: completion prediction, so nothing on its own links will ever
        #: wake it; every re-rate therefore extends its seed links with
        #: the stalled flows' links, re-rating them as soon as *any*
        #: component event fires (and immediately once capacity returns).
        self._stalled: Dict[object, None] = {}
        #: Components re-rated since construction (self-profiling metric:
        #: pairs with ``flows_rerated`` to show the incremental win).
        self.rerate_calls = 0
        self.flows_rerated = 0
        #: Total bytes ever *delivered* (observability / tests).
        self.bytes_delivered = 0.0
        #: Per-link flows-started counters (observability for topology
        #: studies — e.g. traffic over rack uplinks).  Credited at
        #: admission; per-link *bytes* (``link_bytes``) are settled at
        #: delivery time, alongside ``bytes_delivered``.
        self.link_flows: Dict[str, int] = {}

    # -- link management -----------------------------------------------------
    def add_link(
        self,
        name: str,
        capacity: float,
        capacity_fn: Optional[Callable[[], float]] = None,
    ) -> Link:
        if name in self._links:
            raise ValueError(f"duplicate link {name}")
        link = Link(name, capacity, capacity_fn)
        self._links[name] = link
        self._flows_on[link] = {}
        self.link_flows[name] = 0
        self._register_link(link)
        return link

    def _register_link(self, link: Link) -> None:
        """Kernel hook: called once per new link."""

    def link(self, name: str) -> Link:
        return self._links[name]

    def has_link(self, name: str) -> bool:
        return name in self._links

    # -- transfers -------------------------------------------------------------
    def transfer(
        self,
        links: Sequence[Link],
        nbytes: float,
        cpu_cap: float = math.inf,
        label: str = "",
    ) -> Event:
        """Start a bulk transfer; the returned event fires at completion
        with the completion time as its value."""
        env = self.env
        event = Event(env)
        if nbytes <= 0:
            event.succeed(env.now)
            return event
        if not links:
            raise ValueError("a transfer needs at least one link")
        now = env.now
        flow = self._make_flow(tuple(links), nbytes, cpu_cap, event, label, now)
        self._flows[flow] = None
        link_flows = self.link_flows
        for link in flow.links:
            self._flows_on[link][flow] = None
            link_flows[link.name] += 1
        tracer = env.tracer
        if tracer.enabled:
            tracer.flow_start(
                now, label, float(nbytes), [lk.name for lk in flow.links],
                seq=flow.seq,
            )
        self._admit(flow)
        return event

    # -- kernel hooks --------------------------------------------------------
    def _make_flow(self, links, nbytes, cap, event, label, now):
        raise NotImplementedError

    def _admit(self, flow) -> None:
        raise NotImplementedError

    def capacities_changed(self, links: Optional[Iterable[Link]] = None) -> None:
        raise NotImplementedError

    # -- shared internals ----------------------------------------------------
    def _carrying_links(self) -> List[Link]:
        return [lk for lk, flows_on in self._flows_on.items() if flows_on]

    def _stalled_links(self) -> List[Link]:
        return [lk for flow in self._stalled for lk in flow.links]

    def _component(
        self, seed_links: Iterable[Link], seen_links: Optional[set] = None
    ) -> List[object]:
        """All active flows transitively sharing links with ``seed_links``,
        in admission (``seq``) order — the canonical fold order both
        kernels settle and water-fill in.

        ``seen_links`` is the visited-link set to extend (a fresh one by
        default); links already in it are not crossed.
        """
        component: Dict[object, None] = {}
        if seen_links is None:
            seen_links = set()
        stack: List[Link] = []
        for link in seed_links:
            if link not in seen_links:
                seen_links.add(link)
                stack.append(link)
        while stack:
            link = stack.pop()
            for flow in self._flows_on.get(link, ()):
                if flow in component:
                    continue
                component[flow] = None
                for other in flow.links:
                    if other not in seen_links:
                        seen_links.add(other)
                        stack.append(other)
        flows = list(component)
        flows.sort(key=_seq_of)
        return flows


class ScalarFabric(FabricBase):
    """Reference kernel: per-flow objects, a completion min-heap guarded
    by per-flow epochs, one water-filling pass per fabric event."""

    def __init__(self, env: Environment, spec: NetworkSpec):
        super().__init__(env, spec)
        #: Min-heap of (finish_time, seq, epoch, flow) predictions; entries
        #: whose epoch lags the flow's are stale and skipped on pop.
        self._completions: List[Tuple[float, int, int, Flow]] = []
        #: Per-link bytes *delivered* (settled with ``bytes_delivered``).
        self.link_bytes: Dict[str, float] = {}

    def _register_link(self, link: Link) -> None:
        self.link_bytes[link.name] = 0.0

    @property
    def active_flows(self) -> List[Flow]:
        return list(self._flows)

    def _make_flow(self, links, nbytes, cap, event, label, now) -> Flow:
        flow = Flow(links, nbytes, cap, event, label=label)
        flow.seq = self._seq
        self._seq += 1
        flow.started_at = now
        flow.updated_at = now
        return flow

    def _admit(self, flow: Flow) -> None:
        self._rerate(flow.links)

    def capacities_changed(self, links: Optional[Iterable[Link]] = None) -> None:
        """Re-read link capacities (call after DVFS transitions).

        With ``links`` given, only the components touching those links are
        re-rated; without, every link currently carrying flows is treated
        as changed (the safe legacy behaviour).
        """
        if not self._flows:
            return
        if links is None:
            links = self._carrying_links()
        self._rerate(links)

    # -- internals ---------------------------------------------------------------
    def _settle_flow(self, flow: Flow, now: float) -> None:
        """Drain bytes at the current rate since the flow's last update."""
        dt = now - flow.updated_at
        if dt > 0.0 and flow.rate > 0.0:
            moved = flow.rate * dt
            if moved > flow.remaining:
                moved = flow.remaining
            flow.remaining -= moved
            self.bytes_delivered += moved
            if moved > 0.0:
                link_bytes = self.link_bytes
                for link in flow.links:
                    link_bytes[link.name] += moved
        flow.updated_at = now

    def _rerate(self, changed_links: Iterable[Link]) -> None:
        """Settle and re-run water-filling over the affected component."""
        if not self._flows:
            self._arm_timer()
            return
        if self._stalled:
            changed_links = list(changed_links) + self._stalled_links()
        component = self._component(changed_links)
        if not component:
            self._arm_timer()
            return
        self.rerate_calls += 1
        self.flows_rerated += len(component)
        now = self.env.now
        capacities: Dict[Link, float] = {}
        for flow in component:
            self._settle_flow(flow, now)
            for link in flow.links:
                if link not in capacities:
                    capacities[link] = link.capacity
        rates = maxmin_rates(
            component,
            capacities,
            self.spec.flow_congestion,
            self.spec.flow_congestion_saturation,
        )
        stalled = self._stalled
        for flow in component:
            rate = rates[flow]
            flow.rate = rate
            flow._epoch += 1
            if rate > 0.0:
                if stalled:
                    stalled.pop(flow, None)
                finish = flow.updated_at + flow.remaining / rate
                heapq.heappush(
                    self._completions, (finish, flow.seq, flow._epoch, flow)
                )
            else:
                # Fully faulted bottleneck: no completion prediction.
                # Tracked so the next component event re-rates it (see
                # FabricBase._stalled) instead of dropping it forever.
                stalled[flow] = None
        self._arm_timer()

    def _arm_timer(self) -> None:
        """Point the (single, cancellable) wake-up at the next prediction."""
        heap = self._completions
        while heap:
            _, _, epoch, flow = heap[0]
            if flow in self._flows and epoch == flow._epoch:
                break
            heapq.heappop(heap)
        if not heap:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            return
        t_next = heap[0][0]
        if self._timer is not None:
            if not self._timer.cancelled and self._timer.at <= t_next:
                return  # fires at or before the new prediction; re-arms itself
            self._timer.cancel()
        self._timer = self.env.call_at(max(t_next, self.env.now), self._on_timer)

    def _on_timer(self, _timer: Timer) -> None:
        self._timer = None
        now = self.env.now
        heap = self._completions
        due: List[Flow] = []
        while heap and heap[0][0] <= now:
            _, _, epoch, flow = heapq.heappop(heap)
            if flow in self._flows and epoch == flow._epoch:
                due.append(flow)
        # Settle all due flows first, then process completions — two
        # passes so the byte-counter fold order matches the vector
        # kernel's batched settle + batched completion credit.
        for flow in due:
            self._settle_flow(flow, now)
        freed: Dict[Link, None] = {}
        tracer = self.env.tracer
        for flow in due:
            if flow.remaining <= _EPSILON_BYTES:
                tail = flow.remaining
                self.bytes_delivered += tail
                if tail > 0.0:
                    link_bytes = self.link_bytes
                    for link in flow.links:
                        link_bytes[link.name] += tail
                flow.remaining = 0.0
                del self._flows[flow]
                for link in flow.links:
                    del self._flows_on[link][flow]
                    freed[link] = None
                if tracer.enabled:
                    tracer.flow_finish(
                        now,
                        flow.label,
                        flow.nbytes,
                        flow.started_at,
                        [lk.name for lk in flow.links],
                        seq=flow.seq,
                        delivered=flow.nbytes,
                    )
                flow.event.succeed(now)
            else:
                # Prediction landed a shade early (float slack): repush.
                flow._epoch += 1
                if flow.rate > 0.0:
                    finish = flow.updated_at + flow.remaining / flow.rate
                    heapq.heappush(heap, (finish, flow.seq, flow._epoch, flow))
                else:
                    # Re-rated to zero between prediction and wake-up:
                    # park it with the stalled set rather than dropping
                    # the flow with no prediction at all.
                    self._stalled[flow] = None
        if freed:
            self._rerate(freed)
        else:
            self._arm_timer()
