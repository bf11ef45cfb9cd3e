"""Differential tests: vector kernel vs scalar oracle, plus regressions
for the bugs the vectorization PR fixed (zero-rate stall, tight-link
tolerance at tiny capacities, link_bytes settled at delivery)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import NetworkSpec
from repro.network.fabric import Flow, Link, ScalarFabric, maxmin_rates
from repro.network.kernel import (
    VectorFabric,
    maxmin_rates_vectorized,
    waterfill_ids,
)
from repro.sim import Environment


class _Ev:
    pass


def _close(a, b, rel=1e-9):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


# ------------------------------------------- maxmin differential (unit-ish)
@st.composite
def allocation_problems(draw, cap_min=0.1, cap_max=100.0):
    n_links = draw(st.integers(min_value=1, max_value=5))
    links = [
        Link(f"l{i}", draw(st.floats(min_value=cap_min, max_value=cap_max)))
        for i in range(n_links)
    ]
    n_flows = draw(st.integers(min_value=1, max_value=12))
    flows = []
    for _ in range(n_flows):
        path_ids = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=1,
                max_size=n_links,
                unique=True,
            )
        )
        cap = draw(
            st.one_of(
                st.just(math.inf), st.floats(min_value=0.01, max_value=50.0)
            )
        )
        flows.append(Flow(tuple(links[i] for i in path_ids), 1.0, cap, _Ev()))
    capacities = {lk: lk.capacity for lk in links}
    congestion = draw(st.sampled_from([0.0, 0.05, 0.3]))
    saturation = draw(st.sampled_from([1, 7]))
    return flows, capacities, congestion, saturation


@given(allocation_problems())
@settings(max_examples=200)
def test_vectorized_maxmin_matches_scalar_exactly(problem):
    flows, capacities, congestion, saturation = problem
    scalar = maxmin_rates(flows, capacities, congestion, saturation)
    vector = maxmin_rates_vectorized(flows, capacities, congestion, saturation)
    assert set(scalar) == set(vector)
    for flow in flows:
        # Bit-identical, not approximately equal: the two kernels use the
        # same fold orders by construction.
        assert scalar[flow] == vector[flow], (scalar[flow], vector[flow])


@given(allocation_problems(cap_min=1e-30, cap_max=1e-18))
@settings(max_examples=100)
def test_vectorized_maxmin_matches_scalar_at_tiny_capacities(problem):
    """The abs+rel tight tolerance keeps ~0-level rounds consistent."""
    flows, capacities, congestion, saturation = problem
    scalar = maxmin_rates(flows, capacities, congestion, saturation)
    vector = maxmin_rates_vectorized(flows, capacities, congestion, saturation)
    for flow in flows:
        assert scalar[flow] == vector[flow]
        assert scalar[flow] >= 0.0
    # No link oversubscribed (tolerance-scaled).
    for link, cap in capacities.items():
        used = sum(scalar[f] for f in flows if link in f.links)
        assert used <= cap * (1 + 1e-9) + 1e-22


def test_tiny_capacity_near_ties_freeze_together():
    """Links whose shares differ by less than the absolute tolerance
    tie-break as one tight set; a purely relative tolerance would give
    the marginally-larger link a second round and a different rate."""
    a = Link("a", 1e-25)
    b = Link("b", 1e-25 * (1.0 + 1e-7))  # within 1e-24 abs of the level
    fa = Flow((a,), 1.0, math.inf, _Ev())
    fb = Flow((b,), 1.0, math.inf, _Ev())
    rates = maxmin_rates([fa, fb], {a: a.capacity, b: b.capacity})
    assert rates[fa] == rates[fb] == 1e-25
    vec = maxmin_rates_vectorized([fa, fb], {a: a.capacity, b: b.capacity})
    assert vec[fa] == rates[fa] and vec[fb] == rates[fb]


# ------------------------------------------- id-based small filler (exact)
class _IdFlow:
    """What :func:`waterfill_ids` and ``maxmin_rates`` read off a flow."""

    __slots__ = ("links", "link_ids", "cap")

    def __init__(self, links, link_ids, cap):
        self.links = links
        self.link_ids = link_ids
        self.cap = cap


@st.composite
def id_allocation_problems(draw):
    """Small components of both shapes the fabric produces: link-disjoint
    paths (often several flows per path) and overlapping paths."""
    n_links = draw(st.integers(min_value=1, max_value=6))
    # A few repeated values make equal-share and equal-cap ties common;
    # 1e-30 and a zero fault factor make ~0-level rounds and the
    # stalled (rate 0) set.
    links = []
    for i in range(n_links):
        cap = draw(
            st.one_of(
                st.sampled_from([1.0, 2.0, 3.0, 1e-30]),
                st.floats(min_value=0.1, max_value=100.0),
            )
        )
        link = Link(f"l{i}", cap)
        link.fault_factor = draw(st.sampled_from([1.0, 1.0, 1.0, 0.5, 0.0]))
        links.append(link)
    if draw(st.booleans()):
        # Link-disjoint paths: cut a permutation of the links into runs.
        order = draw(st.permutations(range(n_links)))
        cuts = sorted(
            draw(st.sets(st.integers(min_value=1, max_value=n_links - 1)))
            if n_links > 1 else set()
        )
        bounds = [0] + cuts + [n_links]
        paths = [tuple(order[a:b]) for a, b in zip(bounds, bounds[1:])]
    else:
        paths = [
            tuple(
                draw(
                    st.lists(
                        st.integers(min_value=0, max_value=n_links - 1),
                        min_size=1,
                        max_size=n_links,
                        unique=True,
                    )
                )
            )
            for _ in range(draw(st.integers(min_value=1, max_value=4)))
        ]
    flows = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        ids = draw(st.sampled_from(paths))
        cap = draw(
            st.one_of(
                st.just(math.inf),
                st.sampled_from([0.5, 1.0, 1.5]),
                st.floats(min_value=0.01, max_value=50.0),
            )
        )
        flows.append(_IdFlow(tuple(links[i] for i in ids), ids, cap))
    congestion = draw(st.sampled_from([0.0, 0.05, 0.3]))
    saturation = draw(st.sampled_from([1, 7]))
    return flows, links, congestion, saturation


@given(id_allocation_problems())
@settings(max_examples=300)
def test_waterfill_ids_matches_maxmin_rates_exactly(problem):
    flows, links, congestion, saturation = problem
    capacities = {lk: lk.capacity for f in flows for lk in f.links}
    reference = maxmin_rates(flows, capacities, congestion, saturation)
    rates = waterfill_ids(flows, links, congestion, saturation)
    # ``==``, not approximately: both fill in the same fold order.
    assert rates == [reference[f] for f in flows]


def test_waterfill_ids_zero_capacity_link_stalls_only_its_path():
    a, b = Link("a", 2.0), Link("b", 2.0)
    b.fault_factor = 0.0
    flows = [
        _IdFlow((a,), (0,), math.inf),
        _IdFlow((b,), (1,), math.inf),
        _IdFlow((a,), (0,), 0.5),
    ]
    assert waterfill_ids(flows, [a, b]) == [1.5, 0.0, 0.5]


# --------------------------------------------------- full-fabric differential
@st.composite
def fabric_scenarios(draw):
    """A randomized schedule: links, flows with start times, optional
    congestion and a mid-run capacity degradation."""
    n_links = draw(st.integers(min_value=2, max_value=5))
    link_caps = [
        draw(st.floats(min_value=0.5, max_value=8.0)) for _ in range(n_links)
    ]
    n_flows = draw(st.integers(min_value=1, max_value=10))
    flows = []
    for _ in range(n_flows):
        path = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=1,
                max_size=min(3, n_links),
                unique=True,
            )
        )
        nbytes = draw(st.floats(min_value=1.0, max_value=64.0))
        start = draw(st.sampled_from([0.0, 0.0, 0.5, 1.25]))
        cap = draw(st.one_of(st.just(math.inf), st.floats(0.2, 4.0)))
        flows.append((path, nbytes, start, cap))
    congestion = draw(st.sampled_from([0.0, 0.05]))
    fault = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=0, max_value=n_links - 1),
                st.sampled_from([0.35, 0.0]),  # degrade or kill outright
                st.sampled_from([0.25, 0.75]),
            ),
        )
    )
    return link_caps, flows, congestion, fault


def _fabric(vectorized, env, spec):
    return (VectorFabric if vectorized else ScalarFabric)(env, spec)


def _run_scenario(vectorized, link_caps, flows, congestion, fault,
                  small_batch=VectorFabric.SMALL_BATCH):
    env = Environment()
    fabric = _fabric(vectorized, env, NetworkSpec(flow_congestion=congestion))
    if vectorized:
        fabric.SMALL_BATCH = small_batch
    links = [fabric.add_link(f"l{i}", cap) for i, cap in enumerate(link_caps)]
    done = {}

    def sender(env, label, path, nbytes, start, cap):
        if start > 0.0:
            yield env.timeout(start)
        finished = yield fabric.transfer(
            [links[i] for i in path], nbytes, cpu_cap=cap, label=label
        )
        done[label] = finished

    for k, (path, nbytes, start, cap) in enumerate(flows):
        env.process(sender(env, f"f{k}", path, nbytes, start, cap))

    if fault is not None:
        li, factor, at = fault

        def degrade(_timer):
            links[li].fault_factor = factor
            fabric.capacities_changed([links[li]])

        def restore(_timer):
            links[li].fault_factor = 1.0
            fabric.capacities_changed([links[li]])

        env.call_after(at, degrade)
        # Always restore so killed links cannot strand flows forever.
        env.call_after(at + 1.5, restore)

    env.run()
    return done, fabric.bytes_delivered, fabric.link_bytes


@given(fabric_scenarios())
@settings(max_examples=60, deadline=None)
def test_full_fabric_runs_identical_across_kernels(scenario):
    s_done, s_bytes, s_link = _run_scenario(False, *scenario)
    # The scenarios stay far below the vector kernel's SMALL_BATCH, so
    # the run with SMALL_BATCH = 0 is what drives the batched numpy
    # water-filler (``_apply_batch``) against the scalar reference.
    for small_batch in (VectorFabric.SMALL_BATCH, 0):
        v_done, v_bytes, v_link = _run_scenario(
            True, *scenario, small_batch=small_batch
        )
        # Per-flow completion times are bit-identical across kernels.
        assert s_done == v_done, small_batch
        # Aggregate byte counters may differ only by fold-order ulps.
        assert _close(s_bytes, v_bytes, rel=1e-12), small_batch
        assert set(s_link) == set(v_link)
        for name in s_link:
            assert _close(s_link[name], v_link[name], rel=1e-12), name


@st.composite
def simultaneous_finish_scenarios(draw):
    """Equal-size flows on shared and link-disjoint paths, admitted
    together, so whole waves come due in one wake-up."""
    n_links = draw(st.integers(min_value=2, max_value=4))
    # Rates like 10/3 B/s leave rounding tails below the completion
    # epsilon, so the tail credit is exercised too.
    link_caps = [draw(st.sampled_from([1.0, 3.0, 5.0])) for _ in range(n_links)]
    paths = [[i] for i in range(n_links)] + [[0, 1]]
    nbytes = draw(st.sampled_from([7.0, 10.0]))
    flows = [
        (draw(st.sampled_from(paths)), nbytes, draw(st.sampled_from([0.0, 0.3])),
         math.inf)
        for _ in range(draw(st.integers(min_value=3, max_value=9)))
    ]
    congestion = draw(st.sampled_from([0.0, 0.05]))
    fault = draw(st.one_of(st.none(), st.just((0, 0.5, 0.25))))
    return link_caps, flows, congestion, fault


@given(simultaneous_finish_scenarios())
@settings(max_examples=40, deadline=None)
def test_simultaneous_completions_identical_on_both_completion_paths(scenario):
    """Due waves above ``SMALL_BATCH`` complete through the numpy path,
    those at or below it through the scalar loops: SMALL_BATCH = 2 puts
    most waves here on the array path, the default on the scalar one."""
    s_done, s_bytes, s_link = _run_scenario(False, *scenario)
    runs = [
        _run_scenario(True, *scenario, small_batch=small_batch)
        for small_batch in (VectorFabric.SMALL_BATCH, 2, 0)
    ]
    for v_done, v_bytes, v_link in runs:
        # Same completion times, and the same completion-event order.
        assert list(v_done.items()) == list(s_done.items())
        assert _close(s_bytes, v_bytes, rel=1e-12)
        for name in s_link:
            assert _close(s_link[name], v_link[name], rel=1e-12), name
    # The scalar and numpy completion paths fold the byte counters in
    # one order, so the vector runs agree with each other exactly.
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("small_batch", [VectorFabric.SMALL_BATCH, 2, 0])
def test_simultaneous_completion_wave_takes_the_expected_path(
    small_batch, monkeypatch
):
    """Six equal flows on one path finish in a single wake-up; the wave
    size against SMALL_BATCH picks the completion path, and both give
    the scalar kernel's completion times."""
    scenario = ([3.0], [([0], 6.0, 0.0, math.inf)] * 6, 0.0, None)
    calls = {"small": 0, "batch": 0}
    small, batch = VectorFabric._complete_small, VectorFabric._complete_batch

    def spy_small(self, due, now):
        calls["small"] += 1
        return small(self, due, now)

    def spy_batch(self, due, now):
        calls["batch"] += 1
        return batch(self, due, now)

    monkeypatch.setattr(VectorFabric, "_complete_small", spy_small)
    monkeypatch.setattr(VectorFabric, "_complete_batch", spy_batch)
    v_done, _, _ = _run_scenario(True, *scenario, small_batch=small_batch)
    s_done, _, _ = _run_scenario(False, *scenario)
    assert v_done == s_done
    assert set(v_done.values()) == {12.0}  # 36 B at 3 B/s, one instant
    if small_batch >= 6:
        assert calls == {"small": 1, "batch": 0}
    else:
        assert calls == {"small": 0, "batch": 1}


@pytest.mark.parametrize("small_batch", [VectorFabric.SMALL_BATCH, 0])
def test_completion_credits_visible_sub_epsilon_tails(small_batch):
    """A due flow completes with up to ``_EPSILON_BYTES`` still
    unsettled; both completion paths credit that tail to
    ``bytes_delivered`` and every link of the path.  The tails are
    written into the table after admission, so they are far above the
    counters' last ulp (rates here settle exactly 10 B by t = 5)."""
    env = Environment()
    fabric = VectorFabric(env, NetworkSpec(flow_congestion=0.0))
    fabric.SMALL_BATCH = small_batch
    a, b = fabric.add_link("a", 4.0), fabric.add_link("b", 4.0)
    events = [fabric.transfer([a], 10.0), fabric.transfer([a, b], 10.0)]
    f1, f2 = fabric.active_flows  # flushes: 2 B/s each, due at t = 5
    fabric._table.remaining_v[f1.idx] = 10.25
    fabric._table.remaining_v[f2.idx] = 10.125
    env.run()
    assert [ev.value for ev in events] == [5.0, 5.0]
    assert fabric.bytes_delivered == 20.375
    assert fabric.link_bytes == {"a": 20.375, "b": 10.125}


# --------------------------------------------------------- zero-rate stall
@pytest.mark.parametrize("vectorized", [False, True])
def test_starved_flow_survives_and_resumes(vectorized):
    """A flow re-rated to zero while a component peer progresses must not
    be dropped (or deadlock the fabric): it parks, survives its peer's
    completion re-rate, and resumes when capacity returns."""
    env = Environment()
    fabric = _fabric(vectorized, env, NetworkSpec(flow_congestion=0.0))
    a = fabric.add_link("a", 1000.0)
    b = fabric.add_link("b", 1000.0)
    done = {}

    def sender(env, label, links, nbytes):
        done[label] = yield fabric.transfer(links, nbytes, label=label)

    # f1 rides link a alone; f2 needs both a and b.
    env.process(sender(env, "f1", [a], 1000.0))
    env.process(sender(env, "f2", [a, b], 500.0))

    def kill_b(_timer):
        b.fault_factor = 0.0
        fabric.capacities_changed([b])

    def restore_b(_timer):
        b.fault_factor = 1.0
        fabric.capacities_changed([b])

    env.call_after(0.0, kill_b)  # starve f2 from the start
    env.call_after(2.0, restore_b)
    env.run()

    # f1 progressed at full rate the whole time (f2 was frozen at zero,
    # not competing): 1000 B at 1000 B/s.
    assert done["f1"] == pytest.approx(1.0)
    # f2 parked for 2 s — surviving f1's completion re-rate at t=1, which
    # re-seeds stalled flows but finds b still dead — then delivered
    # 500 B at full rate.
    assert done["f2"] == pytest.approx(2.5)
    assert fabric.bytes_delivered == pytest.approx(1500.0)
    assert fabric.link_bytes["a"] == pytest.approx(1500.0)
    assert fabric.link_bytes["b"] == pytest.approx(500.0)
    assert not fabric.active_flows


@pytest.mark.parametrize("vectorized", [False, True])
def test_all_flows_zero_rated_is_not_a_deadlock(vectorized):
    """Historically the scalar kernel raised 'fabric deadlock' when a
    re-rate left every component flow at zero rate."""
    env = Environment()
    fabric = _fabric(vectorized, env, NetworkSpec(flow_congestion=0.0))
    lk = fabric.add_link("l", 100.0)
    done = {}

    def sender(env):
        done["f"] = yield fabric.transfer([lk], 100.0, label="f")

    env.process(sender(env))

    def kill(_timer):
        lk.fault_factor = 0.0
        fabric.capacities_changed([lk])

    def restore(_timer):
        lk.fault_factor = 1.0
        fabric.capacities_changed([lk])

    env.call_after(0.25, kill)
    env.call_after(1.25, restore)
    env.run()
    # 25 B moved before the outage; the remaining 75 B after restore.
    assert done["f"] == pytest.approx(2.0)
    assert fabric.bytes_delivered == pytest.approx(100.0)


# ------------------------------------------------ link_bytes at delivery
@pytest.mark.parametrize("vectorized", [False, True])
def test_link_bytes_settle_at_delivery_not_at_start(vectorized):
    env = Environment()
    fabric = _fabric(vectorized, env, NetworkSpec(flow_congestion=0.0))
    lk = fabric.add_link("l", 1000.0)

    def sender(env, start, nbytes):
        if start:
            yield env.timeout(start)
        yield fabric.transfer([lk], nbytes, label=f"s{start}")

    env.process(sender(env, 0.0, 1000.0))
    env.process(sender(env, 0.4, 1000.0))

    env.run(until=0.2)
    # In flight: nothing delivered yet (the old kernel credited the full
    # 1000 B at transfer start).  link_flows keeps start-count semantics.
    assert fabric.link_bytes["l"] == 0.0
    assert fabric.link_flows["l"] == 1

    env.run(until=0.45)
    # The second admission at t=0.4 settles the first flow: 400 B done.
    assert fabric.link_bytes["l"] == pytest.approx(400.0)
    assert fabric.link_bytes["l"] == pytest.approx(fabric.bytes_delivered)
    assert fabric.link_flows["l"] == 2

    env.run()
    assert fabric.link_bytes["l"] == pytest.approx(2000.0)
    assert fabric.bytes_delivered == pytest.approx(2000.0)
