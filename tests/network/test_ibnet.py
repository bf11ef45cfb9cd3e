"""Tests for the cluster-shaped InfiniBand network."""

import pytest

from repro.cluster import Cluster, ClusterSpec
from repro.network import IBNetwork, NetworkSpec
from repro.sim import Environment
from tests.oracles import FullRecomputeFabric


@pytest.fixture
def setup():
    env = Environment()
    cluster = Cluster(ClusterSpec.paper_testbed())
    # Ideal fabric (no congestion penalty) for exact timing assertions.
    net = IBNetwork(env, cluster, NetworkSpec(flow_congestion=0.0))
    return env, cluster, net


def test_links_built_per_node(setup):
    env, cluster, net = setup
    for n in range(8):
        assert net.nic_up(n).name == f"nic_up:{n}"
        assert net.nic_dn(n).name == f"nic_dn:{n}"
        assert net.mem(n).name == f"mem:{n}"


def test_inter_node_path_uses_both_nics(setup):
    env, cluster, net = setup
    path = net.inter_node_path(0, 3)
    assert [lk.name for lk in path] == ["nic_up:0", "nic_dn:3"]


def test_switch_link_when_oversubscribed():
    env = Environment()
    cluster = Cluster(ClusterSpec.paper_testbed())
    net = IBNetwork(env, cluster, NetworkSpec(switch_oversubscription=4.0))
    path = net.inter_node_path(0, 1)
    assert [lk.name for lk in path] == ["nic_up:0", "switch", "nic_dn:1"]
    assert net.fabric.link("switch").capacity == pytest.approx(4.0 * 3.0e9)


def test_single_inter_node_transfer_rate(setup):
    env, cluster, net = setup
    out = []

    def proc(env):
        t = yield net.transfer_inter(0, 1, 3e6)
        out.append(t)

    env.process(proc(env))
    env.run()
    assert out == [pytest.approx(1e-3)]  # 3 MB at 3 GB/s


def test_nic_contention_between_senders(setup):
    """Two ranks on node 0 sending to different nodes share the uplink."""
    env, cluster, net = setup
    out = []

    def proc(env, dst):
        t = yield net.transfer_inter(0, dst, 3e6)
        out.append(t)

    env.process(proc(env, 1))
    env.process(proc(env, 2))
    env.run()
    for t in out:
        assert t == pytest.approx(2e-3)


def test_dvfs_slows_nic(setup):
    """A node at fmin feeds its HCA at ~85 % of line rate (uncore model)."""
    env, cluster, net = setup
    cluster.set_all(0.0, frequency_ghz=1.6)
    alpha = net.spec.dvfs_io_alpha
    expected_factor = net.spec.nic_dvfs_factor(1.6 / 2.4)
    assert expected_factor == pytest.approx(alpha + (1 - alpha) * (1.6 / 2.4))
    out = []

    def proc(env):
        t = yield net.transfer_inter(0, 1, 3e6)
        out.append(t)

    env.process(proc(env))
    env.run()
    assert out == [pytest.approx(1e-3 / expected_factor)]


def test_dvfs_changed_mid_transfer(setup):
    env, cluster, net = setup
    out = []

    def proc(env):
        t = yield net.transfer_inter(0, 1, 6e6)
        out.append(t)

    def scaler(env):
        yield env.timeout(1e-3)  # 3 MB moved at full rate
        cluster.set_all(env.now, frequency_ghz=1.6)
        net.dvfs_changed()

    env.process(proc(env))
    env.process(scaler(env))
    env.run()
    factor = net.spec.nic_dvfs_factor(1.6 / 2.4)
    assert out == [pytest.approx(1e-3 + 1e-3 / factor)]


def test_loopback_used_for_same_node(setup):
    env, cluster, net = setup
    out = []

    def proc(env):
        t = yield net.transfer_inter(0, 0, 3e6)
        out.append(t)

    env.process(proc(env))
    env.run()
    # Loopback crosses nic_up:0 and nic_dn:0, full rate.
    assert out == [pytest.approx(1e-3)]


def test_shm_transfer_capped_by_pair_bandwidth(setup):
    env, cluster, net = setup
    out = []

    def proc(env):
        t = yield net.transfer_shm(0, 2.5e6, pair_cap=2.5e9)
        out.append(t)

    env.process(proc(env))
    env.run()
    assert out == [pytest.approx(1e-3)]


def test_shm_copies_share_node_memory_bandwidth(setup):
    """Many concurrent pair copies saturate the node memory link rather
    than each getting its full pair bandwidth."""
    env, cluster, net = setup
    mem_bw = net.spec.mem_bw_node
    pair_cap = mem_bw / 4  # with 8 copies, fair share < pair_cap
    out = []

    def proc(env):
        t = yield net.transfer_shm(0, 2.5e6, pair_cap=pair_cap)
        out.append(t)

    for _ in range(8):
        env.process(proc(env))
    env.run()
    expected = 2.5e6 / (mem_bw / 8)
    for t in out:
        assert t == pytest.approx(expected)


def test_mem_link_isolated_between_nodes(setup):
    env, cluster, net = setup
    out = []

    def proc(env, node):
        t = yield net.transfer_shm(node, 2.5e6, pair_cap=2.5e9)
        out.append(t)

    env.process(proc(env, 0))
    env.process(proc(env, 1))
    env.run()
    for t in out:
        assert t == pytest.approx(1e-3)


# ------------------------------------------------ cached node DVFS ratio
def _nic_capacity_from_cores(spec, node, progress=1.0):
    """The NIC capacity recomputed from the node's cores, uncached."""
    fmax = node.cores[0].spec.fmax
    ratio = sum(c.frequency_ghz for c in node.cores) / (len(node.cores) * fmax)
    return spec.nic_bw * spec.nic_dvfs_factor(ratio) * progress


def test_nic_capacity_follows_every_frequency_change(setup):
    env, cluster, net = setup
    node = cluster.nodes[0]
    up, dn = net.nic_up(0), net.nic_dn(0)
    other = net.nic_up(1).capacity
    assert up.capacity == _nic_capacity_from_cores(net.spec, node)
    for core, freq in zip(node.cores, (1.6, 2.0, 1.6, 2.4, 1.6)):
        core.set_frequency(freq, now=0.0)
        expected = _nic_capacity_from_cores(net.spec, node)
        assert up.capacity == expected
        assert dn.capacity == expected
    assert up.capacity < net.spec.nic_bw
    assert net.nic_up(1).capacity == other  # only this node's cache moved


def test_tstate_change_leaves_nic_capacity_unchanged(setup):
    env, cluster, net = setup
    node = cluster.nodes[0]
    node.cores[1].set_frequency(1.6, now=0.0)
    before = net.nic_up(0).capacity
    node.cores[1].set_tstate(5, now=0.0)
    node.sockets[0].set_tstate(7, now=0.0)
    assert net.nic_up(0).capacity == before
    assert before == _nic_capacity_from_cores(net.spec, node)


def test_mid_transfer_frequency_change_matches_reference_fabric():
    """Flows in flight across per-core P-state changes finish exactly
    when they do on the whole-fabric recompute oracle, whose NIC links
    recompute the node's frequency mean on every read."""

    def run(reference):
        env = Environment()
        cluster = Cluster(ClusterSpec.paper_testbed())
        spec = NetworkSpec()
        if reference:
            fabric = FullRecomputeFabric(env, spec)
            for node in cluster.nodes:
                def capacity(node=node):
                    return _nic_capacity_from_cores(spec, node)
                fabric.add_link(f"nic_up:{node.node_id}", spec.nic_bw, capacity)
                fabric.add_link(f"nic_dn:{node.node_id}", spec.nic_bw, capacity)

            def send(src, dst, nbytes):
                path = [fabric.link(f"nic_up:{src}"), fabric.link(f"nic_dn:{dst}")]
                return fabric.transfer(path, nbytes, label=f"{src}->{dst}")

            def changed(node_id):
                fabric.capacities_changed(
                    [fabric.link(f"nic_up:{node_id}"),
                     fabric.link(f"nic_dn:{node_id}")]
                )
        else:
            net = IBNetwork(env, cluster, spec)

            def send(src, dst, nbytes):
                return net.transfer_inter(src, dst, nbytes, label=f"{src}->{dst}")

            changed = net.dvfs_changed
        done = {}

        def sender(env, src, dst, nbytes):
            done[(src, dst)] = yield send(src, dst, nbytes)

        def scaler(env):
            for k, core in enumerate(cluster.nodes[0].cores[:3]):
                yield env.timeout(4e-4)
                core.set_frequency(1.6 if k != 1 else 2.0, env.now)
                changed(0)
            yield env.timeout(4e-4)
            cluster.nodes[1].cores[0].set_frequency(1.6, env.now)
            changed(1)

        env.process(sender(env, 0, 1, 6e6))
        env.process(sender(env, 2, 1, 3e6))
        env.process(sender(env, 0, 3, 4e6))
        env.process(scaler(env))
        env.run()
        return done

    assert run(reference=False) == run(reference=True)
