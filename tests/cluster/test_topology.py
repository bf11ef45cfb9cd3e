"""Tests for cluster construction and Nehalem core numbering."""

import pytest

from repro.cluster import (
    Activity,
    Cluster,
    ClusterSpec,
    ThrottleGranularity,
)
from repro.cluster.specs import NUM_TSTATES, tstate_duty


@pytest.fixture
def cluster():
    return Cluster(ClusterSpec.paper_testbed())


def test_counts(cluster):
    assert cluster.n_nodes == 8
    assert cluster.cores_per_node == 8
    assert len(cluster.cores) == 64
    for node in cluster.nodes:
        assert len(node.sockets) == 2
        assert len(node.cores) == 8


def test_nehalem_os_numbering(cluster):
    """Paper Fig 5: cores 0 2 4 6 on socket A; 1 3 5 7 on socket B."""
    node = cluster.nodes[0]
    socket_a, socket_b = node.sockets
    assert sorted(c.os_id for c in socket_a.cores) == [0, 2, 4, 6]
    assert sorted(c.os_id for c in socket_b.cores) == [1, 3, 5, 7]


def test_global_core_ids_unique(cluster):
    ids = [c.core_id for c in cluster.cores]
    assert ids == sorted(set(ids))
    assert len(ids) == 64


def test_socket_ids_global(cluster):
    assert cluster.nodes[0].sockets[0].socket_id == 0
    assert cluster.nodes[0].sockets[1].socket_id == 1
    assert cluster.nodes[3].sockets[0].socket_id == 6
    assert cluster.nodes[3].sockets[1].socket_id == 7


def test_core_by_os_id(cluster):
    node = cluster.nodes[2]
    for os_id in range(8):
        assert node.core_by_os_id(os_id).os_id == os_id
        assert node.core_by_os_id(os_id).node_id == 2


def test_socket_of_lookup(cluster):
    node = cluster.nodes[0]
    core = node.core_by_os_id(4)
    assert node.socket_of(core).local_index == 0
    core_b = node.core_by_os_id(3)
    assert node.socket_of(core_b).local_index == 1
    with pytest.raises(ValueError):
        cluster.nodes[1].socket_of(core)


def test_cores_start_at_fmax_t0_idle(cluster):
    for core in cluster.cores:
        assert core.frequency_ghz == pytest.approx(2.4)
        assert core.tstate == 0
        assert core.activity is Activity.IDLE


def test_mean_dvfs_ratio(cluster):
    node = cluster.nodes[0]
    assert node.mean_dvfs_ratio == pytest.approx(1.0)
    for core in node.cores[:4]:
        core.set_frequency(1.6, now=0.0)
    assert node.mean_dvfs_ratio == pytest.approx((4 * 1.6 / 2.4 + 4) / 8)


def test_set_all_bulk(cluster):
    cluster.set_all(0.0, frequency_ghz=1.6, tstate=7, activity=Activity.POLLING)
    for core in cluster.cores:
        assert core.frequency_ghz == pytest.approx(1.6)
        assert core.tstate == 7
        assert core.activity is Activity.POLLING


def test_socket_throttle_sets_all_cores(cluster):
    socket = cluster.nodes[0].sockets[1]
    socket.set_tstate(7, now=1.0)
    for core in socket.cores:
        assert core.tstate == 7
    # Socket A untouched.
    for core in cluster.nodes[0].sockets[0].cores:
        assert core.tstate == 0
    assert socket.tstate == 7


def test_throttle_domain_socket_vs_core():
    spec_sock = ClusterSpec.with_shape(nodes=1)
    c1 = Cluster(spec_sock)
    core = c1.nodes[0].cores[0]
    socket = c1.nodes[0].sockets[0]
    c1.throttle_domain.apply(core, socket, 7, now=0.0)
    assert all(c.tstate == 7 for c in socket.cores)

    spec_core = ClusterSpec.with_shape(nodes=1, granularity=ThrottleGranularity.CORE)
    c2 = Cluster(spec_core)
    core2 = c2.nodes[0].cores[0]
    socket2 = c2.nodes[0].sockets[0]
    c2.throttle_domain.apply(core2, socket2, 7, now=0.0)
    assert core2.tstate == 7
    assert sum(c.tstate == 7 for c in socket2.cores) == 1


def test_core_speed_factor():
    cluster = Cluster(ClusterSpec.paper_testbed())
    core = cluster.cores[0]
    assert core.speed_factor == pytest.approx(1.0)
    core.set_frequency(1.6, 0.0)
    assert core.speed_factor == pytest.approx(1.6 / 2.4)
    core.set_tstate(7, 0.0)
    assert core.speed_factor == pytest.approx(0.12 * 1.6 / 2.4)
    assert core.cpu_time(1.0) == pytest.approx(1.0 / (0.12 * 1.6 / 2.4))


def _speed_formula(core):
    return (core.frequency_ghz / core.spec.fmax) * tstate_duty(core.tstate)


@pytest.mark.parametrize("granularity", list(ThrottleGranularity))
def test_stored_speed_factor_tracks_every_mutation_path(granularity):
    cluster = Cluster(ClusterSpec.with_shape(nodes=1, granularity=granularity))
    core = cluster.nodes[0].cores[0]
    socket = cluster.nodes[0].sockets[0]
    cores = cluster.nodes[0].cores

    def check():
        for c in cores:
            assert c.speed_factor == _speed_formula(c)  # exact, not approx

    check()
    for freq in core.spec.pstates_ghz:
        core.set_frequency(freq, 0.0)
        check()
        for level in range(NUM_TSTATES):
            core.set_tstate(level, 0.0)
            check()
    for freq in reversed(core.spec.pstates_ghz):
        socket.set_frequency(freq, 0.0)
        check()
        for level in (3, 7, 0):
            socket.set_tstate(level, 0.0)
            check()
            cluster.throttle_domain.apply(core, socket, 7 - level, 0.0)
            check()


def test_core_state_listener_called_before_change():
    cluster = Cluster(ClusterSpec.paper_testbed())
    core = cluster.cores[0]
    seen = []
    core.add_listener(lambda c, now: seen.append((now, c.frequency_ghz, c.tstate)))
    core.set_frequency(1.6, now=2.0)
    core.set_tstate(3, now=5.0)
    assert seen == [(2.0, 2.4, 0), (5.0, 1.6, 0)]
    # No-op changes do not notify.
    core.set_tstate(3, now=6.0)
    core.set_frequency(1.6, now=7.0)
    assert len(seen) == 2


def test_invalid_tstate_rejected():
    cluster = Cluster(ClusterSpec.paper_testbed())
    with pytest.raises(ValueError):
        cluster.cores[0].set_tstate(8, now=0.0)
