"""Cluster power-budget arbiter tests: config round-trip, uniform cap
enforcement, slack-driven redistribution across co-scheduled jobs, and
exact per-job energy attribution."""

import math

import pytest

from repro.cluster.specs import ClusterSpec
from repro.mpi.job import MpiJob
from repro.runtime import (
    ArbiterConfig,
    ArbiterPolicy,
    PowerArbiter,
)
from repro.sim.session import SimSession

SPEC = ClusterSpec.with_shape(nodes=4, sockets=2, cores_per_socket=4)
CORES_PER_NODE = 8
#: Between the node's all-polling fmin demand (~225 W) and its fmax
#: demand (~287.5 W): the uniform split must clamp below fmax.
CAP_PER_NODE_W = 250.0


def _comm_program(ctx):
    for _ in range(2):
        yield from ctx.alltoall(64 << 10)


def _compute_program(ctx):
    for _ in range(3):
        yield from ctx.compute(10e-3)
        yield from ctx.allreduce(1 << 10)


def _single_job(arbiter=None, cap_w=None):
    if cap_w is not None:
        arbiter = PowerArbiter(ArbiterConfig(power_cap_w=cap_w))
    return MpiJob(
        SPEC.nodes * CORES_PER_NODE, cluster_spec=SPEC, arbiter=arbiter,
    )


#: (n_ranks, node_offset) of the communication job and the compute job.
#: TILED covers every node; IDLE_NODE leaves node 2 unused.
TILED = ((2 * CORES_PER_NODE, 0), (2 * CORES_PER_NODE, 2))
IDLE_NODE = ((2 * CORES_PER_NODE, 0), (CORES_PER_NODE, 3))


def _two_job_session(policy, cap_w=SPEC.nodes * CAP_PER_NODE_W, layout=TILED):
    arbiter = PowerArbiter(ArbiterConfig(
        policy=ArbiterPolicy(policy), power_cap_w=cap_w,
    ))
    session = SimSession(cluster_spec=SPEC, arbiter=arbiter)
    (comm_ranks, comm_node), (compute_ranks, compute_node) = layout
    comm = MpiJob(comm_ranks, session=session, node_offset=comm_node)
    compute = MpiJob(compute_ranks, session=session, node_offset=compute_node)
    comm.launch(_comm_program)
    compute.launch(_compute_program)
    results = session.run_jobs([comm, compute])
    return session, results, [comm, compute]


# -- config ------------------------------------------------------------------
def test_config_round_trip():
    config = ArbiterConfig(
        policy=ArbiterPolicy.REDISTRIBUTE, power_cap_w=1000.0,
        interval_s=1e-3, slack_threshold_s=100e-6, ewma_alpha=0.5,
    )
    assert ArbiterConfig.from_dict(config.to_dict()) == config


def test_config_validation():
    with pytest.raises(ValueError):
        ArbiterConfig()  # cap unset
    with pytest.raises(ValueError):
        ArbiterConfig(power_cap_w=-1.0)
    with pytest.raises(ValueError):
        ArbiterConfig(power_cap_w=100.0, interval_s=0.0)
    with pytest.raises(ValueError):
        ArbiterConfig(power_cap_w=100.0, slack_threshold_s=0.0)


# -- uniform enforcement -----------------------------------------------------
def test_uniform_cap_clamps_every_node():
    base = _single_job().run(_compute_program)
    job = _single_job(cap_w=SPEC.nodes * CAP_PER_NODE_W)
    capped = job.run(_compute_program)
    report = job.session.arbiter.report()
    # One clamp per node, enforced at the kick tick, never re-raised.
    assert report.freq_changes == SPEC.nodes
    assert report.min_budget_w == report.max_budget_w == CAP_PER_NODE_W
    assert report.donated_j == 0.0
    # The clamp slows the compute phase and trims power.
    assert capped.duration_s > base.duration_s
    assert capped.average_power_w < base.average_power_w
    for core in job.cluster.cores:
        assert core.frequency_ghz < core.spec.fmax


def test_loose_cap_is_a_noop():
    base = _single_job().run(_compute_program)
    job = _single_job(cap_w=1e6)
    capped = job.run(_compute_program)
    assert job.session.arbiter.report().freq_changes == 0
    assert capped.duration_s == base.duration_s
    assert capped.energy_j == base.energy_j


def test_arbiter_binds_once():
    arbiter = PowerArbiter(ArbiterConfig(power_cap_w=1000.0))
    SimSession(cluster_spec=SPEC, arbiter=arbiter)
    with pytest.raises(ValueError):
        SimSession(cluster_spec=SPEC, arbiter=arbiter)


def test_job_rejects_arbiter_with_adopted_session():
    session = SimSession(cluster_spec=SPEC)
    with pytest.raises(ValueError):
        MpiJob(
            CORES_PER_NODE, session=session,
            arbiter=PowerArbiter(ArbiterConfig(power_cap_w=1000.0)),
        )


# -- redistribution across co-scheduled jobs ---------------------------------
def test_redistribute_donates_comm_slack_to_compute_job():
    session, results, _ = _two_job_session("redistribute")
    report = session.arbiter.report()
    assert report.ticks > 0
    assert report.rebalances > 0
    assert report.donors_peak > 0
    assert report.donated_j > 0.0
    # Donor nodes floor at their fmin demand; critical nodes get more
    # than the uniform share (but the sum never exceeds the cap).
    assert report.min_budget_w < CAP_PER_NODE_W < report.max_budget_w


def test_redistribute_beats_uniform_makespan_at_equal_cap():
    _, uniform, _ = _two_job_session("uniform")
    _, redis, _ = _two_job_session("redistribute")
    assert max(r.duration_s for r in redis) < max(r.duration_s for r in uniform)


@pytest.mark.parametrize("policy", ["uniform", "redistribute"])
def test_per_job_attribution_sums_to_accountant_total(policy):
    session, results, _ = _two_job_session(policy)
    attributed = sum(r.energy_j for r in results)
    assert attributed + session.residual_energy_j == \
        session.accountant.total_energy_j()
    # Both jobs burned energy, and the shared base draw outside the job
    # windows lands in the residual, not on either job (negative only by
    # float rounding of the subtraction).
    assert all(r.energy_j > 0 for r in results)
    assert session.residual_energy_j >= -1e-9


@pytest.mark.parametrize("layout", [TILED, IDLE_NODE], ids=["tiled", "idle-node"])
@pytest.mark.parametrize("policy", ["uniform", "redistribute"])
def test_residual_matches_independent_idle_energy(policy, layout):
    """The residual is ``total - attributed`` in the session; here it is
    recomputed from the idle hardware alone: the energy of every core no
    job binds plus the base draw of every node no job uses."""
    session, _, jobs = _two_job_session(policy, layout=layout)
    acct = session.accountant
    bound = [core for job in jobs for core in job.affinity._rank_to_core]
    bound_ids = {core.core_id for core in bound}
    idle_cores_j = sum(
        acct.core_energy_j(core.core_id)
        for core in session.cluster.cores if core.core_id not in bound_ids
    )
    idle_nodes = SPEC.nodes - len({core.node_id for core in bound})
    idle_base_j = (
        session.power_model.params.node_base_w
        * idle_nodes * (acct.finalized_at - acct.start_time)
    )
    independent = idle_cores_j + idle_base_j
    total = acct.total_energy_j()
    # The two sums group the same float additions differently; a few ulp
    # of the total bounds the rounding (1 ulp is what is observed).
    assert abs(independent - session.residual_energy_j) <= 4 * math.ulp(total)
    if layout is TILED:
        assert independent == 0.0
    else:
        assert idle_nodes == 1
        assert independent > 0.0


def test_run_jobs_single_job_matches_plain_run():
    """The multi-job path is the same simulation: one job launched via
    launch()/run_jobs() reproduces MpiJob.run() exactly."""
    plain_job = _single_job(cap_w=SPEC.nodes * CAP_PER_NODE_W)
    plain = plain_job.run(_compute_program)

    job = _single_job(cap_w=SPEC.nodes * CAP_PER_NODE_W)
    job.launch(_compute_program)
    (result,) = job.session.run_jobs([job])
    assert result.duration_s == plain.duration_s
    assert job.env.events_processed == plain_job.env.events_processed
    # A whole-cluster job owns every core and every node-second, so the
    # attributed energy is the accountant total and nothing is residual.
    assert result.energy_j == pytest.approx(plain.energy_j, rel=1e-12)
    assert job.session.residual_energy_j == pytest.approx(0.0, abs=1e-9)


def test_run_jobs_requires_launched_jobs():
    session = SimSession(cluster_spec=SPEC)
    job = MpiJob(CORES_PER_NODE, session=session)
    with pytest.raises(ValueError):
        session.run_jobs([job])


# -- reports -----------------------------------------------------------------
def test_ambient_scope_arbiters_jobs_and_collects_reports():
    """An explicit arbiter caps the job it is handed to and reports one
    clamp per node."""
    config = ArbiterConfig(power_cap_w=SPEC.nodes * CAP_PER_NODE_W)
    arbiter = PowerArbiter(config)
    job = _single_job(arbiter=arbiter)
    assert job.session.arbiter is arbiter
    job.run(_compute_program)
    assert arbiter.report().freq_changes == SPEC.nodes
