"""`SimSession` — the one object that owns a simulation's substrate.

Before this existed, every consumer (jobs, benchmarks, examples, the CLI)
hand-threaded the same five constructors: Environment → Cluster →
IBNetwork → PowerModel → EnergyAccountant.  A session builds and owns the
whole stack from the three spec dataclasses, injects one
:class:`~repro.sim.trace.Tracer` into every layer, and *validates the
spec combination up front* — a mismatched cluster/network pair fails here
with a message naming the conflict, not three layers down with a
``KeyError``.

Use::

    from repro.sim import SimSession

    session = SimSession(tracer=JsonlTracer("run.jsonl"))
    job = MpiJob(n_ranks=64, session=session)

or let :class:`~repro.mpi.job.MpiJob` build its own private session from
specs (the pre-session signature still works unchanged).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from .engine import Environment
from .trace import Tracer, default_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.specs import ClusterSpec
    from ..cluster.topology import Cluster
    from ..faults.plan import FaultPlan
    from ..faults.state import FaultState
    from ..mpi.job import JobResult, MpiJob
    from ..network.ibnet import IBNetwork
    from ..network.params import NetworkSpec
    from ..power.accounting import EnergyAccountant
    from ..power.model import PowerModel, PowerModelParams
    from ..runtime.arbiter import PowerArbiter
    from ..runtime.governor import Governor


class SessionConfigError(ValueError):
    """The cluster/network/power specs contradict each other."""


def check_session_specs(
    cluster_spec: "ClusterSpec", network_spec: "NetworkSpec"
) -> List[str]:
    """Cross-spec consistency checks a session refuses to run with.

    Returns human-readable problems (empty = consistent).  These are the
    *structural* mismatches that would otherwise surface as deep
    ``KeyError``/nonsense timings inside the fabric; softer physical
    plausibility checks live in :mod:`repro.validate`.
    """
    import math

    problems: List[str] = []
    if cluster_spec.racks > 1:
        if not math.isinf(network_spec.switch_oversubscription):
            problems.append(
                f"cluster has {cluster_spec.racks} racks but the network "
                "models a single flat switch backplane "
                f"(switch_oversubscription={network_spec.switch_oversubscription}); "
                "a racked topology routes through per-rack uplinks instead — "
                "drop `racks` or leave switch_oversubscription infinite"
            )
        if network_spec.rack_uplink_factor <= 0:
            problems.append(
                f"cluster has {cluster_spec.racks} racks but "
                f"rack_uplink_factor={network_spec.rack_uplink_factor} gives "
                "the leaf-to-spine uplinks no capacity"
            )
    if network_spec.mem_bw_node < network_spec.shm_bw:
        problems.append(
            f"node memory bandwidth ({network_spec.mem_bw_node:.3g} B/s) is "
            f"below a single pair's copy bandwidth ({network_spec.shm_bw:.3g} "
            "B/s); shared-memory phases would violate the link model"
        )
    return problems


class SimSession:
    """Owns env + cluster + network + power model + accountant + tracer.

    Parameters mirror the spec dataclasses; every one is optional and
    defaults to the paper's testbed.  ``tracer`` defaults to the ambient
    tracer (see :func:`repro.sim.trace.use_tracer`), which is the null
    tracer unless a CLI ``--trace`` scope is active.  ``governor``,
    ``faults`` and ``arbiter`` are the only way those instruments reach
    a simulation: a session never picks one up from its surroundings.
    """

    def __init__(
        self,
        cluster_spec: Optional["ClusterSpec"] = None,
        network_spec: Optional["NetworkSpec"] = None,
        power_params: Optional["PowerModelParams"] = None,
        tracer: Optional[Tracer] = None,
        keep_segments: bool = True,
        columnar: bool = True,
        validate: bool = True,
        governor: Optional["Governor"] = None,
        faults: Optional["FaultPlan"] = None,
        arbiter: Optional["PowerArbiter"] = None,
    ):
        from ..cluster.specs import ClusterSpec
        from ..cluster.topology import Cluster
        from ..faults.state import FaultState
        from ..network.ibnet import IBNetwork
        from ..network.params import NetworkSpec
        from ..power.accounting import EnergyAccountant
        from ..power.model import PowerModel

        self.cluster_spec = cluster_spec or ClusterSpec.paper_testbed()
        self.network_spec = network_spec or NetworkSpec()
        if validate:
            problems = check_session_specs(self.cluster_spec, self.network_spec)
            if problems:
                raise SessionConfigError(
                    "inconsistent session specs:\n  - " + "\n  - ".join(problems)
                )
        self.tracer: Tracer = default_tracer() if tracer is None else tracer
        # An ambient metrics registry (repro.obs `use_metrics` scope) tees
        # into the trace bus here — one MetricsTracer per session, since
        # its derived state (per-core frequency, in-flight flows) tracks
        # one session's clock.  No scope, no tee, no overhead.
        from ..obs.metrics import MetricsTracer, ambient_metrics_registry

        registry = ambient_metrics_registry()
        if registry is not None:
            from .trace import TeeTracer

            metrics_tracer = MetricsTracer(registry)
            self.tracer = (
                TeeTracer([self.tracer, metrics_tracer])
                if self.tracer.enabled else metrics_tracer
            )
        self.env: Environment = Environment(tracer=self.tracer)
        self.cluster: "Cluster" = Cluster(self.cluster_spec)
        self.cluster.attach_tracer(self.tracer)
        self.net: "IBNetwork" = IBNetwork(self.env, self.cluster, self.network_spec)
        self.power_model: "PowerModel" = PowerModel(power_params)
        self.accountant: "EnergyAccountant" = EnergyAccountant(
            self.cluster, self.power_model,
            keep_segments=keep_segments, columnar=columnar,
        )
        #: Live fault-injection state (see :mod:`repro.faults`), or None.
        #: Bound before the governor so policies always see the perturbed
        #: machine, never a half-built one.
        self.faults: Optional["FaultState"] = (
            FaultState(faults, self) if faults is not None else None
        )
        #: Optional online power governor (see :mod:`repro.runtime`); the
        #: MPI layer notifies it when present, never pays for it when not.
        self.governor: Optional["Governor"] = governor
        if governor is not None:
            governor.bind(self)
        #: Optional cluster-wide power-budget arbiter (see
        #: :mod:`repro.runtime.arbiter`).  Bound *after* the governor so it
        #: sees the fully instrumented machine; it owns the whole session,
        #: never an individual job.
        self.arbiter: Optional["PowerArbiter"] = arbiter
        if arbiter is not None:
            arbiter.bind(self)

    # -- multi-job lifecycle -------------------------------------------------
    def finish_run(self, end: float) -> None:
        """Seal the run at simulated time ``end``: settle every installed
        instrument, then finalize energy accounting.  Order matters —
        governor restores (charging any outstanding penalties) and fault
        state settles before the arbiter seals its report, and the
        accountant closes segments last so it sees final frequencies."""
        if self.governor is not None:
            self.governor.finish_run()
        if self.faults is not None:
            self.faults.finish_run()
        if self.arbiter is not None:
            self.arbiter.finish_run()
        self.accountant.finalize(end)

    def run_jobs(self, jobs: List["MpiJob"]) -> List["JobResult"]:
        """Drive several co-scheduled jobs on this session to completion.

        Each job must already be :meth:`~repro.mpi.job.MpiJob.launch`-ed
        (its rank processes queued) and must adopt *this* session.  One
        ``env.run()`` drains them all — they contend for the same fabric
        — then the session settles instruments once at the global end
        time and each job collects its :class:`~repro.mpi.job.JobResult`.

        Per-job energy attribution: every result's ``energy_j`` is the
        job's cores plus its nodes' base draw over the whole window
        (:meth:`~repro.power.accounting.EnergyAccountant.attribute_energy_j`);
        the cluster-idle remainder is stored as ``self.residual_energy_j``
        so ``sum(per-job) + residual == accountant.total_energy_j()``
        exactly (the residual is computed by subtraction).
        """
        if not jobs:
            raise ValueError("run_jobs needs at least one job")
        for job in jobs:
            if job.session is not self:
                raise ValueError(
                    "every job in run_jobs must adopt this session"
                )
            if not job.launched:
                raise ValueError(
                    "launch() every job before run_jobs (ranks not queued)"
                )
        self.env.run()
        end = max(
            (max(job._finish_times) if job._finish_times else self.env.now)
            for job in jobs
        )
        self.finish_run(end)
        results = [job.collect() for job in jobs]
        attributed = 0.0
        for job, result in zip(jobs, results):
            result.energy_j = self.accountant.attribute_energy_j(
                [core.core_id for core in job.affinity._rank_to_core],
                job.affinity.n_nodes_used,
            )
            attributed += result.energy_j
        #: Energy of nodes/cores no job occupied (0.0 when jobs tile the
        #: cluster); by construction jobs + residual == total exactly.
        self.residual_energy_j = self.accountant.total_energy_j() - attributed
        if self.tracer.enabled:
            for i, (job, result) in enumerate(zip(jobs, results)):
                self.tracer.mark(
                    result.duration_s, "job.end",
                    job=i, node_offset=job.affinity.node_offset,
                    nodes=job.affinity.n_nodes_used,
                    energy_j=result.energy_j,
                )
        return results

    @property
    def now(self) -> float:
        """Current simulation time (shorthand for ``session.env.now``)."""
        return self.env.now

    def close(self) -> None:
        """Flush the tracer (no-op for in-memory/null tracers)."""
        self.tracer.close()

    def __enter__(self) -> "SimSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
