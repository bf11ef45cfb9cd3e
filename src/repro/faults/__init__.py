"""Deterministic fault/perturbation injection (ISSUE 3).

The paper's schedules — and the PR-2 governor — were built and validated
on a quiet machine: constant 12 µs transition latencies, loss-free QDR
links, no OS noise.  This package perturbs that machine *reproducibly*:
a :class:`FaultPlan` (one seed, a tuple of injectors) binds to a
:class:`~repro.sim.session.SimSession` as a :class:`FaultState` that
degrades/flaps NIC links through the fabric's incremental re-rating,
slows straggler cores, inserts OS-noise pulses into compute, and jitters
DVFS/T-state transition latencies.  Same plan ⇒ bit-identical run.

Quick start::

    from repro import FaultPlan, LinkDegrade, MpiJob, OsNoise

    plan = FaultPlan(seed=7, injectors=(
        LinkDegrade(factor=0.5, node_fraction=0.25),
        OsNoise(period_s=1e-3, pulse_s=25e-6),
    ))
    job = MpiJob(64, faults=plan)

The CLI's ``--faults`` flag parses its spec with :func:`parse_fault_spec`
and ships the plan to every cell as plain data (``FaultPlan.to_dict()``);
the cell executor rebuilds it and hands it to its session the same way.
"""

from .plan import (
    FaultPlan,
    FaultSpecError,
    LinkDegrade,
    LinkFlap,
    OsNoise,
    Straggler,
    TransitionJitter,
    parse_fault_spec,
)
from .state import FaultReport, FaultState

__all__ = [
    "FaultPlan",
    "FaultReport",
    "FaultSpecError",
    "FaultState",
    "LinkDegrade",
    "LinkFlap",
    "OsNoise",
    "Straggler",
    "TransitionJitter",
    "parse_fault_spec",
]
