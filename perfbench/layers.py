"""The traced run: per-layer host self time and exact work counts.

Timing wrappers are installed on the simulator's classes and functions
from here, so no program file changes.  A :class:`LayerClock` charges
host time to whichever layer is on top of the span stack: entering a
wrapped function pushes its layer, returning pops it, and the interval
between two boundary crossings goes to the layer that ran it.  A layer's
self time is therefore its spans minus the child spans inside them, and
the layer times tile the timed region; time outside every span is the
``untraced`` remainder (the benchmark's own loop).

Two details keep the attribution honest:

* The MPI, collective and governor entry points are generator
  functions.  Calling one only creates the generator, so the wrapper
  times each *resumption* (:func:`timed_resumptions`), not the creation.
* The accountant binds its core-state listener when a session is built,
  and the fabric binds ``_flush``/``_on_timer`` when it arms them, so
  :func:`install` must run before any session of the traced pass exists.
  :func:`uninstall` restores the originals for the untraced passes.

Hooks are looked up by name.  A hook whose target no longer exists is
skipped and reported in ``missing`` rather than failing the run; its
time then lands in the enclosing layer.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import types
from time import perf_counter
from typing import Dict, List, Tuple

UNTRACED = "untraced"

#: Layer of each hooked class or function, named after ``src/repro``
#: modules: (module, class or None, attribute names).  ``apps``, ``obs``,
#: ``campaign``, ``cli``, ``models`` and ``microbench`` are thin drivers
#: or off the timed path; their time lands in the enclosing span.
HOOKS: Dict[str, List[Tuple[str, str, Tuple[str, ...]]]] = {
    "sim": [
        ("repro.sim.engine", "Environment",
         ("run", "call_at", "call_after", "defer")),
    ],
    "mpi": [
        ("repro.mpi.p2p", "MessageEngine",
         ("post_send", "post_recv", "_deliver_eager", "_rendezvous",
          "_wake_endpoints", "_complete_recv")),
        # Collectives call the private helpers directly, so they are
        # boundaries too.
        ("repro.mpi.context", "RankContext",
         ("isend", "irecv", "send", "recv", "waitall", "waitany",
          "sendrecv", "compute", "idle", "scale_frequency", "throttle",
          "_wait", "_overhead", "alltoall", "alltoallv", "bcast", "reduce",
          "allreduce", "allgather", "scatter", "gather", "reduce_scatter",
          "scan", "barrier")),
    ],
    "collectives": [
        ("repro.collectives.registry", "CollectiveEngine",
         ("alltoall", "alltoallv", "bcast", "reduce", "allreduce",
          "allgather", "scatter", "gather", "reduce_scatter", "scan",
          "barrier")),
    ],
    "network": [
        ("repro.network.ibnet", "IBNetwork",
         ("transfer_inter", "transfer_shm", "dvfs_changed")),
        ("repro.network.fabric", "FabricBase",
         ("transfer", "capacities_changed")),
        ("repro.network.fabric", "ScalarFabric",
         ("capacities_changed", "_on_timer")),
        ("repro.network.kernel", "VectorFabric",
         ("transfer", "capacities_changed", "_flush", "_on_timer")),
    ],
    "cluster": [
        ("repro.cluster.cpu", "Core",
         ("set_frequency", "set_tstate", "set_activity")),
        ("repro.cluster.cpu", "Socket", ("set_frequency", "set_tstate")),
    ],
    "runtime": [
        ("repro.runtime.governor", "Governor",
         ("call_begin", "call_end", "wait_begin", "wait_end",
          "wait_restored", "transfer_starting", "_theta_fired",
          "finish_run")),
        ("repro.runtime.arbiter", "PowerArbiter",
         ("record_wait", "job_started", "rank_finished", "_tick",
          "finish_run")),
    ],
    "faults": [
        ("repro.faults.state", "FaultState",
         ("perturb_compute", "dvfs_latency_s", "throttle_latency_s",
          "_link_event", "finish_run")),
    ],
    "power": [
        ("repro.power.accounting", "EnergyAccountant",
         ("_on_change_columnar", "_on_change_object", "finalize",
          "total_energy_j")),
    ],
    "runner": [
        ("repro.runner.cells", None, ("execute_cell",)),
        ("repro.runner.pool", None, ("run_cells",)),
        ("repro.runner.cache", None, ("cache_key",)),
        ("repro.runner.cache", "ResultCache", ("get", "put")),
    ],
}


def _hook_names(layer: str) -> Tuple[str, ...]:
    """Names ("Class.attr", or "module.function") of a layer's hooks."""
    return tuple(
        f"{class_name or module_name}.{attr}"
        for module_name, class_name, attrs in HOOKS[layer]
        for attr in attrs
    )


#: Counter name -> the hooks whose calls it counts.
CALL_COUNTERS: Dict[str, Tuple[str, ...]] = {
    "sim.timers": ("Environment.call_at", "Environment.call_after",
                   "Environment.defer"),
    "mpi.sends": ("MessageEngine.post_send",),
    "mpi.recvs": ("MessageEngine.post_recv",),
    "collectives.calls": _hook_names("collectives"),
    "network.transfers": ("FabricBase.transfer", "VectorFabric.transfer"),
    "cluster.state_changes": ("Core.set_frequency", "Core.set_tstate",
                              "Core.set_activity"),
    "runtime.hook_calls": _hook_names("runtime"),
    "faults.perturbations": tuple(
        name for name in _hook_names("faults") if name != "FaultState.finish_run"
    ),
    "power.listener_calls": ("EnergyAccountant._on_change_columnar",
                             "EnergyAccountant._on_change_object"),
    "runner.cells_executed": ("repro.runner.cells.execute_cell",),
}

#: Generator hooks that run as engine processes rather than under
#: ``yield from``.
PROCESS_BODIES = ("MessageEngine._deliver_eager", "MessageEngine._rendezvous")

#: Hooks whose own inclusive time is reported (metric -> hook).
INCLUSIVE = {
    "runner.cache_get_s": "ResultCache.get",
    "runner.cache_put_s": "ResultCache.put",
}


class LayerClock:
    """Host self time per layer, kept in memory for one timed region.

    The Python call stack is the span stack: a wrapper remembers the
    layer it interrupted in a local and restores it on the way out, so
    the clock itself only holds the current layer and the time of the
    last boundary crossing.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys((*HOOKS, UNTRACED), 0.0)
        self.calls: Dict[str, int] = {}
        self.inclusive_s: Dict[str, float] = {}
        #: Environments and fabrics built inside the region.
        self.environments: list = []
        self.fabrics: list = []
        self.layer = UNTRACED
        self.t = perf_counter()

    def reset(self) -> None:
        """Start a timed region with every total at zero."""
        self.__init__()

    def close(self) -> None:
        """Charge the time since the last boundary to the current layer."""
        now = perf_counter()
        self.self_s[self.layer] += now - self.t
        self.t = now


def timed_resumptions(gen, layer: str, clock: LayerClock):
    """Delegate to ``gen`` as ``yield from`` would (PEP 380), timing each
    of its resumptions as a span of ``layer``.

    A generator rather than a class with ``send``/``throw``: CPython
    resumes it several times faster, which keeps the tracing overhead
    (and the share of it charged to the layers) small.
    """
    send = gen.send
    value = None
    thrown = None
    while True:
        outer = clock.layer
        now = perf_counter()
        clock.self_s[outer] += now - clock.t
        clock.t = now
        clock.layer = layer
        try:
            item = send(value) if thrown is None else gen.throw(thrown)
        except StopIteration as stop:
            return stop.value
        finally:
            now = perf_counter()
            clock.self_s[layer] += now - clock.t
            clock.t = now
            clock.layer = outer
        thrown = None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into gen, as yield from does
            thrown = exc


def _wrap(fn, layer: str, name: str, clock: LayerClock):
    """``fn`` as a span of ``layer`` that counts its calls under ``name``.

    The wrappers look the clock's dicts up on every call because
    :meth:`LayerClock.reset` replaces them.
    """
    if inspect.isgeneratorfunction(fn):
        spawned = name in PROCESS_BODIES

        def traced_gen(*args, **kwargs):
            calls = clock.calls
            calls[name] = calls.get(name, 0) + 1
            gen = fn(*args, **kwargs)
            # A generator made inside its own layer runs only inside its
            # maker's resumptions (``yield from``), so it needs no proxy;
            # a process body is resumed by the engine and always does.
            if clock.layer == layer and not spawned:
                return gen
            return timed_resumptions(gen, layer, clock)

        return traced_gen
    timed = name in INCLUSIVE.values()

    def traced(*args, **kwargs):
        calls = clock.calls
        calls[name] = calls.get(name, 0) + 1
        outer = clock.layer
        if outer == layer and not timed:
            return fn(*args, **kwargs)
        start = now = perf_counter()
        clock.self_s[outer] += now - clock.t
        clock.t = now
        clock.layer = layer
        try:
            return fn(*args, **kwargs)
        finally:
            now = perf_counter()
            clock.self_s[layer] += now - clock.t
            clock.t = now
            clock.layer = outer
            if timed:
                inc = clock.inclusive_s
                inc[name] = inc.get(name, 0.0) + now - start

    return traced


def _registering_init(init, clock: LayerClock, built: str):
    def registering_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        getattr(clock, built).append(self)

    return registering_init


class Tracer:
    """Installs and removes the wrappers of :data:`HOOKS`."""

    def __init__(self) -> None:
        self.clock = LayerClock()
        self.missing: List[str] = []
        self._saved: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.missing = []
        clock = self.clock
        for layer, hooks in HOOKS.items():
            for module_name, class_name, attrs in hooks:
                module = importlib.import_module(module_name)
                owner = module if class_name is None else getattr(module, class_name, None)
                if owner is None:
                    self.missing.append(f"{module_name}.{class_name}")
                    continue
                for attr in attrs:
                    name = f"{class_name or module_name}.{attr}"
                    fn = owner.__dict__.get(attr)
                    if not isinstance(fn, types.FunctionType):
                        self.missing.append(f"{module_name}: {name}")
                        continue
                    wrapped = _wrap(fn, layer, name, clock)
                    if class_name is not None:
                        self._patch(owner, attr, wrapped)
                        continue
                    # A module function is also bound by name in every
                    # module that imported it: rebind those references too.
                    for other in list(sys.modules.values()):
                        if (getattr(other, "__name__", "").startswith("repro")
                                and getattr(other, attr, None) is fn):
                            self._patch(other, attr, wrapped)
        from repro.network.fabric import FabricBase
        from repro.sim.engine import Environment

        # Keep every environment and fabric built in the region: their
        # own work counters are read after it.
        for cls, built in ((Environment, "environments"), (FabricBase, "fabrics")):
            self._patch(cls, "__init__", _registering_init(cls.__init__, clock, built))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- results -----------------------------------------------------------
    def counters(self, results) -> Dict[str, float]:
        """Exact work counts of the last timed region."""
        clock = self.clock
        out: Dict[str, float] = {
            name: sum(clock.calls.get(h, 0) for h in hooks)
            for name, hooks in CALL_COUNTERS.items()
        }
        out["sim.events"] = sum(env.events_processed for env in clock.environments)
        out["network.rerate_calls"] = sum(f.rerate_calls for f in clock.fabrics)
        out["network.flows_rerated"] = sum(f.flows_rerated for f in clock.fabrics)
        out["runtime.drops"] = sum(
            (r.governor or {}).get("drops", 0) for r in results if r is not None
        )
        out["runtime.rebalances"] = sum(
            (r.arbiter or {}).get("rebalances", 0) for r in results if r is not None
        )
        return out
