"""The benchmark's workloads: which cells each one runs, and one timed pass.

Every workload drives the simulator only through its public entry
points, from one process: single-cell workloads call
:func:`repro.runner.cells.execute_cell`; the sweep workload calls
:func:`repro.runner.pool.run_cells` with ``jobs=1`` into an empty
:class:`repro.runner.ResultCache`, the path ``repro experiment`` takes.

Calls go through the module attributes (``cells.execute_cell``,
``pool.run_cells``) at call time, so the traced run's wrappers in
:mod:`layers` see them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.bench.experiments import CELL_PLANS
from repro.cluster.specs import ClusterSpec
from repro.faults.plan import parse_fault_spec
from repro.runner import cache as cache_mod
from repro.runner import cells as cells_mod
from repro.runner import pool as pool_mod
from repro.runner.cells import SweepCell

#: Seed of the stored output digests (``digests.json``).
DEFAULT_SEED = 7
#: The fault spec of the governed power-path capture (BENCH_power):
#: a quarter of the nodes at 60% NIC bandwidth plus OS noise on a
#: quarter of the cores.
FAULT_SPEC = "degrade:factor=0.6,frac=0.25;noise:period=500us,pulse=20us,frac=0.25"
ALLTOALL_BYTES = 64 << 10
DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Modules the workloads import lazily on their first cell.  Importing
#: them up front keeps that one-off cost in ``setup_s`` and out of the
#: first timed pass.
LAZY_MODULES = (
    "repro.apps",
    "repro.faults.scope",
    "repro.faults.state",
    "repro.network.kernel",
    "repro.obs.capture",
    "repro.power.meter",
    "repro.runtime.arbiter",
    "repro.runtime.governor",
    "repro.sim.session",
)


def _alltoall_cell(label: str, nodes: int, **extra) -> SweepCell:
    spec = ClusterSpec.with_shape(nodes)
    ranks = nodes * spec.node.sockets * spec.node.cpu.cores_per_socket
    return SweepCell(
        experiment="perfbench",
        kind="collective",
        params={
            "op": "alltoall",
            "nbytes": ALLTOALL_BYTES,
            "n_ranks": ranks,
            "mode": "none",
            "cluster": spec.to_dict(),
            **extra,
        },
        label=label,
    )


def plain_cells(seed: int) -> List[SweepCell]:
    """32 nodes x 8 cores, no governor, no faults: the seed is unused."""
    return [_alltoall_cell("alltoall/64K/32n/plain", 32)]


def governed_cells(seed: int) -> List[SweepCell]:
    """16 nodes x 8 cores under the countdown governor and seeded faults."""
    faults = parse_fault_spec(FAULT_SPEC, seed=seed).to_dict()
    return [
        _alltoall_cell(
            "alltoall/64K/16n/countdown+faults", 16,
            governor={"policy": "countdown"}, faults=faults,
        )
    ]


def sweep_cells(seed: int) -> List[SweepCell]:
    """Figs 7a and 8a, the arbiter study, and the 32-rank NAS FT cells
    of Fig 10: the seed is unused (every cell is seed-free)."""
    nas_ft = [
        cell for cell in CELL_PLANS["fig10"]().cells
        if cell.params["app"] == "nas-ft" and cell.params["ranks"] == 32
    ]
    return [
        *CELL_PLANS["fig7a"]().cells,
        *CELL_PLANS["fig8a"]().cells,
        *CELL_PLANS["ext-arbiter"]().cells,
        *nas_ft,
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], List[SweepCell]]
    #: True: one run_cells call into a fresh store; False: execute_cell.
    sweep: bool


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("alltoall-plain", plain_cells, sweep=False),
        Workload("alltoall-governed", governed_cells, sweep=False),
        Workload("paper-sweep", sweep_cells, sweep=True),
    )
}


def prepare(name: str, seed: int) -> List[SweepCell]:
    """Import everything the workload touches and build its cells."""
    import importlib

    for module in LAZY_MODULES:
        importlib.import_module(module)
    return WORKLOADS[name].build(seed)


# ---------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------
def output_digest(result) -> str:
    """sha256 of a cell's simulated output: ``CellResult.to_dict()``
    without the host wall time and the observability payload, as
    canonical JSON (floats in repr form, so equal digests mean
    byte-identical numbers)."""
    data = result.to_dict()
    data.pop("wall_time_s")
    data.pop("metrics")
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stored_digests(name: str, seed: int) -> Optional[List[str]]:
    """The committed digests of a workload, when they apply at ``seed``.

    A workload whose cells do not depend on the seed is checked against
    the stored digests at every seed; the governed workload only at the
    seed they were taken with.
    """
    data = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    entry = data["workloads"].get(name)
    if entry is None:
        return None
    if entry["seeded"] and seed != data["seed"]:
        return None
    return entry["digests"]


# ---------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------
@dataclass
class PassResult:
    wall_s: float
    #: Per cell: the output digest, or None when the cell failed.
    digests: List[Optional[str]]
    results: list
    errors: List[str]


def run_pass(
    workload: Workload, cells: List[SweepCell], work_dir: Path, clock=None
) -> PassResult:
    """Run every cell of ``workload`` once, cold: the in-process result
    memo and substrate cache are emptied first, and the sweep writes into
    a store that did not exist before the pass.

    ``clock`` (a :class:`layers.LayerClock`) is reset when the timed
    region starts and closed when it ends, so its layer times cover the
    same interval as ``wall_s``.
    """
    pool_mod.clear_memo()
    cells_mod.clear_substrate_cache()
    gc.collect()  # no garbage of the previous pass is collected inside this one
    errors: List[str] = []
    if workload.sweep:
        store = work_dir / f"store-{time.monotonic_ns()}"
        store.mkdir(parents=True)
        cache = cache_mod.ResultCache(store)
        stats = pool_mod.SweepStats()
        unique = len({json.dumps(c.spec(), sort_keys=True) for c in cells})
        if clock is not None:
            clock.reset()
        t0 = time.perf_counter()
        try:
            results = pool_mod.run_cells(cells, jobs=1, cache=cache, stats=stats)
        except Exception as exc:  # a failed sweep fails every one of its cells
            results = [None] * len(cells)
            errors.append(f"run_cells raised {exc!r}")
        wall = time.perf_counter() - t0
        if clock is not None:
            clock.close()
        if results[0] is not None and (
            stats.cache_hits or stats.memo_hits
            or stats.unique_executed != unique
            or cache.writes != unique or cache.write_errors
        ):
            errors.append(
                f"sweep did not execute every cell into the store: "
                f"{stats.to_dict()} writes={cache.writes} "
                f"write_errors={cache.write_errors}"
            )
            results = [None] * len(cells)
        shutil.rmtree(store, ignore_errors=True)
    else:
        results = []
        if clock is not None:
            clock.reset()
        t0 = time.perf_counter()
        for cell in cells:
            try:
                results.append(cells_mod.execute_cell(cell))
            except Exception as exc:  # counted as a failed cell, never skipped
                results.append(None)
                errors.append(f"{cell.label}: {exc!r}")
        wall = time.perf_counter() - t0
        if clock is not None:
            clock.close()
    digests = [None if r is None else output_digest(r) for r in results]
    return PassResult(wall, digests, results, errors)


def write_digests(work_dir: Path) -> None:
    """Regenerate ``digests.json``: one pass of every workload at
    :data:`DEFAULT_SEED`.  Run it only for an intended change of the
    simulated outputs, and say why in the change."""
    entries = {}
    for name, workload in WORKLOADS.items():
        cells = prepare(name, DEFAULT_SEED)
        pas = run_pass(workload, cells, work_dir)
        if pas.errors or None in pas.digests:
            raise SystemExit(f"{name}: {pas.errors}")
        entries[name] = {
            # Whether the cells depend on the seed (then the digests
            # apply at DEFAULT_SEED only).
            "seeded": cells != workload.build(DEFAULT_SEED + 1),
            "labels": [c.label for c in cells],
            "digests": pas.digests,
        }
    text = json.dumps({"seed": DEFAULT_SEED, "workloads": entries}, indent=1)
    DIGESTS_PATH.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":  # PYTHONPATH=src python3 perfbench/workloads.py
    write_digests(Path(__file__).resolve().parent.parent / ".perfbench-work")
