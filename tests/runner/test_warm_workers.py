"""Warm-worker path: substrate cache and instrumented sweeps.

The tentpole claims of the one-execution-path refactor:

* the per-process substrate cache rebuilds the frozen
  (cluster, network, power) spec triple at most once per unique
  signature, however many cells share it;
* governed and faulted cells flow through ``run_cells`` with their
  configs reconstructed in-worker, and ``jobs=4``, ``jobs=1`` and a
  warm-cache rerun produce byte-identical results *including* the
  GovernorReport/FaultReport payloads and captured metrics;
* a ``use_runner`` overlay folds exactly the overlaid cells' reports
  into ``scope.reports``, checked against plain sums over the results.
"""

import json

import pytest

from repro.bench import CELL_PLANS, instrument_cells, run_plan, use_runner
from repro.bench.experiments import plan_ext_faults, plan_ext_governor_alltoall
from repro.cluster.specs import ClusterSpec
from repro.runner import (
    ResultCache,
    SUBSTRATE_COUNTERS,
    SweepCell,
    SweepStats,
    clear_memo,
    clear_substrate_cache,
    run_cells,
    shutdown_pool,
)


@pytest.fixture(autouse=True)
def _fresh_state():
    clear_memo()
    clear_substrate_cache()
    yield
    clear_memo()
    clear_substrate_cache()
    shutdown_pool()


def _collective(nbytes, n_ranks=16, cluster=None, **extra):
    params = {"op": "alltoall", "nbytes": nbytes, "n_ranks": n_ranks}
    if cluster is not None:
        params["cluster"] = cluster.to_dict()
    params.update(extra)
    return SweepCell("warm-test", "collective", params,
                     label=f"alltoall/{nbytes}")


def _dicts(results):
    out = []
    for r in results:
        d = r.to_dict()
        d.pop("wall_time_s")  # host-side noise, not simulated content
        out.append(d)
    return out


# -- substrate cache --------------------------------------------------
def test_substrate_rebuilt_once_per_unique_signature():
    small = ClusterSpec.with_shape(nodes=2, sockets=2, cores_per_socket=4)
    cells = [
        _collective(1 << 10),                  # default testbed
        _collective(2 << 10),                  # same signature
        _collective(1 << 10, cluster=small),   # second signature
        _collective(2 << 10, cluster=small),   # same again
        _collective(4 << 10),                  # first signature again
    ]
    run_cells(cells, jobs=1)
    assert SUBSTRATE_COUNTERS["misses"] == 2   # one rebuild per signature
    assert SUBSTRATE_COUNTERS["hits"] == 3
    assert SUBSTRATE_COUNTERS["rebuild_s"] >= 0.0


def test_substrate_counters_reach_stats():
    stats = SweepStats()
    run_cells([_collective(1 << 10), _collective(2 << 10)], jobs=1,
              stats=stats)
    assert stats.substrate_misses == 1
    assert stats.substrate_hits == 1


# -- instrumented cells through every layer ---------------------------
def _governed_faulted_cells():
    from repro.faults import parse_fault_spec
    from repro.runtime import GovernorConfig, GovernorPolicy

    governor = GovernorConfig(policy=GovernorPolicy("countdown")).to_dict()
    faults = parse_fault_spec(
        "degrade:factor=0.6,frac=0.25;noise:period=500us,pulse=20us,frac=0.25",
        seed=7,
    ).to_dict()
    bare = [_collective(n, compute_s=200e-6) for n in (1 << 10, 4 << 10)]
    cells, overlaid = instrument_cells(bare, governor, faults)
    assert overlaid == [("governor", "faults"), ("governor", "faults")]
    return cells


def test_instrumented_cells_jobs4_and_warm_cache_identical(tmp_path,
                                                           monkeypatch):
    from repro.obs.metrics import MetricsRegistry
    from repro.runner import pool

    monkeypatch.setattr(pool, "_available_cpus", lambda: 4)
    cache = ResultCache(tmp_path)
    cells = _governed_faulted_cells()

    def sweep(jobs):
        clear_memo()
        registry = MetricsRegistry()
        results = run_cells(cells, jobs=jobs, cache=cache, metrics=registry)
        return (
            _dicts(results),
            json.dumps(registry.snapshot(), sort_keys=True),
        )

    inline, inline_metrics = sweep(1)
    stats = SweepStats()
    clear_memo()
    registry = MetricsRegistry()
    parallel = run_cells(cells, jobs=4, cache=cache, stats=stats,
                         metrics=registry)
    parallel_metrics = json.dumps(registry.snapshot(), sort_keys=True)
    warm, warm_metrics = sweep(1)

    # Reports travelled: every instrumented result carries both payloads.
    for r in inline:
        assert r["governor"] is not None and r["governor"]["drops"] >= 0
        assert r["faults"] is not None and r["faults"]["seed"] == 7
    assert _dicts(parallel) == inline
    assert warm == inline
    assert parallel_metrics == inline_metrics
    assert warm_metrics == inline_metrics


def _countdown():
    from repro.runtime import GovernorConfig, GovernorPolicy

    return GovernorConfig(policy=GovernorPolicy("countdown")).to_dict()


def _degrade(seed):
    from repro.faults import parse_fault_spec

    return parse_fault_spec("degrade:factor=0.5,frac=0.5", seed=seed).to_dict()


def test_use_runner_overlay_collects_reports_and_replays_from_cache(tmp_path):
    """CLI semantics: use_runner(governor=..., faults=...) overlays plan
    cells, folds their reports into scope.reports, and a warm-cache
    rerun folds the identical snapshot without executing anything."""
    governor = _countdown()
    faults = _degrade(seed=3)
    cache = ResultCache(tmp_path)

    def sweep():
        clear_memo()
        stats = SweepStats()
        with use_runner(jobs=1, cache=cache, stats=stats,
                        governor=governor, faults=faults) as scope:
            headers, rows, _ = run_plan("fig2c", sizes=(4, 64))
        return (
            json.dumps(scope.reports.snapshot(), sort_keys=True),
            stats,
            json.dumps([headers, [list(r) for r in rows]], sort_keys=True),
        )

    cold_reports, cold_stats, cold_series = sweep()
    warm_reports, warm_stats, warm_series = sweep()

    assert cold_stats.unique_executed == 2
    assert warm_stats.cache_hits == 2 and warm_stats.executed == 0
    assert warm_series == cold_series
    assert warm_reports == cold_reports
    series = json.loads(cold_reports)["series"]
    assert series["governor.drops"]["n"] == 2
    assert series["faults.link_events"]["n"] == 2
    assert series["faults.seed"]["min"] == series["faults.seed"]["max"] == 3


def test_reports_fold_matches_plain_sums_over_overlaid_cells():
    """Cross-check of the one fold: every ``reports`` series equals a
    plain count/sum/min/max over the report dicts of the cells the
    overlay touched, computed here from run_cells results directly."""
    from repro.runtime import ArbiterConfig, ArbiterPolicy

    overlay = {
        "governor": _countdown(),
        "faults": _degrade(seed=3),
        "arbiter": ArbiterConfig(policy=ArbiterPolicy("redistribute"),
                                 power_cap_w=16000.0).to_dict(),
    }
    with use_runner(jobs=1, **overlay) as scope:
        run_plan("fig2c")
    series = scope.reports.snapshot()["series"]

    # fig2c pins no instrumentation, so every cell takes all three.
    cells = [
        SweepCell(c.experiment, c.kind, {**c.params, **overlay}, c.label)
        for c in CELL_PLANS["fig2c"]().cells
    ]
    expected = {}
    for result in run_cells(cells, jobs=1):
        for ns in overlay:
            for key, value in getattr(result, ns).items():
                if isinstance(value, str):
                    continue
                n, total, lo, hi = expected.get(f"{ns}.{key}",
                                                (0, 0, value, value))
                expected[f"{ns}.{key}"] = (n + 1, total + value,
                                           min(lo, value), max(hi, value))

    assert {"governor.drops", "faults.link_events", "arbiter.ticks",
            "arbiter.donors_peak", "arbiter.max_budget_w"} <= set(expected)
    assert {
        name: (s["n"], s["sum"], s["min"], s["max"])
        for name, s in series.items()
    } == expected
    assert all(n == len(cells) for n, *_ in expected.values())
    assert "governor.policy" not in series
    assert "faults.injectors" not in series


def test_plan_pinned_governor_cells_are_not_folded():
    """ext-faults pins a governor on its governed columns; only the
    No-Power cells take the overlay, so only their reports are folded."""
    from repro.runtime import GovernorConfig, GovernorPolicy

    overlay = GovernorConfig(policy=GovernorPolicy("countdown"),
                             theta_s=123e-6).to_dict()
    kw = {"sizes": (64 << 10,), "iterations": 1, "n_ranks": 16}
    with use_runner(jobs=1, governor=overlay) as scope:
        run_plan("ext-faults", **kw)
    series = scope.reports.snapshot()["series"]

    cells = plan_ext_faults(**kw).cells
    unpinned = [c for c in cells if "governor" not in c.params]
    assert 0 < len(unpinned) < len(cells)
    assert series["governor.drops"]["n"] == len(unpinned)
    theta = series["governor.theta_us"]
    assert theta["min"] == theta["max"] == pytest.approx(123.0)


def test_plan_declared_configs_win_over_overlay():
    """ext-governor/ext-faults pin per-cell configs; a CLI overlay must
    not clobber them (it only fills cells that carry none)."""
    from repro.runtime import GovernorConfig, GovernorPolicy

    # A theta no plan cell uses, so the overlay is distinguishable from
    # the plan's own policy grid.
    overlay = GovernorConfig(policy=GovernorPolicy("predictive"),
                             theta_s=123e-6).to_dict()
    plan = plan_ext_governor_alltoall(sizes=(64 << 10,), iterations=1,
                                     n_ranks=16)
    cells, overlaid = instrument_cells(plan.cells, overlay, None)
    for cell, names in zip(cells, overlaid):
        if names:
            assert names == ("governor",)
            assert cell.params["governor"] == overlay
        else:
            assert cell.params["governor"] != overlay


def test_ext_plans_execute_via_runner_with_in_worker_reconstruction():
    """Every instrumented ext plan runs through run_cells and its results
    carry the in-worker-reconstructed reports."""
    plan = plan_ext_faults(sizes=(64 << 10,), iterations=1, n_ranks=16)
    stats = SweepStats()
    results = run_cells(plan.cells, jobs=1, stats=stats)
    assert stats.unique_executed == len(plan.cells)
    faulted = [r for r in results if r.faults is not None]
    governed = [r for r in results if r.governor is not None]
    assert faulted and governed  # the mild column + the governed schemes
    headers, rows, _ = plan.assemble(results)
    assert len(rows) == len(plan.cells)
