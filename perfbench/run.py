"""Host-time benchmark of the simulator: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload alltoall-plain --seed 7 --seconds 30 --trace 0

``--trace 0`` repeats the workload's cells, untraced, for ``--seconds``
and reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``).  ``--trace 1`` alternates untraced and traced passes
for ``--seconds`` and reports the per-layer metrics (see ``layers.py``).
Every pass checks the simulated outputs; a cell that raises or whose
output differs counts as failed.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"

#: Environment overrides that make the program differ from its default.
REFUSED_ENV = ("REPRO_SMALL_BATCH", "REPRO_JOBS", "REPRO_BENCH_QUICK")
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: The set-up probe: imports and cell construction in a fresh
#: interpreter, timed from inside it (interpreter start-up excluded).
_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.prepare(sys.argv[3], int(sys.argv[4]))
print(repr(time.perf_counter() - t0))
"""

#: The untraced remainder may be at most this share of the traced wall.
MAX_UNTRACED_FRAC = 0.02
#: "About 0": a layer's self time below this share of the traced wall.
NEGLIGIBLE_FRAC = 0.001


def host_provenance() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
    }


def measure_setup(workload: str, seed: int) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), str(BENCH_DIR),
             workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def sane(result) -> bool:
    """Physical plausibility, independent of the stored digests."""
    return all(
        math.isfinite(v) and v > 0
        for v in (result.duration_s, result.energy_j, result.average_power_w)
    )


class OutputCheck:
    """Counts failed cells against the reference digests.

    The reference is the stored digests when they apply at this seed,
    otherwise the first pass (so every later pass must repeat it).
    """

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def check(self, pas, label: str) -> None:
        self.problems.extend(f"{label}: {e}" for e in pas.errors)
        if self.reference is None and None not in pas.digests:
            self.reference = list(pas.digests)
        for i, (digest, result) in enumerate(zip(pas.digests, pas.results)):
            self.attempted += 1
            ok = (
                digest is not None
                and self.reference is not None
                and digest == self.reference[i]
                and sane(result)
            )
            if not ok:
                self.failed += 1
                self.problems.append(
                    f"{label}: cell {i} output {digest} != expected "
                    f"{None if self.reference is None else self.reference[i]}"
                )


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload, cells, check, seconds: float, seed: int) -> dict:
    import workloads

    setup_s = measure_setup(workload.name, seed)
    walls = []
    deadline = time.perf_counter() + seconds
    while True:
        pas = workloads.run_pass(workload, cells, WORK_DIR)
        walls.append(pas.wall_s)
        check.check(pas, f"pass {len(walls)}")
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"passes: {len(walls)}, wall_s per pass: "
          + " ".join(f"{w:.4f}" for w in walls))
    return {
        "wall_s": _metric(statistics.median(walls), "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def tiling_problems(clock, wall: float) -> list:
    """The traced pass's layer times must tile its wall time."""
    problems = []
    if clock.layer != layers.UNTRACED:
        problems.append(f"a {clock.layer} span is still open")
    if any(v < 0 for v in clock.self_s.values()):
        problems.append(f"negative self time: {clock.self_s}")
    total = sum(clock.self_s.values())
    if abs(total - wall) > 1e-3 * wall + 1e-4:
        problems.append(f"layer times sum to {total:.6f} s, wall is {wall:.6f} s")
    untraced = clock.self_s[layers.UNTRACED]
    if untraced > MAX_UNTRACED_FRAC * wall:
        problems.append(f"untraced remainder {untraced:.6f} s of {wall:.6f} s")
    return problems


def split_problems(name: str, self_s: dict, wall: float) -> list:
    """The workload split: governor and fault layers work only when a
    cell carries a governor and a fault plan."""
    problems = []
    for layer in ("runtime", "faults"):
        t = self_s.get(layer, 0.0)
        if name == "alltoall-plain" and t > NEGLIGIBLE_FRAC * wall:
            problems.append(f"{layer}.self_s = {t:.6f} s on the plain cell")
        if name == "alltoall-governed" and t <= 0.0:
            problems.append(f"{layer}.self_s = 0 on the governed cell")
    return problems


def traced_run(workload, cells, check, seconds: float) -> tuple:
    import workloads

    tracer = layers.Tracer()
    untraced_walls, traced_walls, self_samples = [], [], []
    inclusive_samples, counters, problems = [], None, []
    deadline = time.perf_counter() + seconds
    while True:
        plain = workloads.run_pass(workload, cells, WORK_DIR)
        untraced_walls.append(plain.wall_s)
        check.check(plain, f"untraced pass {len(untraced_walls)}")
        tracer.install()
        try:
            traced = workloads.run_pass(workload, cells, WORK_DIR, tracer.clock)
        finally:
            tracer.uninstall()
        n = len(untraced_walls)
        check.check(traced, f"traced pass {n}")
        if traced.digests != plain.digests:
            problems.append(f"pass {n}: traced outputs differ from untraced")
        clock = tracer.clock
        traced_walls.append(traced.wall_s)
        self_samples.append(dict(clock.self_s))
        inclusive_samples.append(dict(clock.inclusive_s))
        problems += [f"pass {n}: {p}" for p in tiling_problems(clock, traced.wall_s)]
        problems += [f"pass {n}: {p}" for p in
                     split_problems(workload.name, clock.self_s, traced.wall_s)]
        pass_counters = tracer.counters(traced.results)
        if counters is None:
            counters = pass_counters
        elif pass_counters != counters:
            problems.append(f"pass {n}: work counters differ: "
                            f"{pass_counters} != {counters}")
        if time.perf_counter() >= deadline:
            break
    if tracer.missing:
        print("trace: hooks not found (time lands in the caller): "
              + ", ".join(tracer.missing), file=sys.stderr)

    def med(samples, key):
        return statistics.median(s.get(key, 0.0) for s in samples)

    metrics = {f"{layer}.self_s": _metric(med(self_samples, layer), "s")
               for layer in layers.HOOKS}
    metrics["untraced.self_s"] = _metric(med(self_samples, layers.UNTRACED), "s")
    for name, hook in layers.INCLUSIVE.items():
        metrics[name] = _metric(med(inclusive_samples, hook), "s")
    for name, value in sorted(counters.items()):
        metrics[name] = _metric(value, "count")
    sim_self = metrics["sim.self_s"]["value"]
    metrics["sim.events_per_s"] = _metric(
        counters["sim.events"] / sim_self if sim_self > 0 else 0.0, "1/s")
    transfers = counters["network.transfers"]
    metrics["network.flows_rerated_per_transfer"] = _metric(
        counters["network.flows_rerated"] / transfers if transfers else 0.0, "ratio")
    traced_wall = statistics.median(traced_walls)
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.overhead_frac"] = _metric(
        traced_wall / statistics.median(untraced_walls) - 1.0, "ratio")
    summary = {
        "untraced_wall_s": untraced_walls,
        "traced_wall_s": traced_walls,
        "self_s": self_samples,
        "inclusive_s": inclusive_samples,
        "hook_calls": dict(sorted(tracer.clock.calls.items())),
        "missing_hooks": tracer.missing,
        "problems": problems,
    }
    return metrics, problems, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    overridden = [name for name in REFUSED_ENV if name in os.environ]
    if overridden:
        print(f"refusing to run: {', '.join(overridden)} set; the benchmark "
              "measures the program's defaults", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the simulator from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"repro imported from {repro.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    provenance = host_provenance()
    print("host: " + json.dumps(provenance, sort_keys=True))
    WORK_DIR.mkdir(exist_ok=True)
    cells = workloads.prepare(workload.name, args.seed)
    check = OutputCheck(workloads.stored_digests(workload.name, args.seed))
    print(f"workload {workload.name}: {len(cells)} cells, seed {args.seed}, "
          f"reference digests: {'stored' if check.reference else 'first pass'}")

    problems = []
    if args.trace:
        metrics, problems, summary = traced_run(workload, cells, check, args.seconds)
        summary.update(workload=workload.name, seed=args.seed,
                       host=provenance, metrics=metrics)
        out = WORK_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
        print(f"trace summary: {out.relative_to(ROOT)}")
    else:
        metrics = timed_run(workload, cells, check, args.seconds, args.seed)
    for problem in check.problems + problems:
        print(f"CHECK FAILED: {problem}")
    print(f"cells_attempted = {check.attempted}")
    print(f"cells_failed = {check.failed}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": check.failed == 0 and not problems,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
