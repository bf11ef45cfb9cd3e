"""Plain-text table/series formatting for experiment output.

No plotting dependencies: every figure is reproduced as the series of
points the paper plots, every table as rows, in monospace text.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Sequence


def format_value(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render an aligned monospace table."""
    str_rows: List[List[str]] = [[format_value(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_experiment(title: str, headers: Sequence[str], rows, notes: str = "") -> str:
    """Full experiment block: banner, table, optional notes."""
    out = [f"== {title} ==", format_table(headers, rows)]
    if notes:
        out.append(notes)
    return "\n".join(out) + "\n"


def save_report(name: str, text: str, results_dir: str = "results") -> str:
    """Write an experiment report under ``results/`` (created on demand)."""
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def bytes_label(n: int) -> str:
    """1024 → "1K", 1048576 → "1M" (the paper's axis labels)."""
    if n >= 1 << 20 and n % (1 << 20) == 0:
        return f"{n >> 20}M"
    if n >= 1 << 10 and n % (1 << 10) == 0:
        return f"{n >> 10}K"
    return str(n)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def render_sweep_report(stats: dict) -> str:
    """Render the last sweep's runner accounting (``repro bench-report``).

    ``stats`` is the dict persisted by
    :func:`repro.runner.save_sweep_stats`: cache hit/miss counters plus
    per-cell ``(label, wall_seconds)`` timings.
    """
    lines = [f"== sweep report: {stats.get('experiment') or '(unnamed)'} =="]
    total = stats.get("cells_total", 0)
    hits = stats.get("memo_hits", 0) + stats.get("cache_hits", 0)
    rate = hits / total if total else 0.0
    summary_rows = [
        ("cells", total),
        ("memo hits", stats.get("memo_hits", 0)),
        ("cache hits", stats.get("cache_hits", 0)),
        ("executed", stats.get("unique_executed", 0)),
        ("hit rate", f"{rate:.0%}"),
        ("jobs", stats.get("jobs", 1)),
        ("elapsed (s)", stats.get("elapsed_s", 0.0)),
    ]
    jobs_eff = stats.get("jobs_effective", stats.get("jobs", 1))
    if jobs_eff != stats.get("jobs", 1):
        summary_rows.append(("jobs effective", jobs_eff))
    cache = stats.get("cache")
    if cache:
        summary_rows.append(
            ("disk cache h/m/w",
             f"{cache.get('hits', 0)}/{cache.get('misses', 0)}"
             f"/{cache.get('writes', 0)}")
        )
        if cache.get("write_errors"):
            summary_rows.append(
                ("disk cache write errors", cache["write_errors"])
            )
    if stats.get("cache_dir"):
        summary_rows.append(("cache dir", stats["cache_dir"]))
    if stats.get("substrate_hits", 0) or stats.get("substrate_misses", 0):
        summary_rows.append(
            ("substrate cache h/m",
             f"{stats.get('substrate_hits', 0)}"
             f"/{stats.get('substrate_misses', 0)}")
        )
        summary_rows.append(
            ("substrate rebuild (s)", stats.get("substrate_rebuild_s", 0.0))
        )
    if stats.get("batches"):
        summary_rows.append(("worker batches", stats["batches"]))
        summary_rows.append(("warm-worker batches", stats.get("worker_reuse", 0)))
        summary_rows.append(("workers used", stats.get("workers_used", 0)))
    if stats.get("jobs_clamped"):
        summary_rows.append(
            ("note", "jobs clamped to the usable CPU count")
        )
    if stats.get("fell_back_inline"):
        summary_rows.append(("note", "pool unavailable; ran inline"))
    lines.append(format_table(["metric", "value"], summary_rows))
    timings = [(label, float(t)) for label, t in stats.get("timings", [])]
    if timings:
        walls = sorted(t for _label, t in timings)
        lines.append("")
        lines.append(
            format_table(
                ["cell timings", "value (s)"],
                [
                    ("p50", _percentile(walls, 0.50)),
                    ("p95", _percentile(walls, 0.95)),
                    ("max", walls[-1]),
                    ("total", sum(walls)),
                ],
            )
        )
        slowest = sorted(timings, key=lambda lt: lt[1], reverse=True)[:5]
        lines.append("")
        lines.append(format_table(["slowest cells", "wall (s)"], slowest))
    return "\n".join(lines) + "\n"


def render_metrics_report(snapshot: dict, title: str = "metrics") -> str:
    """Render a metrics snapshot (``repro bench-report --metrics``).

    ``snapshot`` is :meth:`repro.obs.metrics.MetricsRegistry.snapshot`
    output: counters, gauges, and folded time-series stats — the
    ``--metrics`` registry, or the sweep's folded per-run ``reports``.
    """
    lines = [f"== {title} =="]
    counters = snapshot.get("counters") or {}
    gauges = snapshot.get("gauges") or {}
    scalar_rows = [(name, counters[name]) for name in sorted(counters)]
    scalar_rows += [(name, gauges[name]) for name in sorted(gauges)]
    if scalar_rows:
        lines.append(format_table(["counter / gauge", "value"], scalar_rows))
    series = snapshot.get("series") or {}
    if series:
        rows = [
            (
                name,
                int(series[name].get("n", 0)),
                series[name].get("mean", 0.0),
                series[name].get("twa", 0.0),
                series[name].get("min", 0.0),
                series[name].get("max", 0.0),
            )
            for name in sorted(series)
        ]
        lines.append("")
        lines.append(
            format_table(["series", "n", "mean", "twa", "min", "max"], rows)
        )
    if not scalar_rows and not series:
        lines.append("(empty snapshot)")
    return "\n".join(lines) + "\n"
