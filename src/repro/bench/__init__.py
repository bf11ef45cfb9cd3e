"""Experiment harness: one plan producer per paper table/figure
(:data:`CELL_PLANS`, run with :func:`run_plan`) + reporting."""

from .experiments import (
    CELL_PLANS,
    DEFAULT_FAULT_SPEC,
    FIG2A_SIZES,
    FIG2B_SIZES,
    FIG2C_SIZES,
    MODE_LABELS,
    MODES,
    POWER_FIG_SIZES,
    run_plan,
    RunnerScope,
    SweepPlan,
    instrument_cells,
    use_runner,
)
from .export import experiment_to_dict, load_json, save_json
from .profile import JobSample, SelfProfile
from .regression import RegressionError, check_against_baseline, refresh_baselines
from .report import (
    bytes_label,
    format_table,
    render_experiment,
    render_sweep_report,
    save_report,
)

__all__ = [
    "CELL_PLANS",
    "DEFAULT_FAULT_SPEC",
    "FIG2A_SIZES",
    "FIG2B_SIZES",
    "FIG2C_SIZES",
    "MODES",
    "MODE_LABELS",
    "POWER_FIG_SIZES",
    "RegressionError",
    "bytes_label",
    "check_against_baseline",
    "experiment_to_dict",
    "format_table",
    "instrument_cells",
    "JobSample",
    "load_json",
    "SelfProfile",
    "refresh_baselines",
    "render_experiment",
    "render_sweep_report",
    "run_plan",
    "RunnerScope",
    "save_json",
    "save_report",
    "SweepPlan",
    "use_runner",
]
