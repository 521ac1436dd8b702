"""The paper's tables and figures: per-point computations, results, charts.

Each sharded artifact (Tables 1-4, Figs. 1-3, the validation campaign)
runs through one loop, its campaign definition in
:mod:`repro.runner.campaigns`:
``repro.runner.run_inline("fig1")`` runs it in-process, and
``repro.runner.run_campaign`` shards it.
"""

from repro.experiments.ascii_chart import line_chart
from repro.experiments.backend_comparison import (
    render_backend_comparison,
    run_backend_comparison,
)
from repro.experiments.fig1 import render_fig1
from repro.experiments.fig2 import render_fig2
from repro.experiments.fig3 import (
    DEFAULT_FAILURE_PROBABILITIES,
    DEFAULT_UTILIZATIONS,
    FIG3_PANELS,
    PanelConfig,
    render_fig3_panel,
)
from repro.experiments.fms_sweep import (
    render_sweep_chart,
    u_mc_degrade,
    u_mc_kill,
)
from repro.experiments.results import ExperimentResult
from repro.experiments.sensitivity import (
    sweep_degradation_factor,
    sweep_operation_hours,
    sweep_p_hi,
)
from repro.experiments.overhead_study import run_overhead_study
from repro.experiments.tables import (
    example31_taskset,
    table1,
    table2_example31,
    table3_example41,
    table4_fms,
)

__all__ = [
    "line_chart",
    "render_backend_comparison",
    "run_backend_comparison",
    "render_fig1",
    "render_fig2",
    "DEFAULT_FAILURE_PROBABILITIES",
    "DEFAULT_UTILIZATIONS",
    "FIG3_PANELS",
    "PanelConfig",
    "render_fig3_panel",
    "render_sweep_chart",
    "u_mc_degrade",
    "u_mc_kill",
    "ExperimentResult",
    "sweep_degradation_factor",
    "sweep_operation_hours",
    "sweep_p_hi",
    "run_overhead_study",
    "example31_taskset",
    "table1",
    "table2_example31",
    "table3_example41",
    "table4_fms",
]
