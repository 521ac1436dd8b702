"""The paper's tables and figures: per-point computations, results, charts.

Each sharded artifact (Tables 1-4, Figs. 1-3, the validation campaign)
runs through one loop, its campaign definition in
:mod:`repro.runner.campaigns`:
``repro.runner.run_inline("fig1")`` runs it in-process, and
``repro.runner.run_campaign`` shards it.

The names below resolve on first use, from their home modules, so
importing one experiment module (``repro.experiments.fig3``) loads no
other; ``overhead_study``, which loads :mod:`repro.sim`, loads only for
its own callers.
"""

import importlib

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

#: Each exported name's home module in this package.
_HOMES = {
    "line_chart": "ascii_chart",
    "render_backend_comparison": "backend_comparison",
    "run_backend_comparison": "backend_comparison",
    "render_fig1": "fig1",
    "render_fig2": "fig2",
    "DEFAULT_FAILURE_PROBABILITIES": "fig3",
    "DEFAULT_UTILIZATIONS": "fig3",
    "FIG3_PANELS": "fig3",
    "PanelConfig": "fig3",
    "render_fig3_panel": "fig3",
    "render_sweep_chart": "fms_sweep",
    "u_mc_degrade": "fms_sweep",
    "u_mc_kill": "fms_sweep",
    "ExperimentResult": "results",
    "sweep_degradation_factor": "sensitivity",
    "sweep_operation_hours": "sensitivity",
    "sweep_p_hi": "sensitivity",
    "run_overhead_study": "overhead_study",
    "example31_taskset": "tables",
    "table1": "tables",
    "table2_example31": "tables",
    "table3_example41": "tables",
    "table4_fms": "tables",
}


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)
