"""Multicore sweep: FT-MP acceptance ratio versus core count.

A figure the paper never had: how partitioned FT-EDF-VD acceptance
scales with the number of cores ``m`` when the offered load scales
proportionally (target utilization ``= per-core utilization x m``).  Two
curves per sweep:

- **heuristic** — acceptance with the packing portfolio alone
  (``PlanOptions(exact=False)``), the production-cheap configuration;
- **planned** — acceptance with the exact branch-and-bound on top; the
  difference (``exact_rescues``) is precisely the sets the heuristics
  mis-packed, i.e. the measured price of heuristic partitioning.

Because the planner's exact stage starts from the heuristic incumbent,
``planned`` acceptance dominates ``heuristic`` acceptance set by set —
the sweep also counts ``inconclusive`` verdicts (planner node budget
exhausted), which is the honest-uncertainty band of the planned curve.

Task sets come from the paper's Appendix C generator (HI=B, LO=D,
killing); like Fig. 3 the per-set RNG is seeded ``[seed, point_index,
set_index]``, so each core count draws its own sets wherever its shard of
the ``multicore`` campaign (:mod:`repro.runner.campaigns`) runs.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends import make_backend
from repro.experiments.ascii_chart import line_chart
from repro.experiments.results import ExperimentResult
from repro.gen.taskset import PAPER_CONFIG, generate_taskset
from repro.model.criticality import DualCriticalitySpec
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.planner import PlanOptions, ft_schedule_partitioned

__all__ = [
    "DEFAULT_CORES",
    "DEFAULT_PER_CORE_UTILIZATION",
    "DEFAULT_PLANNER_MAX_NODES",
    "MULTICORE_COLUMNS",
    "multicore_point",
    "multicore_skeleton",
    "render_multicore",
]

#: Core counts on the x-axis.
DEFAULT_CORES: tuple[int, ...] = (1, 2, 3, 4)

#: Per-core target utilization; the total generator target is this times
#: ``m``.  Chosen in the steep region of the uniprocessor acceptance
#: curve so partitioning effects are visible.
DEFAULT_PER_CORE_UTILIZATION: float = 0.7

#: Branch-and-bound budget per planning run inside the sweep — small
#: enough for campaign shards, large enough that small instances finish
#: exactly (inconclusive counts are reported either way).
DEFAULT_PLANNER_MAX_NODES: int = 6000

MULTICORE_COLUMNS: tuple[str, ...] = (
    "m",
    "acceptance_heuristic",
    "acceptance_planned",
    "exact_rescues",
    "inconclusive",
    "sets",
)

#: The sweep's generator criticality levels: HI=B, LO=D (killing allowed).
_SPEC = DualCriticalitySpec.from_names("B", "D")


def multicore_point(
    m: int,
    point_index: int,
    per_core_utilization: float,
    sets_per_point: int,
    backend_name: str,
    max_nodes: int,
    seed: int,
) -> tuple[int, float, float, int, int, int]:
    """One data point: heuristic/planned acceptance at one core count."""
    backend = make_backend(backend_name)
    heuristic_only = PlanOptions(exact=False)
    planned = PlanOptions(exact=True, max_nodes=max_nodes)
    target = per_core_utilization * m
    heuristic_ok = 0
    planned_ok = 0
    rescues = 0
    inconclusive = 0
    with obs_trace.span(
        "multicore.point", m=m, utilization=target, sets=sets_per_point,
        backend=backend_name,
    ):
        for set_index in range(sets_per_point):
            rng = np.random.default_rng([seed, point_index, set_index])
            taskset = generate_taskset(target, _SPEC, rng, PAPER_CONFIG)
            heuristic = ft_schedule_partitioned(
                taskset, m, backend, plan_options=heuristic_only
            )
            full = ft_schedule_partitioned(
                taskset, m, backend, plan_options=planned
            )
            heuristic_ok += heuristic.success
            planned_ok += full.success
            rescues += full.success and not heuristic.success
            inconclusive += full.inconclusive
        obs_metrics.inc("experiments.multicore.sets", sets_per_point)
        obs_metrics.inc("experiments.multicore.accepted", planned_ok)
        obs_metrics.inc("experiments.multicore.rescues", rescues)
    return (
        m,
        heuristic_ok / sets_per_point,
        planned_ok / sets_per_point,
        rescues,
        inconclusive,
        sets_per_point,
    )


def multicore_skeleton(
    per_core_utilization: float,
    backend_name: str,
    max_nodes: int,
) -> ExperimentResult:
    """An empty sweep result with the canonical name/columns/notes."""
    result = ExperimentResult(
        name="multicore",
        description=(
            "FT-MP acceptance ratio vs core count "
            f"(U = {per_core_utilization:g} x m, {backend_name})"
        ),
        columns=list(MULTICORE_COLUMNS),
    )
    result.extend_notes(
        [
            "HI=B, LO=D task sets from the Appendix C generator; "
            f"target utilization {per_core_utilization:g} per core",
            f"backend {backend_name}; planner branch-and-bound budget "
            f"{max_nodes} nodes per run",
            "acceptance_heuristic: packing portfolio only; "
            "acceptance_planned: portfolio + exact search "
            "(dominates heuristic set by set)",
            "inconclusive: sets whose planned verdict exhausted the node "
            "budget at some adaptation profile",
        ]
    )
    return result


def render_multicore(result: ExperimentResult) -> str:
    """ASCII chart of the two acceptance curves over core count."""
    xs = [float(m) for m in result.column("m")]
    planned = list(zip(xs, result.column("acceptance_planned")))
    heuristic = list(zip(xs, result.column("acceptance_heuristic")))
    return line_chart(
        {"planned (portfolio+exact)": planned, "heuristic only": heuristic},
        title=result.description,
        x_label="cores m",
        y_label="acceptance ratio",
    )
