"""Figure 3: schedulability evaluation on synthetic task sets (Section 5.2).

Four panels, each comparing the acceptance ratio (fraction of schedulable
task sets) *with* and *without* runtime adaptation, across system
utilizations and hardware failure probabilities ``f in {1e-3, 1e-5}``:

- (a) task killing,        HI=B, LO in {D, E} (LO not safety-related);
- (b) task killing,        HI=B, LO=C         (LO must stay safe);
- (c) service degradation, HI=B, LO in {D, E};
- (d) service degradation, HI=B, LO=C.

Task sets come from the Appendix C generator (``u in [0.01, 0.2]``,
``T in [200 ms, 2 s]``, ``P_HI = 0.2``); the paper uses 500 sets per data
point.  "Task killing or service degradation is only adopted if the system
is not feasible otherwise" — a set counts as accepted when either the
plain no-adaptation baseline (EDF on the ``n_i``-inflated workload) or
FT-S succeeds.

Expected qualitative shape (paper): adaptation widens the schedulable
region considerably in (a) and (c); killing *rarely* helps in (b) because
it violates the level-C ceiling; degradation still helps in (d); smaller
``f`` always improves acceptance.

FT-S runs here as the verdict-only :func:`~repro.core.ftmc.ft_accepts`
on whichever kernel tier is active.  :func:`accept_in_paper_order` is
its oracle: it runs Algorithm 1's lines in the paper's order per set,
with line 4 on exact pfh(LO) values, and the test suite pins
:func:`fig3_point`'s rows against it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.edf import schedulable_without_adaptation
from repro.core.backends import (
    EDFVDBackend,
    EDFVDDegradationBackend,
    SchedulerBackend,
)
from repro.core.ftmc import ft_accepts
from repro.core.profiles import (
    LoPfh,
    maximal_adaptation_profile,
    minimal_reexecution_profiles,
)
from repro.experiments.ascii_chart import line_chart
from repro.experiments.results import ExperimentResult
from repro.gen.taskset import PAPER_CONFIG, GeneratorConfig, generate_taskset
from repro.model.criticality import CriticalityRole, DualCriticalitySpec
from repro.model.faults import ReexecutionProfile
from repro.model.task import TaskSet
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = [
    "PanelConfig",
    "FIG3_PANELS",
    "DEFAULT_UTILIZATIONS",
    "DEFAULT_FAILURE_PROBABILITIES",
    "fig3_point",
    "fig3_point_tasksets",
    "accept_in_paper_order",
    "fig3_panel_skeleton",
    "render_fig3_panel",
]

#: Degradation factor for panels (c)/(d).  The paper states ``df`` only for
#: the FMS experiment (6); the same value is adopted here.
FIG3_DEGRADATION_FACTOR: float = 6.0

#: Mission duration assumed for the LO-safety bounds (as in the FMS study).
FIG3_OPERATION_HOURS: float = 10.0

#: Utilization grid for the x-axis.
DEFAULT_UTILIZATIONS: tuple[float, ...] = tuple(
    round(u, 3) for u in np.arange(0.40, 1.2001, 0.05)
)

#: The two hardware qualities of Fig. 3.
DEFAULT_FAILURE_PROBABILITIES: tuple[float, ...] = (1e-3, 1e-5)


@dataclass(frozen=True)
class PanelConfig:
    """One of the four Fig. 3 panels."""

    key: str
    mechanism: str
    lo_level: str
    hi_level: str = "B"

    @property
    def spec(self) -> DualCriticalitySpec:
        return DualCriticalitySpec.from_names(self.hi_level, self.lo_level)

    @property
    def label(self) -> str:
        lo = "{D,E}" if self.lo_level in ("D", "E") else self.lo_level
        return f"HI={self.hi_level}, LO={lo}, {self.mechanism}"


FIG3_PANELS: dict[str, PanelConfig] = {
    "a": PanelConfig("a", "kill", "D"),
    "b": PanelConfig("b", "kill", "C"),
    "c": PanelConfig("c", "degrade", "D"),
    "d": PanelConfig("d", "degrade", "C"),
}


def _backend(mechanism: str) -> SchedulerBackend:
    """Algorithm 2 (EDF-VD with killing) or its degradation variant."""
    if mechanism == "kill":
        return EDFVDBackend()
    return EDFVDDegradationBackend(FIG3_DEGRADATION_FACTOR)


def fig3_point_tasksets(
    panel: PanelConfig,
    failure_probability: float,
    point_index: int,
    utilization: float,
    sets_per_point: int = 500,
    seed: int = 0,
    generator: GeneratorConfig = PAPER_CONFIG,
) -> list[TaskSet]:
    """The task sets of one data point, as :func:`fig3_point` draws them."""
    config = replace(generator, failure_probability=failure_probability)
    spec = panel.spec
    return [
        generate_taskset(
            utilization,
            spec,
            np.random.default_rng(
                [seed, point_index, set_index, int(failure_probability * 1e9)]
            ),
            config,
        )
        for set_index in range(sets_per_point)
    ]


def accept_in_paper_order(taskset: TaskSet, mechanism: str) -> tuple[bool, bool]:
    """(baseline accepted, accepted with adaptation-if-needed), in paper order.

    The oracle for :func:`fig3_point`'s verdicts: line 2, the
    no-adaptation baseline, and only where that fails Algorithm 1's
    verdict as :func:`~repro.core.ftmc.ft_schedule` reaches it (line 4's
    scan, testing ``n_HI`` first, before line 8), except that line 4
    compares exact values, ``pfh(LO) < PFH_LO``, where
    :meth:`~repro.core.profiles.LoPfh.safe` may decide from eq. (5)'s
    bounds; so the oracle shares no bound with what it checks.
    ``ftmc bench`` times it on the scalar tier as the reference of its
    ``fig3_point`` pair.
    """
    profiles = minimal_reexecution_profiles(taskset)
    if profiles is None:
        return False, False
    n_hi, n_lo = profiles.n_hi, profiles.n_lo
    reexecution = ReexecutionProfile.uniform(taskset, n_hi, n_lo)
    if schedulable_without_adaptation(taskset, reexecution):
        return True, True
    spec = taskset.spec
    assert spec is not None  # line 2 has read its ceilings
    lo_pfh = LoPfh(taskset, n_hi, n_lo, mechanism, FIG3_OPERATION_HOURS)

    def safe(n_prime: int) -> bool:
        return (
            not spec.lo_is_safety_related
            or not taskset.lo_tasks
            or lo_pfh(n_prime) < spec.pfh_requirement(CriticalityRole.LO)
        )

    if not safe(n_hi):
        return False, False
    n1 = next(n_prime for n_prime in range(1, n_hi + 1) if safe(n_prime))
    n2 = maximal_adaptation_profile(taskset, n_hi, n_lo, _backend(mechanism))
    return False, n2 is not None and n1 <= n2


def fig3_point(
    panel: PanelConfig,
    failure_probability: float,
    point_index: int,
    utilization: float,
    sets_per_point: int = 500,
    seed: int = 0,
    generator: GeneratorConfig = PAPER_CONFIG,
) -> tuple[float, float, float, int]:
    """One data point of a panel: acceptance ratios at one utilization.

    ``point_index`` is the point's position on the utilization grid; it
    enters the per-set RNG seed, so each grid point draws its own sets
    wherever the ``fig3`` campaign's shard for it runs.

    Each set runs line 2 once (:func:`minimal_reexecution_profiles`),
    then the no-adaptation baseline on the ``n_i``-inflated workload, and
    only where that fails the verdict-only
    :func:`~repro.core.ftmc.ft_accepts` with the line-2 profiles already
    in hand: line 8 first, then line 4's test at its ``n2_HI`` alone
    (under ``kill``, eq. (5)'s bounds).  No verdict is memoized: a sweep
    never asks the same question twice.  The point's sets are generated,
    and line 2 runs over all of them, before the per-set baseline and
    FT-S: interleaving the three stages per set made a Fig. 3 grid pass
    ~12% slower.
    """
    backend = _backend(panel.mechanism)
    baseline_ok = 0
    adapted_ok = 0
    with obs_trace.span(
        "fig3.point",
        panel=panel.key,
        f=failure_probability,
        utilization=utilization,
        sets=sets_per_point,
    ):
        tasksets = fig3_point_tasksets(
            panel,
            failure_probability,
            point_index,
            utilization,
            sets_per_point,
            seed,
            generator,
        )
        line2 = [minimal_reexecution_profiles(taskset) for taskset in tasksets]
        for taskset, profiles in zip(tasksets, line2):
            if profiles is None:
                continue
            reexecution = ReexecutionProfile.uniform(
                taskset, profiles.n_hi, profiles.n_lo
            )
            if schedulable_without_adaptation(taskset, reexecution):
                baseline_ok += 1
                adapted_ok += 1
            elif ft_accepts(
                taskset, profiles, backend, operation_hours=FIG3_OPERATION_HOURS
            ):
                adapted_ok += 1
        obs_metrics.inc("experiments.fig3.sets", sets_per_point)
        obs_metrics.inc("experiments.fig3.accepted_baseline", baseline_ok)
        obs_metrics.inc("experiments.fig3.accepted_adapted", adapted_ok)
    return (
        utilization,
        baseline_ok / sets_per_point,
        adapted_ok / sets_per_point,
        sets_per_point,
    )


def fig3_panel_skeleton(
    panel: PanelConfig, failure_probability: float
) -> ExperimentResult:
    """An empty panel result with the canonical name/columns/notes."""
    result = ExperimentResult(
        name=f"fig3{panel.key}-f{failure_probability:g}",
        description=(
            f"Fig. 3{panel.key} ({panel.label}) at f={failure_probability:g}: "
            "acceptance ratio vs utilization"
        ),
        columns=[
            "utilization",
            "acceptance_without",
            "acceptance_with",
            "sets",
        ],
    )
    result.extend_notes(
        [
            f"panel {panel.key}: {panel.label}",
            f"f={failure_probability:g}, OS={FIG3_OPERATION_HOURS:g} h, "
            f"df={FIG3_DEGRADATION_FACTOR:g} (degradation panels)",
            "adaptation adopted only when the plain inflated-EDF baseline "
            "fails (Appendix C)",
        ]
    )
    return result


def render_fig3_panel(result: ExperimentResult) -> str:
    """ASCII chart of one panel's two acceptance-ratio curves."""
    xs = result.column("utilization")
    with_adaptation = list(zip(xs, result.column("acceptance_with")))
    without = list(zip(xs, result.column("acceptance_without")))
    return line_chart(
        {"with adaptation": with_adaptation, "without": without},
        title=result.description,
        x_label="system utilization U",
        y_label="acceptance ratio",
    )
