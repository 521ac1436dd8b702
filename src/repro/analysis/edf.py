"""Classical (single-criticality) EDF schedulability analysis.

Used as the *no-adaptation baseline* in the paper's experiments: when task
killing / service degradation is not adopted, every job of ``tau_i`` must
be budgeted its full ``n_i * C_i`` of execution, and the system is
schedulable iff the inflated task set is EDF-schedulable.

Two classic tests are provided:

- the utilization bound ``U <= 1`` (exact for implicit-deadline sporadic
  tasks on a preemptive uniprocessor);
- the processor-demand criterion (PDC) with demand-bound functions, exact
  for constrained- and arbitrary-deadline sporadic task sets
  [Baruah/Rosier/Howell].

Both operate on plain (single-WCET) workloads described as
``(period, deadline, wcet)`` triples, so they are reusable by the MC
analyses, the simulator and the FT-S baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.analysis import kernels
from repro.analysis.tolerance import (
    exceeds,
    job_count,
    utilization_exceeds,
    within,
)
from repro.model.faults import ReexecutionProfile
from repro.model.task import Task, TaskSet
from repro.model.trusted import trusted

__all__ = [
    "Workload",
    "workload_from_taskset",
    "inflated_workload",
    "edf_utilization_test",
    "demand_bound_function",
    "edf_processor_demand_test",
    "edf_processor_demand_test_reference",
    "edf_schedulable",
    "schedulable_without_adaptation",
]


@dataclass(frozen=True)
class Workload:
    """A plain sporadic workload item ``(T, D, C)`` for classical analyses."""

    period: float
    deadline: float
    wcet: float

    def __post_init__(self) -> None:
        # Each bound also refuses NaN, which fails every comparison.
        if not (
            0 < self.period < math.inf
            and 0 < self.deadline < math.inf
            and 0 <= self.wcet < math.inf
        ):
            raise ValueError(f"invalid workload item {self}")

    @property
    def utilization(self) -> float:
        return self.wcet / self.period


def workload_from_taskset(
    taskset: TaskSet, wcet_of: Callable[[Task], float] | None = None
) -> list[Workload]:
    """Project a :class:`TaskSet` onto plain workload triples.

    ``wcet_of`` lets callers substitute inflated budgets (e.g.
    ``n_i * C_i``); defaults to the tasks' single-execution WCETs.
    """
    get = wcet_of or (lambda t: t.wcet)
    return [Workload(t.period, t.deadline, get(t)) for t in taskset]


def inflated_workload(
    taskset: TaskSet, reexecution: ReexecutionProfile
) -> list[Workload]:
    """Workload with each task budgeted ``n_i * C_i`` (all re-executions)."""
    reexecution.validate_for(taskset)
    # A checked task and n_i >= 1 keep (T, D, n_i C) within Workload's
    # checks, so the items take the trusted path (repro.model.trusted)
    # unless n_i C overflows to inf; that item goes through the public
    # constructor, which raises its message.
    items = []
    for t in taskset:
        fields = {"period": t.period, "deadline": t.deadline,
                  "wcet": reexecution[t] * t.wcet}
        items.append(
            trusted(Workload, fields) if math.isfinite(fields["wcet"])
            else Workload(**fields)
        )
    return items


def edf_utilization_test(workload: Iterable[Workload]) -> bool:
    """``sum C/T <= 1``: exact for implicit-deadline sporadic tasks."""
    return not utilization_exceeds(sum(w.utilization for w in workload))


def demand_bound_function(workload: Sequence[Workload], t: float) -> float:
    """``dbf(t) = sum_i max(0, floor((t - D_i)/T_i) + 1) * C_i``.

    The maximum cumulative execution demand of jobs with both release and
    deadline inside any window of length ``t``.  The job-count floor is
    tolerance-aware (:func:`repro.analysis.tolerance.job_count`): at a
    boundary instant ``t = D_i + k*T_i`` whose floating-point image is a
    few ulps low, the ``(k+1)``-th job is still counted — an epsilon-less
    floor undercounts a whole job there and turns the PDC/QPA tests into
    unsound accepts.
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    demand = 0.0
    for w in workload:
        jobs = job_count(t, w.deadline, w.period)
        if jobs > 0:
            demand += jobs * w.wcet
    return demand


#: Bail-out threshold for the PDC/QPA point enumeration.  Workloads whose
#: testing horizon would require more check points than this (utilization
#: pathologically close to 1 with constrained deadlines) are rejected
#: *conservatively*: the tests stay sound (never accept an unschedulable
#: set) at the price of possible pessimism on such borderline inputs.
_MAX_TEST_POINTS: int = 200_000


def _pdc_testing_horizon(workload: Sequence[Workload]) -> float | None:
    """Upper bound on the instants that must be checked by the PDC.

    For ``U < 1`` the classical bound is::

        L = max( max_i D_i,  sum_i (T_i - D_i) * U_i / (1 - U) )

    beyond which ``dbf(t) <= t`` is implied by ``U <= 1``.  Returns
    ``None`` when enumerating deadlines up to the bound is intractable
    (see :data:`_MAX_TEST_POINTS`) — callers must then reject
    conservatively.
    """
    utilization = sum(w.utilization for w in workload)
    d_max = max(w.deadline for w in workload)
    if utilization >= 1.0:
        # Caller has already rejected U > 1; U == 1 needs the hyperperiod
        # in general — fall back to a generous multiple of the largest
        # period + deadline, which is exact for the integer-parameter
        # workloads used in this library's experiments.
        span = max(w.period for w in workload) + d_max
        horizon = max(d_max, 2.0 * span * len(workload))
    else:
        la = sum((w.period - w.deadline) * w.utilization for w in workload)
        horizon = max(d_max, max(la, 0.0) / (1.0 - utilization))
    min_period = min(w.period for w in workload)
    points = (horizon / min_period) * len(workload)
    if points > _MAX_TEST_POINTS:
        return None
    return horizon


def _pdc_scan_reference(workload: Sequence[Workload], horizon: float) -> bool:
    """Scalar ``dbf(t) <= t`` sweep — the reference oracle for the kernels."""
    # The check instants are the absolute deadlines D_i + k*T_i <= horizon.
    points: set[float] = set()
    for w in workload:
        k = 0
        while True:
            t = w.deadline + k * w.period
            if not within(t, horizon):
                break
            points.add(t)
            k += 1
    for t in sorted(points):
        if exceeds(demand_bound_function(workload, t), t):
            return False
    return True


def _pdc_common(workload: Sequence[Workload]) -> tuple[list[Workload], float] | bool:
    """Shared PDC preamble: verdict when decided early, else (workload, horizon)."""
    workload = [w for w in workload if w.wcet > 0]
    if not workload:
        return True
    if utilization_exceeds(sum(w.utilization for w in workload)):
        return False
    horizon = _pdc_testing_horizon(workload)
    if horizon is None:
        return False  # intractable horizon: reject conservatively
    return workload, horizon


def edf_processor_demand_test(workload: Sequence[Workload]) -> bool:
    """Exact EDF test via the processor-demand criterion.

    Schedulable iff ``U <= 1`` and ``dbf(t) <= t`` at every absolute
    deadline ``t`` up to the testing horizon.  The sweep runs on the
    vectorized kernels (:mod:`repro.analysis.kernels`) unless
    ``REPRO_NO_NUMPY`` selects the scalar reference path
    (:func:`edf_processor_demand_test_reference`), which returns
    identical verdicts and remains the oracle.
    """
    prepared = _pdc_common(workload)
    if isinstance(prepared, bool):
        return prepared
    workload, horizon = prepared
    if kernels.numpy_enabled():
        periods, deadlines, wcets = kernels.workload_arrays(workload)
        return kernels.demand_satisfied(periods, deadlines, wcets, horizon)
    return _pdc_scan_reference(workload, horizon)


def edf_processor_demand_test_reference(workload: Sequence[Workload]) -> bool:
    """The PDC on the scalar reference path, regardless of NumPy.

    Identical verdicts to :func:`edf_processor_demand_test` by
    construction; kept callable directly so the equivalence suite and
    ``ftmc bench`` can pit the kernels against it.
    """
    prepared = _pdc_common(workload)
    if isinstance(prepared, bool):
        return prepared
    return _pdc_scan_reference(*prepared)


def edf_schedulable(workload: Sequence[Workload]) -> bool:
    """Dispatch to the cheapest exact test for the given workload.

    Implicit-deadline workloads use the utilization bound; everything else
    goes through the processor-demand criterion.
    """
    workload = list(workload)
    if not workload:
        return True
    if all(math.isclose(w.deadline, w.period) for w in workload):
        return edf_utilization_test(workload)
    return edf_processor_demand_test(workload)


def schedulable_without_adaptation(
    taskset: TaskSet, reexecution: ReexecutionProfile
) -> bool:
    """The paper's no-adaptation baseline.

    Every job is budgeted all its ``n_i`` executions and the system is
    scheduled by plain EDF: schedulable iff the inflated workload passes
    the (exact) EDF test.  This is the reference against which Figs. 3a-3d
    measure the benefit of task killing / service degradation.

    An implicit-deadline set (the Fig. 3 generator's) is decided by the
    utilization bound over ``(n_i C_i) / T_i``, the sum
    :func:`edf_utilization_test` forms over :func:`inflated_workload`,
    without building the workload.  A non-finite sum and every other set
    take ``edf_schedulable(inflated_workload(...))``, which raises
    ``inflated_workload``'s message for an ``n_i C_i`` that overflows.
    """
    reexecution.validate_for(taskset)
    tasks = taskset.tasks
    if tasks and all(math.isclose(t.deadline, t.period) for t in tasks):
        utilization = sum((reexecution[t] * t.wcet) / t.period for t in tasks)
        if math.isfinite(utilization):
            return not utilization_exceeds(utilization)
    return edf_schedulable(inflated_workload(taskset, reexecution))
