"""Safety quantification under service degradation (Section 3.4, Lemma 3.4).

Service degradation stretches the inter-arrival time of every LO task by a
factor ``df > 1`` (``T_hat_i = df * T_i``) instead of killing them, and is
triggered exactly like killing: when any HI task instance starts its
``(n'_i + 1)``-th execution.

- eq. (6): ``omega(df, t) = sum_{tau_i in tau_LO}
  max(floor((t - n_i C_i)/(df T_i)) + 1, 0) * f_i^{n_i}`` — the cumulative
  failure rate of the LO tasks over ``[0, t]`` when running with stretched
  periods ``df * T_i``.

- eq. (7): ``pfh(LO) = (1 - R(N'_HI, t)) * omega(1, t) / OS`` with
  ``t = OS`` hours.  The worst case places the degradation trigger at the
  very end of the mission (proof of Lemma 3.4), which is why the bound uses
  the *undegraded* rate ``omega(1, t)`` — the degradation factor ``df``
  influences schedulability (eq. 12), not this safety bound.

The intermediate scenario bound, eq. (9), is exposed as
:func:`pfh_lo_degradation_scenario` for analysis and for the monotonicity
property tests.
"""

from __future__ import annotations

import math

from repro.model.faults import (
    AdaptationProfile,
    ReexecutionProfile,
    round_failure_probability,
)
from repro.model.task import HOUR_MS, TaskSet
from repro.safety.killing import check_operation_hours, survival_probability
from repro.safety.pfh import max_rounds

__all__ = [
    "omega",
    "pfh_lo_degradation",
    "pfh_lo_degradation_scenario",
]


def omega(
    taskset: TaskSet,
    reexecution: ReexecutionProfile,
    degradation_factor: float,
    horizon: float,
    assume_full_wcet: bool = True,
) -> float:
    """``omega(df, t)`` of eq. (6).

    Total failure rate of the LO tasks over ``[0, t]`` when their periods
    are stretched to ``df * T_i``.  ``df = 1`` recovers the undegraded
    rate (the LO-task part of eq. (2) before the per-hour normalisation).
    """
    # Written so that NaN, which fails every comparison, is refused too.
    if not degradation_factor >= 1.0:
        raise ValueError(
            f"degradation factor must be >= 1, got {degradation_factor}"
        )
    if not 0 <= horizon < math.inf:
        raise ValueError(f"horizon must be non-negative and finite, got {horizon}")
    total = 0.0
    for task in taskset.lo_tasks:
        n = reexecution[task]
        stretched = task._stretched(degradation_factor)
        rounds = max_rounds(stretched, n, horizon, assume_full_wcet)
        total += rounds * round_failure_probability(task.failure_probability, n)
    return total


def pfh_lo_degradation(
    taskset: TaskSet,
    reexecution: ReexecutionProfile,
    adaptation: AdaptationProfile,
    operation_hours: float,
    assume_full_wcet: bool = True,
) -> float:
    """``pfh(LO)`` under service degradation — eq. (7) of Lemma 3.4.

    The bound is ``(1 - R(N'_HI, t)) * omega(1, t) / OS`` at
    ``t = OS`` hours: the probability that degradation is ever triggered,
    times the undegraded cumulative LO failure rate, averaged per hour.

    Note that this is always at most the plain (no-adaptation) LO-level PFH
    of eq. (2), because ``1 - R <= 1`` — degradation can only *improve* LO
    safety relative to doing nothing (Section 3.4, closing remark).
    """
    check_operation_hours(operation_hours)
    adaptation.validate_for(taskset, reexecution)
    horizon = operation_hours * HOUR_MS
    trigger = 1.0 - survival_probability(
        taskset, adaptation, horizon, assume_full_wcet
    )
    return trigger * omega(taskset, reexecution, 1.0, horizon, assume_full_wcet) / (
        operation_hours
    )


def pfh_lo_degradation_scenario(
    taskset: TaskSet,
    reexecution: ReexecutionProfile,
    adaptation: AdaptationProfile,
    degradation_factor: float,
    trigger_time: float,
    operation_hours: float,
    assume_full_wcet: bool = True,
) -> float:
    """Scenario bound eq. (9): degradation triggered at ``t0 = trigger_time``.

    ``(1 - R(N'_HI, t0)) * (omega(1, t0) + omega(df, t - t0)) / OS``.

    The proof of Lemma 3.4 shows this is maximised at ``t0 = t``, where it
    collapses to eq. (7); the property is exercised by the test suite.
    """
    check_operation_hours(operation_hours)
    horizon = operation_hours * HOUR_MS
    if not 0.0 <= trigger_time <= horizon:
        raise ValueError(
            f"trigger time must lie in [0, {horizon}], got {trigger_time}"
        )
    trigger = 1.0 - survival_probability(
        taskset, adaptation, trigger_time, assume_full_wcet
    )
    before = omega(taskset, reexecution, 1.0, trigger_time, assume_full_wcet)
    after = omega(
        taskset,
        reexecution,
        degradation_factor,
        horizon - trigger_time,
        assume_full_wcet,
    )
    return trigger * (before + after) / operation_hours
