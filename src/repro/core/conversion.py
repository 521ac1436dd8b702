"""Problem conversion (Section 4.1, Lemma 4.1).

The central insight of the paper: re-execution generates a list of
cumulative WCETs for a task, so "kill/degrade LO tasks when a HI instance
starts its ``(n'+1)``-th execution" can be conservatively re-read as "...
when a HI task exceeds ``n' * C_i`` units of execution".  This turns the
fault-tolerant problem into a *conventional* mixed-criticality task set:

- each HI task ``tau_i`` gets ``C_i(HI) = n_i * C_i`` and
  ``C_i(LO) = n'_i * C_i``;
- each LO task ``tau_i`` gets ``C_i(LO) = C_i(HI) = n_i * C_i``.

Example 4.1 / Table 3 of the paper instantiate this for the Example 3.1
task set.  The conversion is conservative: a HI instance observed past
``n' * C_i`` of execution is certainly in its ``(n'+1)``-th attempt, while
an attempt that finishes early may under-run the budget (footnote in
Section 4.1).
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

from repro.model.criticality import CriticalityRole
from repro.model.faults import AdaptationProfile, ReexecutionProfile
from repro.model.mc_task import MCTask, MCTaskSet
from repro.model.task import Task, TaskSet
from repro.model.trusted import trusted

__all__ = [
    "check_uniform_series",
    "convert",
    "convert_uniform",
    "convert_uniform_series",
]


def _converted(task: Task, wcet_lo: float, wcet_hi: float) -> MCTask:
    """The image of a checked ``task`` with budgets ``n' C <= n C``.

    Validated profiles (``1 <= n' <= n``) keep every field within
    :class:`MCTask`'s checks, so the task takes the trusted path
    (:mod:`repro.model.trusted`) unless a budget is not finite (an
    overflow to ``inf``); that case goes through the public constructor,
    which raises its message.
    """
    if not (math.isfinite(wcet_lo) and math.isfinite(wcet_hi)):
        return MCTask(task.name, task.period, task.deadline, wcet_lo, wcet_hi,
                      task.criticality)
    return trusted(
        MCTask,
        {"name": task.name, "period": task.period, "deadline": task.deadline,
         "wcet_lo": wcet_lo, "wcet_hi": wcet_hi,
         "criticality": task.criticality},
    )


def convert(
    taskset: TaskSet,
    reexecution: ReexecutionProfile,
    adaptation: AdaptationProfile,
) -> MCTaskSet:
    """Build ``Gamma(N, N'_HI)``: the conventional MC task set of Lemma 4.1.

    Parameters
    ----------
    taskset:
        The fault-tolerant dual-criticality task set ``tau``.
    reexecution:
        ``N``: per-task maximal execution counts ``n_i``.
    adaptation:
        ``N'_HI``: per-HI-task adaptation profiles ``n'_i`` (killing or
        degradation — the conversion is identical; the mechanism matters
        only to the scheduler that consumes the converted set).

    Returns
    -------
    MCTaskSet
        Periods, deadlines and criticalities carry over unchanged; WCETs
        are the cumulative budgets described in the module docstring.
    """
    reexecution.validate_for(taskset)
    adaptation.validate_for(taskset, reexecution)
    mc_tasks: list[MCTask] = []
    for task in taskset:
        n = reexecution[task]
        if task.criticality is CriticalityRole.HI:
            wcet_lo = adaptation[task] * task.wcet
            wcet_hi = n * task.wcet
        else:
            wcet_lo = wcet_hi = n * task.wcet
        mc_tasks.append(_converted(task, wcet_lo, wcet_hi))
    return MCTaskSet._derived(mc_tasks, f"{taskset.name}/converted")


def convert_uniform(
    taskset: TaskSet, n_hi: int, n_lo: int, n_prime_hi: int
) -> MCTaskSet:
    """``Gamma(n_HI, n_LO, n'_HI)`` under the uniform-profile restriction.

    Section 4.2 of the paper restricts all tasks of a criticality to share
    one re-execution profile and all HI tasks to share one adaptation
    profile; this helper builds the corresponding converted set directly.
    """
    reexecution = ReexecutionProfile.uniform(taskset, n_hi, n_lo)
    adaptation = AdaptationProfile.uniform(taskset, n_prime_hi)
    return convert(taskset, reexecution, adaptation)


def check_uniform_series(
    taskset: TaskSet, n_hi: int, n_lo: int, n_primes: Sequence[int]
) -> None:
    """Check ``(n_HI, n_LO)`` and every ``n'`` of a series as
    :func:`convert_uniform` would.

    Raises ``convert_uniform``'s exception and message for the first
    value it refuses.  Counts that are all ints of at least 1, with no
    ``n'`` above ``n_hi``, pass on those tests alone and build nothing.
    Otherwise the uniform :class:`ReexecutionProfile` is built, and each
    candidate that fails ``type(n) is int`` and ``1 <= n' <= n_hi`` an
    :class:`AdaptationProfile`, whose checks then raise (or accept the
    value, when no task receives it).
    """
    if all(type(n) is int and n >= 1 for n in (n_hi, n_lo, *n_primes)) and (
        max(n_primes, default=1) <= n_hi
    ):
        return
    reexecution = ReexecutionProfile.uniform(taskset, n_hi, n_lo)
    for n_prime in n_primes:
        if type(n_prime) is not int or not 1 <= n_prime <= n_hi:
            AdaptationProfile.uniform(taskset, n_prime).validate_for(
                taskset, reexecution
            )


def convert_uniform_series(
    taskset: TaskSet, n_hi: int, n_lo: int, n_primes: Sequence[int]
) -> Iterator[tuple[int, MCTaskSet]]:
    """``Gamma(n_HI, n_LO, n')`` for every ``n'`` in ``n_primes``, lazily.

    Equivalent to ``convert_uniform(taskset, n_hi, n_lo, n')`` per entry —
    same task order, names and set name, and the same refusals, all
    raised before the first set (:func:`check_uniform_series`) — but the
    converted LO tasks, whose budgets do not depend on ``n'``, are built
    once and shared across the series.  This is the hot path of
    :func:`repro.core.profiles.maximal_adaptation_profile`, which scans
    ``n'`` descending and previously re-validated and re-built the entire
    set at every step.
    """
    n_primes = list(n_primes)
    if not n_primes:
        return
    check_uniform_series(taskset, n_hi, n_lo, n_primes)
    name = f"{taskset.name}/converted"
    hi_slots: list[tuple[int, Task]] = []
    template: list[MCTask | None] = []
    for index, task in enumerate(taskset):
        if task.criticality is CriticalityRole.HI:
            hi_slots.append((index, task))
            template.append(None)
        else:
            budget = n_lo * task.wcet
            template.append(_converted(task, budget, budget))
    for n_prime in n_primes:
        mc_tasks = list(template)
        for index, task in hi_slots:
            mc_tasks[index] = _converted(
                task, n_prime * task.wcet, n_hi * task.wcet
            )
        yield n_prime, MCTaskSet._derived(mc_tasks, name)
