"""Plain safety quantification (Section 3.1, Lemma 3.1).

Without task killing or service degradation, the failure of a criticality
level is driven purely by how many *rounds* each of its tasks can fit into
an hour and by the per-round failure probability ``f_i^{n_i}``:

- eq. (1): ``r_i(n_i, t) = max(floor((t - n_i*C_i)/T_i) + 1, 0)`` — the
  maximum number of rounds of ``tau_i`` the interval ``[0, t]`` can
  accommodate, where one round is up to ``n_i`` executions of one job.
- eq. (2): ``pfh(chi) = sum_{tau_i in tau_chi} r_i(n_i, t) * f_i^{n_i}``
  with ``t`` = 1 hour.

Footnote 1 of the paper: eq. (1) assumes each execution takes its full
WCET ``C_i`` at runtime.  If that assumption is dropped, ``C_i`` must be
replaced by 0 (more rounds fit, a *larger* and therefore still-safe
bound).  The ``assume_full_wcet`` flag selects between the two readings;
the default follows the paper (``True``).
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.model.criticality import CriticalityRole
from repro.model.faults import ReexecutionProfile, round_failure_probability
from repro.model.task import HOUR_MS, Task, TaskSet

__all__ = [
    "max_rounds",
    "pfh_plain",
    "pfh_of_tasks",
    "minimal_uniform_reexecution",
    "DEFAULT_MAX_REEXECUTIONS",
]

#: Search ceiling for the ``inf{n in N : ...}`` computations.  Re-execution
#: profiles beyond this are useless in practice: with f <= 1e-1 a profile of
#: 30 drives per-round failure below 1e-30, far under any DO-178B ceiling.
DEFAULT_MAX_REEXECUTIONS: int = 30

#: Tolerance used before flooring ratios of times; absorbs float noise in
#: quantities such as ``(3.6e6 - 15) / 60`` without changing non-degenerate
#: results (time scales here are >= 1e-3 ms).
_FLOOR_EPS: float = 1e-9


def _floor(x: float) -> int:
    """Floor with a small forgiving epsilon for float round-off."""
    return math.floor(x + _FLOOR_EPS)


def max_rounds(
    task: Task, executions: int, horizon: float, assume_full_wcet: bool = True
) -> int:
    """``r_i(n, t)`` of eq. (1): max rounds of ``task`` within ``[0, t]``.

    One round is ``executions`` back-to-back executions of one job.  The
    shortest interval accommodating ``k`` rounds is
    ``(k-1)*T_i + n*C_i`` (see the proof of Lemma 3.1), hence the formula.

    Parameters
    ----------
    task:
        The sporadic task.
    executions:
        ``n``: executions per round (>= 1).
    horizon:
        ``t``: length of the time window, in ms.
    assume_full_wcet:
        Footnote 1.  When ``False``, the ``n*C_i`` term is dropped.
    """
    if executions < 1:
        raise ValueError(f"executions must be >= 1, got {executions}")
    # One chained comparison, which NaN fails too.
    if not 0 <= horizon < math.inf:
        raise ValueError(f"horizon must be non-negative and finite, got {horizon}")
    setup = executions * task.wcet if assume_full_wcet else 0.0
    return max(_floor((horizon - setup) / task.period) + 1, 0)


def pfh_of_tasks(
    tasks: Iterable[Task],
    profile: ReexecutionProfile,
    horizon: float = HOUR_MS,
    assume_full_wcet: bool = True,
) -> float:
    """Failure rate of ``tasks`` over ``horizon``, normalised per hour.

    This is the summand structure of eq. (2) generalised to an arbitrary
    window: ``sum_i r_i(n_i, t) * f_i^{n_i}`` scaled by ``HOUR_MS / t`` so
    the result is always per-hour.  With the default one-hour horizon it is
    exactly eq. (2).
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    total = 0.0
    for task in tasks:
        n = profile[task]
        rounds = max_rounds(task, n, horizon, assume_full_wcet)
        total += rounds * round_failure_probability(task.failure_probability, n)
    return total * (HOUR_MS / horizon)


def pfh_plain(
    taskset: TaskSet,
    role: CriticalityRole,
    profile: ReexecutionProfile,
    assume_full_wcet: bool = True,
) -> float:
    """``pfh(chi)`` of eq. (2): plain PFH bound on criticality ``role``.

    Valid when tasks of ``role`` are never killed or degraded — i.e. always
    for the HI level, and for the LO level only when no adaptation is used.
    """
    return pfh_of_tasks(
        taskset.by_criticality(role), profile, HOUR_MS, assume_full_wcet
    )


def minimal_uniform_reexecution(
    taskset: TaskSet,
    role: CriticalityRole,
    pfh_ceiling: float,
    max_n: int = DEFAULT_MAX_REEXECUTIONS,
    assume_full_wcet: bool = True,
    strict: bool = False,
) -> int | None:
    """``n_chi = inf{n in N : pfh(chi) <= PFH_chi}`` (Algorithm 1, line 2).

    Searches the smallest uniform re-execution profile for all tasks of
    ``role`` meeting the given PFH ceiling.  ``strict=True`` demands
    ``pfh < ceiling`` instead of ``<=`` (Table 1 states the requirements as
    strict inequalities; Algorithm 1 line 2 writes ``<=`` — the two differ
    only at exact boundaries).

    Returns ``None`` when no profile up to ``max_n`` suffices.  With an
    infinite ceiling (levels D/E) the result is always 1 (given
    ``max_n >= 1``), answered without evaluating eq. (2).
    """
    tasks = [
        (t.period, t.wcet, t.failure_probability)
        for t in taskset
        if t.criticality is role
    ]
    if not tasks:
        return 1
    if math.isinf(pfh_ceiling) and pfh_ceiling > 0:
        # eq. (2) values are finite, so n = 1 meets an infinite ceiling
        # under either comparison.
        return 1 if max_n >= 1 else None
    # One loop on every kernel tier: it stops at the first n that meets the
    # ceiling (usually 2-4), where a (max_n, tasks) matrix would price all
    # max_n candidates.  Each candidate is pfh_of_tasks at the constant
    # profile n, term for term and summed with += in task order, so the
    # values are bit-identical; it builds no profile and repeats none of
    # max_rounds' and round_failure_probability's checks, which checked
    # tasks and n >= 1 pass.
    for n in range(1, max_n + 1):
        value = 0.0
        for period, wcet, failure_probability in tasks:
            setup = n * wcet if assume_full_wcet else 0.0
            rounds = max(_floor((HOUR_MS - setup) / period) + 1, 0)
            value += rounds * failure_probability**n
        if (value < pfh_ceiling) if strict else (value <= pfh_ceiling):
            return n
    return None
