"""Safety quantification under task killing (Section 3.3, Lemmas 3.2/3.3).

When the killing mechanism is armed, the LO tasks' safety depends on *when*
they are killed.  The paper bounds this in two steps:

- Lemma 3.2 / eq. (3): the probability that no HI task instance ever starts
  its ``(n'_i + 1)``-th execution within ``[0, t]`` is at least

  ``R(N'_HI, t) = prod_{tau_i in tau_HI} (1 - f_i^{n'_i})^{r_i(n'_i, t)}``

  so ``1 - R(N'_HI, t)`` upper-bounds the probability that the LO tasks
  have been killed by time ``t``.

- Lemma 3.3 / eqs. (4)-(5): placing the rounds of a LO task ``tau_i`` as
  late as possible maximises the kill probability each round is exposed to.
  The per-round finishing instants are the *timing points*

  ``pi_i(t) = {t - n_i C_i - m T_i + D_i | 1 <= m < r_i(n_i, t)} U {t}``

  and the LO-level PFH is bounded by

  ``pfh(LO) = (1/OS) * sum_{tau_i in tau_LO} sum_{alpha in pi_i(t)}
              [1 - R(N'_HI, alpha) * (1 - f_i^{n_i})]``  with ``t = OS`` hours.

The sums run over tens of thousands of timing points per task over a
10-hour mission, so the NumPy-tier evaluator sums each task's points in
closed form between the HI tasks' round breakpoints (``_KillingContext``),
and the scalar oracle visits every point; products of many near-one
factors are accumulated in log space via ``log1p``.  Each
per-round bound ``1 - R(alpha) * (1 - f^n)`` is the tiny difference of two
numbers near 1.0, so every evaluator assembles it cancellation-free as
``f^n + (1 - f^n) * (-expm1(log R(alpha)))``, from ``log R`` directly.

A caller that only compares eq. (5) with a ceiling can first ask
:func:`pfh_lo_killing_bounds`, which brackets the value in O(HI + LO
tasks) without visiting a breakpoint or a timing point.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.analysis import kernels
from repro.model.faults import (
    AdaptationProfile,
    ReexecutionProfile,
    round_failure_probability,
)
from repro.model.task import HOUR_MS, Task, TaskSet
from repro.safety.pfh import max_rounds

__all__ = [
    "survival_probability",
    "survival_probability_at",
    "kill_probability",
    "timing_points",
    "timing_point_count",
    "pfh_lo_killing",
    "pfh_lo_killing_bounds",
]


def check_operation_hours(operation_hours: float) -> None:
    """Refuse a mission ``OS`` that is not a positive, finite number of hours."""
    # Written so that NaN, which fails every comparison, is refused too.
    if not 0.0 < operation_hours < math.inf:
        raise ValueError(
            f"operation hours must be positive and finite, got {operation_hours}"
        )


def _hi_arrays(
    hi_tasks: Sequence[Task],
    adaptation: AdaptationProfile,
    assume_full_wcet: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-HI-task vectors (setup time n'C, period T, log(1 - f^n'))."""
    setups = np.array(
        [
            (adaptation[t] * t.wcet if assume_full_wcet else 0.0)
            for t in hi_tasks
        ]
    )
    periods = np.array([t.period for t in hi_tasks])
    log_success = np.array(
        [
            math.log1p(-round_failure_probability(t.failure_probability, adaptation[t]))
            for t in hi_tasks
        ]
    )
    return setups, periods, log_success


def _checked_horizons(horizons: np.ndarray | Sequence[float]) -> np.ndarray:
    """``horizons`` as a float array, refused unless each is in ``[0, inf)``."""
    t = np.asarray(horizons, dtype=float)
    valid = (t >= 0.0) & (t < math.inf)  # NaN fails both
    if not valid.all():
        raise ValueError(
            f"horizon must be non-negative and finite, got {t[~valid].flat[0]}"
        )
    return t


def _log_survival_at(
    taskset: TaskSet,
    adaptation: AdaptationProfile,
    horizons: np.ndarray,
    assume_full_wcet: bool,
) -> np.ndarray:
    """``log R(N'_HI, t)`` (eq. 3) over a 1-D array of horizons ``t``."""
    hi_tasks = taskset.hi_tasks
    if not hi_tasks:
        return np.zeros_like(horizons)
    setups, periods, log_success = _hi_arrays(hi_tasks, adaptation, assume_full_wcet)
    # rounds[i, k] = r_i(n'_i, t_k), vectorised form of eq. (1)
    ratio = (horizons[np.newaxis, :] - setups[:, np.newaxis]) / periods[:, np.newaxis]
    rounds = np.maximum(np.floor(ratio + 1e-9) + 1.0, 0.0)
    return rounds.T @ log_success


def survival_probability_at(
    taskset: TaskSet,
    adaptation: AdaptationProfile,
    horizons: np.ndarray | Sequence[float],
    assume_full_wcet: bool = True,
) -> np.ndarray:
    """Vectorised ``R(N'_HI, t)`` (eq. 3) over an array of horizons ``t``.

    Returns an array of the same shape as ``horizons``.  Computation is in
    log space: ``log R = sum_i r_i(n'_i, t) * log(1 - f_i^{n'_i})``.
    """
    t = _checked_horizons(horizons)
    log_r = _log_survival_at(taskset, adaptation, t.ravel(), assume_full_wcet)
    return np.exp(log_r).reshape(t.shape)


def survival_probability(
    taskset: TaskSet,
    adaptation: AdaptationProfile,
    horizon: float,
    assume_full_wcet: bool = True,
) -> float:
    """``R(N'_HI, t)`` of eq. (3) at a single horizon ``t``.

    The probability that *no* instance of any HI task executes its
    ``(n'_i + 1)``-th time within ``[0, t]`` — i.e. that the LO tasks have
    not been killed/degraded by ``t``.
    """
    return float(
        survival_probability_at(taskset, adaptation, np.array([horizon]),
                                assume_full_wcet)[0]
    )


def kill_probability(
    taskset: TaskSet,
    adaptation: AdaptationProfile,
    horizon: float,
    assume_full_wcet: bool = True,
) -> float:
    """Upper bound ``1 - R(N'_HI, t)`` on the LO tasks being killed by ``t``.

    Taken as ``-expm1(log R)``: ``1 - R`` cancels when ``R`` is near 1.
    """
    log_r = _log_survival_at(
        taskset, adaptation, _checked_horizons([horizon]), assume_full_wcet
    )
    return -math.expm1(float(log_r[0]))


def timing_points(
    task: Task,
    executions: int,
    horizon: float,
    assume_full_wcet: bool = True,
) -> np.ndarray:
    """``pi_i(t)`` of eq. (4): worst-case per-round finishing instants.

    For LO task ``tau_i`` with ``r = r_i(n_i, t)`` rounds packed as late as
    possible before ``t``, round ``r`` finishes at ``t`` and round ``r - m``
    finishes no later than ``t - n_i C_i - m T_i + D_i`` (proof of
    Lemma 3.3).  Points that fall at or below zero are dropped: a round that
    cannot finish inside the window contributes nothing.

    Returns the points sorted ascending, ending with ``t`` itself.
    """
    rounds = max_rounds(task, executions, horizon, assume_full_wcet)
    if rounds <= 0:
        return np.array([])
    setup = executions * task.wcet if assume_full_wcet else 0.0
    m = np.arange(1, rounds)
    points = horizon - setup - m * task.period + task.deadline
    points = points[points > 0.0]
    # `points` descends as m ascends, so ascending order is a reversal —
    # no sort needed (it used to be ~20% of the eq. (5) evaluation).
    return np.concatenate([points[::-1], [horizon]])


def timing_point_count(
    task: Task,
    executions: int,
    horizon: float,
    assume_full_wcet: bool = True,
) -> int:
    """``len(timing_points(...))`` without building the array.

    :func:`timing_points` keeps each ``m`` in ``1..r-1`` whose float value
    ``t - n_i C_i - m T_i + D_i`` is positive, plus ``t``.  That value
    never rises with ``m`` (each float operation in it rounds
    monotonically), so the kept ``m`` form a prefix; and because eq. (1)
    gives ``(r-1) T_i <= t - n_i C_i`` up to its floor epsilon, only the
    last ``m`` can drop, when ``D_i`` is within that epsilon of zero.  The
    count therefore starts at ``r`` and re-evaluates the same expression
    downward from the last ``m`` while it is not positive, which is exact
    for every input and costs O(1) in practice.
    """
    rounds = max_rounds(task, executions, horizon, assume_full_wcet)
    if rounds <= 0:
        return 0
    setup = executions * task.wcet if assume_full_wcet else 0.0
    last = rounds - 1
    while last > 0 and not (
        horizon - setup - last * task.period + task.deadline > 0.0
    ):
        last -= 1
    return last + 1


class _KillingContext:
    """Adaptation-independent state of eq. (5) for one task set and ``N``.

    :meth:`value_at` evaluates one adaptation profile ``N'_HI`` through a
    breakpoint reformulation of eq. (5) whose cost is independent of the
    number of LO timing points.  Each LO task's points (eq. 4) form an
    arithmetic grid ``alpha_m = G - m*T_LO`` (plus the singleton ``t``)
    that depends on ``N`` alone, and the survival probability
    ``s(alpha) = R(N'_HI, alpha)`` of eq. (3) is a step function that
    only jumps where some HI task gains a round — at the
    ``B = sum_h r_h(n'_h, t)`` breakpoints ``beta = n'_h C_h + k*T_h``.
    Writing the step function through its jumps,
    ``s(alpha) = 1 + sum_{beta_j <= alpha} delta_j`` with
    ``delta_j = s(beta_j) * (1 - 1/(1 - f_h^{n'_h}))``, the grid sum
    telescopes to

        ``sum_m s(alpha_m) = M + sum_j delta_j * c_j``,

    where ``c_j = #{m : alpha_m >= beta_j}`` is a closed-form floor of
    ``(G - beta_j)/T_LO`` — no per-point work at all.  The per-task bound
    then assembles cancellation-free:

        ``(M+1) * f_LO^n  -  (1 - f_LO^n) * (sum_j delta_j c_j + expm1(log s(t)))``

    (every addend is small and same-signed, as in the per-point form of
    :func:`pfh_lo_killing_reference`).  Values agree with that scalar
    oracle within 1e-12 relative on the test corpora — the floor epsilons
    on both paths absorb the ~1e-11 quotient noise of the reassociated
    expressions, so a rounds count could differ only at an instant within
    that noise of a resonance.
    """

    __slots__ = (
        "lo_grid_starts", "lo_periods", "lo_counts", "lo_round_failures",
        "lo_inv_periods", "lo_scaled_starts", "hi_tasks",
        "hi_wcets", "hi_periods", "hi_failures", "hi_inv_periods",
        "horizon", "operation_hours", "assume_full_wcet", "trivial",
    )

    def __init__(
        self,
        taskset: TaskSet,
        reexecution: ReexecutionProfile,
        operation_hours: float,
        assume_full_wcet: bool,
    ) -> None:
        self.operation_hours = operation_hours
        self.assume_full_wcet = assume_full_wcet
        self.horizon = operation_hours * HOUR_MS
        starts: list[float] = []
        periods: list[float] = []
        counts: list[float] = []
        failures: list[float] = []
        for task in taskset.lo_tasks:
            n = reexecution[task]
            # Only the grid's length is needed, never its points.
            count = timing_point_count(task, n, self.horizon, assume_full_wcet)
            if count == 0:
                continue
            setup = n * task.wcet if assume_full_wcet else 0.0
            # alpha_m = (horizon - setup + D) - m*T for m = 1..M, all > 0,
            # plus the singleton alpha = horizon (see timing_points).
            starts.append(self.horizon - setup + task.deadline)
            periods.append(task.period)
            counts.append(float(count - 1))
            failures.append(
                round_failure_probability(task.failure_probability, n)
            )
        if not starts:
            self.trivial = 0.0
            return
        self.lo_grid_starts = np.array(starts)
        self.lo_periods = np.array(periods)
        self.lo_counts = np.array(counts)
        self.lo_round_failures = np.array(failures)
        # (G - beta)/T is evaluated as G/T + eps - beta*(1/T): one multiply
        # instead of a broadcast divide (~2x on the dominant pass), at the
        # cost of reassociation noise well inside the epsilon the floor
        # already carries.
        self.lo_inv_periods = 1.0 / self.lo_periods
        self.lo_scaled_starts = (
            self.lo_grid_starts / self.lo_periods + 1e-9
        )
        hi_tasks = taskset.hi_tasks
        if not hi_tasks:
            # No HI task can ever trigger a kill: R = 1 at every point, so
            # every point contributes exactly its plain round failure.
            self.trivial = float(
                np.sum((self.lo_counts + 1.0) * self.lo_round_failures)
            ) / operation_hours
            return
        self.trivial = None
        self.hi_tasks = hi_tasks
        self.hi_wcets = np.fromiter(
            (t.wcet for t in hi_tasks), float, len(hi_tasks)
        )
        self.hi_periods = np.fromiter(
            (t.period for t in hi_tasks), float, len(hi_tasks)
        )
        self.hi_failures = np.fromiter(
            (t.failure_probability for t in hi_tasks), float, len(hi_tasks)
        )
        self.hi_inv_periods = 1.0 / self.hi_periods

    def value_at(self, adaptation: AdaptationProfile) -> float:
        if self.trivial is not None:
            return self.trivial
        n_primes = [adaptation[t] for t in self.hi_tasks]
        n_hi_tasks = len(n_primes)
        setups = (
            np.array(n_primes, dtype=float) * self.hi_wcets
            if self.assume_full_wcet
            else np.zeros(n_hi_tasks)
        )
        round_failures = [
            round_failure_probability(float(f), n_prime)
            for f, n_prime in zip(self.hi_failures, n_primes)
        ]
        log_successes = [math.log1p(-f) for f in round_failures]
        # r_h(n'_h, t): rounds of HI task h over the full mission — also the
        # number of breakpoints of h inside (0, t].
        tops = [
            max(
                int(
                    math.floor(
                        (self.horizon - float(setups[h]))
                        / float(self.hi_periods[h])
                        + 1e-9
                    )
                )
                + 1,
                0,
            )
            for h in range(n_hi_tasks)
        ]
        log_s_horizon = sum(
            log_successes[h] * tops[h] for h in range(n_hi_tasks)
        )
        # HI tasks that share (period, setup) gain their rounds at the same
        # instants, so each such group jumps as one factor of s, the product
        # of its members' round successes (their n'_h may differ).  Taken
        # one by one, the members' coinciding breakpoints would be ordered
        # by float noise in the eq. (1) floor below (footnote 1 zeroes every
        # setup, so equal periods tie at every breakpoint).
        groups: dict[tuple[float, float], list[int]] = {}
        for h in range(n_hi_tasks):
            key = (float(self.hi_periods[h]), float(setups[h]))
            groups.setdefault(key, []).append(h)
        leaders = [members[0] for members in groups.values()]
        for members in groups.values():
            if len(members) > 1:
                log_q = math.fsum(log_successes[m] for m in members)
                log_successes[members[0]] = log_q
                round_failures[members[0]] = -math.expm1(log_q)
        delta_parts: list[np.ndarray] = []
        beta_parts: list[np.ndarray] = []
        for h in leaders:
            if tops[h] == 0:
                continue
            ks = np.arange(float(tops[h]))
            # The k-th breakpoint lifts r_h from k to k+1; the 1e-9 shift
            # mirrors the epsilon inside the floor of eq. (1).
            beta = (ks - 1e-9) * float(self.hi_periods[h]) + float(setups[h])
            # log s just *above* beta: own task contributes k+1 rounds
            # (exact, by construction); the other tasks are evaluated by
            # the eq. (1) formula at generic (non-resonant) positions.
            log_s = ks
            log_s += 1.0
            log_s *= log_successes[h]
            for h2 in leaders:
                if h2 == h:
                    continue
                inv2 = float(self.hi_inv_periods[h2])
                r2 = beta * inv2
                r2 -= float(setups[h2]) * inv2 - 1e-9
                np.floor(r2, out=r2)
                r2 += 1.0
                np.maximum(r2, 0.0, out=r2)
                r2 *= log_successes[h2]
                log_s += r2
            # Jump size in s-space: s_above - s_below = s_above*(1 - 1/q).
            jump = -round_failures[h] / (1.0 - round_failures[h])
            delta = np.exp(log_s)
            delta *= jump
            delta_parts.append(delta)
            beta_parts.append(beta)
        per_task = (self.lo_counts + 1.0) * self.lo_round_failures
        survivals = -math.expm1(log_s_horizon)
        successes = 1.0 - self.lo_round_failures
        if delta_parts:
            deltas = np.concatenate(delta_parts)
            betas = np.concatenate(beta_parts)
            # c[l, j] = #{m in 1..M_l : G_l - m*T_l >= beta_j}, i.e.
            # clip(floor(G_l/T_l + eps - beta_j/T_l), 0, M_l).
            c = np.multiply.outer(self.lo_inv_periods, betas)
            np.subtract(self.lo_scaled_starts[:, np.newaxis], c, out=c)
            np.floor(c, out=c)
            np.clip(c, 0.0, self.lo_counts[:, np.newaxis], out=c)
            grid_kill = -(c @ deltas)
        else:
            grid_kill = np.zeros(len(self.lo_periods))
        total = float(
            np.sum(per_task + successes * (grid_kill + survivals))
        )
        return total / self.operation_hours


def pfh_lo_killing(
    taskset: TaskSet,
    reexecution: ReexecutionProfile,
    adaptation: AdaptationProfile,
    operation_hours: float,
    assume_full_wcet: bool = True,
) -> float:
    """``pfh(LO)`` under task killing — eq. (5) of Lemma 3.3.

    Parameters
    ----------
    taskset:
        The dual-criticality task set.
    reexecution:
        ``N``: executions per round for every task (``n_i`` of LO tasks
        enters the per-round success ``1 - f_i^{n_i}`` and the spacing of
        the timing points).
    adaptation:
        ``N'_HI``: the killing profile of the HI tasks, one ``n'_i`` per
        task (Algorithm 1 searches uniform ones, Section 4.2).
    operation_hours:
        ``OS``: system operation duration in hours (the paper cites
        1-10 h for commercial aircraft).  The bound is the cumulative
        failure rate over ``OS`` hours divided by ``OS``.
    assume_full_wcet:
        Footnote 1 (see :func:`repro.safety.pfh.max_rounds`).

    On the NumPy tier the sum runs through the breakpoint form of
    :class:`_KillingContext`, in closed form per HI-task round instead of
    per timing point; ``REPRO_NO_NUMPY`` selects the scalar oracle
    :func:`pfh_lo_killing_reference`.

    Notes
    -----
    The PFH of the HI level is *unaffected* by killing (HI tasks are never
    killed) and remains eq. (2); use :func:`repro.safety.pfh.pfh_plain`.
    """
    check_operation_hours(operation_hours)
    adaptation.validate_for(taskset, reexecution)
    if not kernels.numpy_enabled():
        return pfh_lo_killing_reference(
            taskset, reexecution, adaptation, operation_hours, assume_full_wcet
        )
    return _KillingContext(
        taskset, reexecution, operation_hours, assume_full_wcet
    ).value_at(adaptation)


def pfh_lo_killing_reference(
    taskset: TaskSet,
    reexecution: ReexecutionProfile,
    adaptation: AdaptationProfile,
    operation_hours: float,
    assume_full_wcet: bool = True,
) -> float:
    """Pure-Python reference implementation of eq. (5).

    Mathematically identical to :func:`pfh_lo_killing`; kept as the
    scalar oracle for its breakpoint form, and selected by
    ``REPRO_NO_NUMPY``.  Each per-round bound is assembled
    cancellation-free from ``log R`` and every sum is an exactly rounded
    :func:`math.fsum`.  Orders of magnitude slower — do not use in
    experiments.
    """
    check_operation_hours(operation_hours)
    horizon = operation_hours * HOUR_MS
    hi_factors = [
        (
            task,
            adaptation[task],
            math.log1p(
                -round_failure_probability(task.failure_probability, adaptation[task])
            ),
        )
        for task in taskset.hi_tasks
    ]
    per_task: list[float] = []
    for task in taskset.lo_tasks:
        n = reexecution[task]
        rounds = max_rounds(task, n, horizon, assume_full_wcet)
        if rounds <= 0:
            continue
        setup = n * task.wcet if assume_full_wcet else 0.0
        points = [horizon]
        for m in range(1, rounds):
            alpha = horizon - setup - m * task.period + task.deadline
            if alpha > 0:
                points.append(alpha)
        round_failure = round_failure_probability(task.failure_probability, n)
        # 1 - R(alpha) * (1 - f^n) == f^n + (1 - f^n) * (1 - R(alpha)).
        kills = math.fsum(
            -math.expm1(_log_survival_scalar(hi_factors, alpha, assume_full_wcet))
            for alpha in points
        )
        per_task.append(len(points) * round_failure)
        per_task.append((1.0 - round_failure) * kills)
    return math.fsum(per_task) / operation_hours


def _log_survival_scalar(
    hi_factors: list[tuple[Task, int, float]],
    horizon: float,
    assume_full_wcet: bool,
) -> float:
    """Scalar ``log R(N'_HI, t)`` of eq. (3), without numpy.

    ``hi_factors`` holds ``(task, n'_i, log(1 - f_i^{n'_i}))`` for every HI
    task; only the eq. (1) rounds depend on ``t``.
    """
    log_r = 0.0
    for task, n_prime, log_success in hi_factors:
        log_r += max_rounds(task, n_prime, horizon, assume_full_wcet) * log_success
    return log_r


__all__.append("pfh_lo_killing_reference")


#: Slack, in rounds, around ``x = (alpha - n'_h C_h)/T_h`` in the bounds'
#: rounds ``r_h(alpha)``: it covers eq. (1)'s floor epsilon (1e-9) and the
#: float noise of the quotient the evaluators floor (~1e-16 x, under 1e-8
#: even for 1-ms periods over 10 h), and widens each bound by a millionth
#: of a round per HI task.
_ROUNDS_SLACK: float = 1e-6

#: Largest ``y = -log R(alpha)`` on a LO task's grid for which the kill
#: terms ``1 - e^{-y}`` are summed through truncated series.  Above it the
#: geometric closed form ``M - sum e^{-y}`` is used instead: its
#: cancellation then costs at most ~1e-13 relative, and below it the
#: series are tighter than 1e-7 relative.
_SERIES_LIMIT: float = 1e-2

#: Truncations of ``1 - e^{-y} = y - y^2/2 + y^3/6 - ...`` that bound it
#: from below and from above for every ``y >= 0`` (alternating Taylor
#: remainders), as coefficients of ``y, y^2, ...``.
_SERIES_BELOW = (1.0, -1.0 / 2.0, 1.0 / 6.0, -1.0 / 24.0)
_SERIES_ABOVE = (1.0, -1.0 / 2.0, 1.0 / 6.0)


def _grid_kill(first: float, step: float, count: int, series: tuple) -> float:
    """``sum_{j<count} (1 - e^{-(first + j*step)})`` for ``first, step >= 0``.

    While every exponent stays at most :data:`_SERIES_LIMIT` the sum runs
    through ``series``, a bounding truncation of ``1 - e^{-y}``, using the
    closed power sums of ``j``; every power sum is a sum of non-negative
    terms, so nothing cancels however small the kill terms are beside
    ``count``.  Otherwise it is the exact geometric closed form.
    """
    if count <= 0:
        return 0.0
    if first + step * (count - 1) > _SERIES_LIMIT:
        if step > 0.0:
            tail = math.exp(-first) * math.expm1(-step * count) / math.expm1(-step)
        else:
            tail = count * math.exp(-first)
        return count - tail
    # s_i = sum_{j=0}^{count-1} j^i, and moment k = sum_j (first + j*step)^k
    # expanded binomially.
    last = count - 1
    s1 = last * (last + 1) / 2.0
    s2 = s1 * (2 * last + 1) / 3.0
    s3 = s1 * s1
    s4 = s2 * (3 * last * last + 3 * last - 1) / 5.0
    a, b = first, step
    moments = (
        a * count + b * s1,
        a * a * count + 2.0 * a * b * s1 + b * b * s2,
        a**3 * count + 3.0 * a * a * b * s1 + 3.0 * a * b * b * s2 + b**3 * s3,
        a**4 * count + 4.0 * a**3 * b * s1 + 6.0 * a * a * b * b * s2
        + 4.0 * a * b**3 * s3 + b**4 * s4,
    )
    return sum(c * moment for c, moment in zip(series, moments))


def pfh_lo_killing_bounds(
    taskset: TaskSet,
    reexecution: ReexecutionProfile,
    adaptation: AdaptationProfile,
    operation_hours: float,
    assume_full_wcet: bool = True,
) -> tuple[float, float]:
    """``(lower, upper)`` around eq. (5), in O(HI + LO tasks).

    Both kernel tiers' values of :func:`pfh_lo_killing` (and
    :func:`pfh_lo_killing_reference`) lie in the interval, which was
    6e-6 to 2e-4 relative wide on the FMS and on generated sets.  Every evaluator's rounds
    ``r_h(alpha)`` lie in ``[max(x, 0), max(x + 1, 0)]`` for
    ``x = (alpha - n'_h C_h)/T_h`` (widened by :data:`_ROUNDS_SLACK`), so
    ``-log R(alpha) = sum_h r_h(alpha) L_h``, with
    ``L_h = -log(1 - f_h^{n'_h})``, lies between two lines in ``alpha``:

    - below, ``sum_h L_h (x_h - slack)`` clipped at 0;
    - above, ``sum_h L_h (x_h + 1 + slack)``, except that a HI task whose
      setup ``n'_h C_h`` exceeds its period takes the chord of its
      ``max(., 0)`` over ``[0, A]``, ``A`` the latest timing point.

    Each LO task's timing points (eq. 4) form an arithmetic grid, so its
    kill terms ``1 - e^{-y}`` sum in closed form along either line
    (:func:`_grid_kill`), and the singleton ``t`` is taken from
    ``r_h(t)`` exactly.  An arbitrary deadline (``D > T + n C``) puts
    timing points after ``t``: the lower line stops there at the kill
    term of ``t`` (the breakpoint form counts no HI round after the
    mission), while the upper line runs on, as the scalar oracle does.
    """
    check_operation_hours(operation_hours)
    adaptation.validate_for(taskset, reexecution)
    horizon = operation_hours * HOUR_MS
    hi_lines: list[tuple[float, float, float]] = []
    log_survival = 0.0
    for task in taskset.hi_tasks:
        n_prime = adaptation[task]
        log_success = math.log1p(
            -round_failure_probability(task.failure_probability, n_prime)
        )
        log_survival += (
            max_rounds(task, n_prime, horizon, assume_full_wcet) * log_success
        )
        setup = n_prime * task.wcet if assume_full_wcet else 0.0
        hi_lines.append((-log_success, setup / task.period, task.period))
    kill_at_horizon = -math.expm1(log_survival)

    grids: list[tuple[float, float, int, float]] = []
    latest = horizon
    for task in taskset.lo_tasks:
        n = reexecution[task]
        count = timing_point_count(task, n, horizon, assume_full_wcet)
        if count == 0:
            continue
        setup = n * task.wcet if assume_full_wcet else 0.0
        # alpha_m = start - m*T for m = 1..count-1, plus alpha = horizon.
        start = horizon - setup + task.deadline
        grids.append((
            start,
            task.period,
            count - 1,
            round_failure_probability(task.failure_probability, n),
        ))
        if count > 1:
            latest = max(latest, start - task.period)

    # -log R(alpha) >= below_slope * alpha - below_offset, and
    # -log R(alpha) <= above_slope * alpha + above_offset on [0, latest].
    below_slope = math.fsum(weight / period for weight, _, period in hi_lines)
    below_offset = math.fsum(
        weight * (phase + _ROUNDS_SLACK) for weight, phase, _ in hi_lines
    )
    above_slope = 0.0
    above_offset = 0.0
    for weight, phase, period in hi_lines:
        at_zero = 1.0 + _ROUNDS_SLACK - phase
        if at_zero >= 0.0:
            above_slope += weight / period
            above_offset += weight * at_zero
        else:
            at_latest = latest / period + at_zero
            if at_latest > 0.0:
                above_slope += weight * at_latest / latest
    crossing = below_offset / below_slope if below_slope > 0.0 else math.inf

    lower_terms: list[float] = []
    upper_terms: list[float] = []
    for start, period, points, round_failure in grids:
        success = 1.0 - round_failure
        plain = (points + 1) * round_failure
        upper_kill = _grid_kill(
            above_slope * (start - points * period) + above_offset,
            above_slope * period,
            points,
            _SERIES_ABOVE,
        )
        # Points after the horizon: m = 1..after.  Points with a positive
        # lower line: m < (start - crossing)/T.
        after = min(points, max(math.ceil((start - horizon) / period) - 1, 0))
        positive = (
            min(points, math.ceil((start - crossing) / period) - 1)
            if crossing < start
            else 0
        )
        lower_kill = after * kill_at_horizon
        if positive > after:
            lower_kill += _grid_kill(
                max(below_slope * (start - positive * period) - below_offset, 0.0),
                below_slope * period,
                positive - after,
                _SERIES_BELOW,
            )
        lower_terms += (plain, success * (kill_at_horizon + lower_kill))
        upper_terms += (plain, success * (kill_at_horizon + upper_kill))
    return (
        math.fsum(lower_terms) / operation_hours,
        math.fsum(upper_terms) / operation_hours,
    )
