"""Profile searches of Algorithm 1 (FT-S), lines 2, 4 and 8.

Under the uniform-profile restriction of Section 4.2 (one ``n`` per
criticality, one ``n'`` shared by all HI tasks) the three searches are
one-dimensional:

- line 2: ``n_chi = inf{n : pfh(chi) <= PFH_chi}`` via eq. (2);
- line 4: ``n1_HI = inf{n' : pfh(LO) < PFH_LO}`` via eq. (5) (killing) or
  eq. (7) (degradation) — the smallest adaptation profile that keeps the
  LO level safe;
- line 8: ``n2_HI = sup{n' : Gamma(n_HI, n_LO, n') schedulable by S}`` —
  the largest adaptation profile the scheduler can absorb.

Both pfh-based searches exploit monotonicity in ``n'`` (Lemmas 3.3/3.4:
larger adaptation profiles can only improve LO safety); the schedulability
search exploits the backend's monotonicity (smaller ``n'`` can only help).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.backends import SchedulerBackend
from repro.core.conversion import convert_uniform_series
from repro.model.criticality import CriticalityRole
from repro.model.faults import AdaptationProfile, ReexecutionProfile
from repro.model.task import TaskSet
from repro.safety.degradation import pfh_lo_degradation
from repro.safety.killing import pfh_lo_killing, pfh_lo_killing_bounds
from repro.safety.pfh import DEFAULT_MAX_REEXECUTIONS, minimal_uniform_reexecution

__all__ = [
    "LoPfh",
    "ReexecutionProfiles",
    "minimal_reexecution_profiles",
    "pfh_lo_adapted",
    "lo_safe_at",
    "minimal_adaptation_profile",
    "maximal_adaptation_profile",
]

#: Relative margin by which ``PFH_LO`` must clear eq. (5)'s bounds
#: (:func:`~repro.safety.killing.pfh_lo_killing_bounds`) before line 4
#: decides from them.  It sits far above the float error of the bounds and
#: of the evaluators (<= 1e-12 relative), so a verdict from the bounds is
#: the verdict the value gives; the bounds are ~1e-4 relative wide, so
#: almost no candidate falls inside it.
_BOUNDS_MARGIN: float = 1e-6


@dataclass(frozen=True)
class ReexecutionProfiles:
    """The uniform re-execution profiles ``(n_HI, n_LO)`` of line 2."""

    n_hi: int
    n_lo: int


def minimal_reexecution_profiles(
    taskset: TaskSet,
    max_n: int = DEFAULT_MAX_REEXECUTIONS,
    assume_full_wcet: bool = True,
) -> ReexecutionProfiles | None:
    """Line 2 of Algorithm 1: minimal ``n_chi`` meeting each PFH ceiling.

    Uses the ceilings bound by the task set's
    :class:`~repro.model.criticality.DualCriticalitySpec`.  Returns
    ``None`` when some level cannot be made safe within ``max_n``
    re-executions (FT-S then fails regardless of scheduling).
    """
    if taskset.spec is None:
        raise ValueError("task set has no dual-criticality spec attached")
    profiles = {}
    for role in (CriticalityRole.HI, CriticalityRole.LO):
        ceiling = taskset.spec.pfh_requirement(role)
        n = minimal_uniform_reexecution(
            taskset, role, ceiling, max_n=max_n, assume_full_wcet=assume_full_wcet
        )
        if n is None:
            return None
        profiles[role] = n
    return ReexecutionProfiles(
        n_hi=profiles[CriticalityRole.HI], n_lo=profiles[CriticalityRole.LO]
    )


class LoPfh:
    """Line 4's ``pfh(LO)`` at uniform profiles, for one FT-S run.

    Holds the line-2 profiles ``(n_HI, n_LO)``, the backend's adaptation
    mechanism and the mission, and keeps each ``pfh(LO)`` value it
    computes, so line 4's scan (:meth:`minimal_safe`) and the
    adopted-profile value that lines 9-15 report evaluate each candidate
    ``n'`` once.  Under ``kill`` line 4's test mostly needs no value at
    all: :meth:`safe` decides from eq. (5)'s closed-form bounds, and the
    breakpoint form runs only for a value that is reported
    (:meth:`__call__`) or a candidate whose bounds straddle ``PFH_LO``.
    :func:`~repro.core.ftmc.ft_schedule` and
    :func:`~repro.planner.ftmp.ft_schedule_partitioned` build one per run,
    so no value outlives the run that asked for it.
    """

    def __init__(
        self,
        taskset: TaskSet,
        n_hi: int,
        n_lo: int,
        mechanism: str,
        operation_hours: float,
        assume_full_wcet: bool = True,
    ) -> None:
        self.taskset = taskset
        self.n_hi = n_hi
        self.n_lo = n_lo
        self.mechanism = mechanism
        self.operation_hours = operation_hours
        self.assume_full_wcet = assume_full_wcet
        self._values: dict[int, float] = {}

    def _profiles(self, n_prime: int) -> tuple[ReexecutionProfile, AdaptationProfile]:
        return (
            ReexecutionProfile.uniform(self.taskset, self.n_hi, self.n_lo),
            AdaptationProfile.uniform(self.taskset, n_prime),
        )

    def __call__(self, n_prime: int) -> float:
        """``pfh(LO)`` at ``n'``: eq. (5) under ``kill``, eq. (7) under
        ``degrade``, each on the active kernel tier."""
        value = self._values.get(n_prime)
        if value is None:
            if self.mechanism == "kill":
                evaluate = pfh_lo_killing
            elif self.mechanism == "degrade":
                evaluate = pfh_lo_degradation
            else:
                raise ValueError(
                    f"unknown adaptation mechanism: {self.mechanism!r}"
                )
            value = self._values[n_prime] = evaluate(
                self.taskset,
                *self._profiles(n_prime),
                self.operation_hours,
                self.assume_full_wcet,
            )
        return value

    def safe(self, n_prime: int) -> bool:
        """Line 4's test at one candidate: ``pfh(LO) < PFH_LO`` at ``n'``.

        Trivially true when the LO level carries no quantified requirement
        (DO-178B levels D/E) or has no tasks; the mechanism is then never
        read.  The comparison is strict, as in line 4's infimum.  Under
        ``kill``, a candidate with no value yet is answered from eq. (5)'s
        bounds when ``PFH_LO`` clears them by :data:`_BOUNDS_MARGIN`; the
        value is computed only otherwise, so the verdict is always the
        value's.
        """
        spec = self.taskset.spec
        if spec is None:
            raise ValueError("task set has no dual-criticality spec attached")
        if not spec.lo_is_safety_related or not self.taskset.lo_tasks:
            return True
        ceiling = spec.pfh_requirement(CriticalityRole.LO)
        if self.mechanism == "kill" and n_prime not in self._values:
            lower, upper = pfh_lo_killing_bounds(
                self.taskset,
                *self._profiles(n_prime),
                self.operation_hours,
                self.assume_full_wcet,
            )
            if upper * (1.0 + _BOUNDS_MARGIN) < ceiling:
                return True
            if lower * (1.0 - _BOUNDS_MARGIN) >= ceiling:
                return False
        return self(n_prime) < ceiling

    def minimal_safe(self) -> int | None:
        """Line 4: ``n1_HI = inf{n' in 1..n_HI : pfh(LO) < PFH_LO}``.

        Tests ``n' = n_HI`` first: Lemmas 3.3/3.4 make ``pfh(LO)``
        non-increasing in ``n'``, so when even the largest candidate
        misses the ceiling the scan is FAILURE for one test instead of
        ``n_HI``.  Returns ``None`` for FAILURE (lines 5/6).
        """
        if not self.safe(self.n_hi):
            return None
        for n_prime in range(1, self.n_hi + 1):
            if self.safe(n_prime):
                return n_prime
        return None


def pfh_lo_adapted(
    taskset: TaskSet,
    n_hi: int,
    n_lo: int,
    n_prime: int,
    mechanism: str,
    operation_hours: float,
    assume_full_wcet: bool = True,
) -> float:
    """LO-level PFH bound with uniform profiles, under kill or degrade.

    Dispatches to eq. (5) (``mechanism="kill"``) or eq. (7)
    (``mechanism="degrade"``); see :class:`LoPfh`.
    """
    return LoPfh(
        taskset, n_hi, n_lo, mechanism, operation_hours, assume_full_wcet
    )(n_prime)


def lo_safe_at(
    taskset: TaskSet,
    n_hi: int,
    n_lo: int,
    n_prime: int,
    mechanism: str,
    operation_hours: float,
    assume_full_wcet: bool = True,
) -> bool:
    """Line 4's test at one candidate (:meth:`LoPfh.safe`).

    :func:`~repro.core.ftmc.ft_accepts` decides through it, and line 4's
    scan through the same test.
    """
    return LoPfh(
        taskset, n_hi, n_lo, mechanism, operation_hours, assume_full_wcet
    ).safe(n_prime)


def minimal_adaptation_profile(
    taskset: TaskSet,
    n_hi: int,
    n_lo: int,
    mechanism: str,
    operation_hours: float,
    assume_full_wcet: bool = True,
) -> int | None:
    """Line 4 of Algorithm 1: ``n1_HI = inf{n' : pfh(LO) < PFH_LO}``.

    See :meth:`LoPfh.minimal_safe`.  When the LO level carries no
    quantified requirement (DO-178B levels D/E) the infimum is trivially
    1.  Returns ``None`` when even ``n' = n_HI`` leaves the LO level
    unsafe (FT-S line 5/6: FAILURE).
    """
    return LoPfh(
        taskset, n_hi, n_lo, mechanism, operation_hours, assume_full_wcet
    ).minimal_safe()


def maximal_adaptation_profile(
    taskset: TaskSet, n_hi: int, n_lo: int, backend: SchedulerBackend
) -> int | None:
    """Line 8 of Algorithm 1: ``n2_HI = sup{n' : Gamma(...) schedulable}``.

    Scans ``n'`` downward from ``n_HI`` and returns the first schedulable
    profile (the supremum, by the backend's monotonicity).  Returns
    ``None`` when even the earliest possible adaptation (``n' = 1``)
    cannot be scheduled.

    Backends that implement
    :meth:`~repro.core.backends.SchedulerBackend.schedulable_uniform_series`
    (the EDF-VD family) verdict the candidates analytically, one at a
    time as the scan asks for them — no ``MCTaskSet`` objects are built
    and no memo keys.  That series is pure Python and bit-identical to
    the conversion scan by construction, so it runs on both kernel tiers.

    For every other backend the converted sets come from
    :func:`~repro.core.conversion.convert_uniform_series` (the profiles
    are validated once and the LO tasks shared across the scan — only the
    HI budgets change with ``n'``), and the verdicts go through the
    backend's own memo, which a caller holding the backend across calls
    (a pooled service backend answering repeated requests) gets back.
    """
    series = backend.schedulable_uniform_series(
        taskset, n_hi, n_lo, range(n_hi, 0, -1)
    )
    if series is not None:
        for n_prime, ok in zip(range(n_hi, 0, -1), series):
            if ok:
                return n_prime
        return None
    for n_prime, mc in convert_uniform_series(
        taskset, n_hi, n_lo, range(n_hi, 0, -1)
    ):
        if backend.is_schedulable_cached(mc):
            return n_prime
    return None
