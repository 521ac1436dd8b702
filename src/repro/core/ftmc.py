"""FT-S: the fault-tolerant mixed-criticality scheduling algorithm.

Implements Algorithm 1 of the paper, generic over the scheduler backend
``S`` (Theorem 4.1), plus the two concrete instances of Appendix B:

- :func:`ft_edf_vd` — Algorithm 2 (EDF-VD with task killing);
- :func:`ft_edf_vd_degradation` — the service-degradation variant
  (Algorithm 2 with line 11 replaced by eq. 11).

The driver proceeds exactly as the pseudo code:

1. line 2 — minimal uniform re-execution profiles ``n_HI``/``n_LO``
   meeting each level's PFH ceiling (eq. 2);
2. line 4 — minimal adaptation profile ``n1_HI`` keeping the LO level
   safe under the backend's mechanism (eq. 5 or eq. 7); FAILURE if none
   exists up to ``n_HI``;
3. line 8 — maximal adaptation profile ``n2_HI`` the backend can
   schedule (on the converted set of Lemma 4.1); and
4. lines 9-15 — SUCCESS with ``n'_HI = n2_HI`` iff ``n1_HI <= n2_HI``.

:func:`ft_accepts` answers only the SUCCESS/FAILURE signal, for callers
such as the Fig. 3 sweep that discard every intermediate quantity.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.core.backends import (
    EDFVDBackend,
    EDFVDDegradationBackend,
    SchedulerBackend,
)
from repro.core.conversion import convert_uniform
from repro.core.profiles import (
    LoPfh,
    ReexecutionProfiles,
    lo_safe_at,
    maximal_adaptation_profile,
    minimal_reexecution_profiles,
)
from repro.model.criticality import CriticalityRole
from repro.model.faults import ReexecutionProfile
from repro.model.mc_task import MCTaskSet
from repro.model.task import TaskSet
from repro.safety.pfh import DEFAULT_MAX_REEXECUTIONS, pfh_plain

__all__ = [
    "FTSFailure",
    "FTSResult",
    "ft_schedule",
    "ft_accepts",
    "ft_edf_vd",
    "ft_edf_vd_degradation",
    "DEFAULT_OPERATION_HOURS",
]

#: Default system operation duration ``OS`` in hours.  The paper's FMS
#: experiments use 10 h (the upper end of the 1-10 h commercial-aircraft
#: range it cites).
DEFAULT_OPERATION_HOURS: float = 10.0


class FTSFailure(enum.Enum):
    """Why FT-S signalled FAILURE."""

    #: Line 2 found no re-execution profile meeting a level's PFH ceiling.
    UNSAFE_REEXECUTION = "no re-execution profile meets the PFH requirement"
    #: Line 5: ``n1_HI > n_HI`` — LO safety cannot survive any adaptation.
    UNSAFE_ADAPTATION = "no adaptation profile keeps the LO level safe"
    #: Line 8 found no schedulable adaptation profile at all.
    UNSCHEDULABLE = "no adaptation profile is schedulable"
    #: Line 13: ``n1_HI > n2_HI`` — safety and schedulability conflict.
    INFEASIBLE_WINDOW = "minimal safe profile exceeds maximal schedulable profile"


@dataclass(frozen=True)
class FTSResult:
    """Outcome of one FT-S run.

    ``success`` mirrors the SUCCESS/FAILURE signal of Algorithm 1; the
    remaining fields expose every intermediate quantity for reporting.
    """

    success: bool
    failure: FTSFailure | None
    backend_name: str
    mechanism: str
    operation_hours: float
    #: ``df`` for degradation backends; ``None`` for killing backends.
    degradation_factor: float | None = None
    #: Line 2 outputs (``None`` when line 2 itself failed).
    n_hi: int | None = None
    n_lo: int | None = None
    #: Line 4 output (minimal safe adaptation profile).
    n1_hi: int | None = None
    #: Line 8 output (maximal schedulable adaptation profile).
    n2_hi: int | None = None
    #: The adopted adaptation profile (line 10): equals ``n2_hi`` on success.
    adaptation: int | None = None
    #: Converted MC task set ``Gamma(n_HI, n_LO, n'_HI)`` on success.
    mc_taskset: MCTaskSet | None = None
    #: PFH bounds at the adopted profiles (``nan`` when not applicable).
    pfh_hi: float = math.nan
    pfh_lo: float = math.nan
    #: Backend's ``U_MC`` on the adopted converted set (``nan`` if undefined).
    u_mc: float = math.nan

    def __bool__(self) -> bool:
        return self.success


def ft_schedule(
    taskset: TaskSet,
    backend: SchedulerBackend,
    operation_hours: float = DEFAULT_OPERATION_HOURS,
    max_n: int = DEFAULT_MAX_REEXECUTIONS,
    assume_full_wcet: bool = True,
) -> FTSResult:
    """Run FT-S (Algorithm 1) with the given scheduler backend.

    Parameters
    ----------
    taskset:
        Dual-criticality task set with a
        :class:`~repro.model.criticality.DualCriticalitySpec` attached and
        per-task failure probabilities set.
    backend:
        The conventional MC scheduling technique ``S``.
    operation_hours:
        ``OS``: mission duration in hours, used by the LO-safety bounds
        under adaptation (eqs. 5 and 7).
    max_n:
        Search ceiling for the re-execution profiles of line 2.
    assume_full_wcet:
        Footnote 1 of the paper (see :func:`repro.safety.pfh.max_rounds`).

    Returns
    -------
    FTSResult
        ``success=True`` guarantees (Theorem 4.1) that both safety and
        schedulability hold with the reported profiles.
    """
    def fail(reason: FTSFailure, **fields) -> FTSResult:
        return FTSResult(
            success=False,
            failure=reason,
            backend_name=backend.name,
            mechanism=backend.mechanism,
            operation_hours=operation_hours,
            degradation_factor=backend.degradation_factor,
            **fields,
        )

    # Lines 1-3: minimal re-execution profiles per criticality level.
    profiles = minimal_reexecution_profiles(
        taskset, max_n=max_n, assume_full_wcet=assume_full_wcet
    )
    if profiles is None:
        return fail(FTSFailure.UNSAFE_REEXECUTION)
    n_hi, n_lo = profiles.n_hi, profiles.n_lo

    # Line 4: minimal adaptation profile keeping the LO level safe.  The
    # pfh(LO) values it computes are reused for the adopted profile below.
    lo_pfh = LoPfh(
        taskset, n_hi, n_lo, backend.mechanism, operation_hours, assume_full_wcet
    )
    n1 = lo_pfh.minimal_safe()
    if n1 is None:
        # Line 5/6: n1_HI > n_HI.
        return fail(FTSFailure.UNSAFE_ADAPTATION, n_hi=n_hi, n_lo=n_lo)

    # Line 8: maximal schedulable adaptation profile.
    n2 = maximal_adaptation_profile(taskset, n_hi, n_lo, backend)
    if n2 is None:
        return fail(FTSFailure.UNSCHEDULABLE, n_hi=n_hi, n_lo=n_lo, n1_hi=n1)

    # Lines 9-15.
    if n1 > n2:
        return fail(
            FTSFailure.INFEASIBLE_WINDOW, n_hi=n_hi, n_lo=n_lo, n1_hi=n1, n2_hi=n2
        )

    adaptation = n2
    mc = convert_uniform(taskset, n_hi, n_lo, adaptation)
    reexecution = ReexecutionProfile.uniform(taskset, n_hi, n_lo)
    pfh_hi = pfh_plain(taskset, CriticalityRole.HI, reexecution, assume_full_wcet)
    pfh_lo = lo_pfh(adaptation)
    return FTSResult(
        success=True,
        failure=None,
        backend_name=backend.name,
        mechanism=backend.mechanism,
        operation_hours=operation_hours,
        degradation_factor=backend.degradation_factor,
        n_hi=n_hi,
        n_lo=n_lo,
        n1_hi=n1,
        n2_hi=n2,
        adaptation=adaptation,
        mc_taskset=mc,
        pfh_hi=pfh_hi,
        pfh_lo=pfh_lo,
        u_mc=backend.utilization_metric(mc),
    )


def ft_accepts(
    taskset: TaskSet,
    profiles: ReexecutionProfiles | None,
    backend: SchedulerBackend,
    operation_hours: float = DEFAULT_OPERATION_HOURS,
) -> bool:
    """``ft_schedule(...).success`` without the intermediate quantities.

    ``profiles`` is line 2's result for ``taskset``, as
    :func:`~repro.core.profiles.minimal_reexecution_profiles` returns it:
    the caller has usually computed it already (Fig. 3 needs it for the
    no-adaptation baseline), and ``None`` is line 2's FAILURE.  Runs
    line 8, then line 4's test at ``n2_HI`` alone
    (:func:`~repro.core.profiles.lo_safe_at`).  Lemmas 3.3/3.4 make
    ``pfh(LO)`` non-increasing in ``n'``, so the safe candidates of line 4
    form a suffix of ``1..n_HI`` and ``n1_HI <= n2_HI`` holds iff
    ``n2_HI`` itself is safe.  That replaces line 4's scan with one
    test per set, made only for sets line 8 accepts (under ``kill``
    usually answered by eq. (5)'s bounds, without an evaluation), and
    skips the lines 9-15 finalisation.

    The test is line 4's own (:meth:`~repro.core.profiles.LoPfh.safe`),
    so the verdict equals :func:`ft_schedule`'s on every tier.
    Exceptions may differ: a backend that rejects the input at line 8
    (EDF-VD on constrained deadlines) raises here even for a set that
    :func:`ft_schedule` would have rejected at line 5 first.
    """
    if profiles is None:
        return False
    n_hi, n_lo = profiles.n_hi, profiles.n_lo
    n2 = maximal_adaptation_profile(taskset, n_hi, n_lo, backend)
    if n2 is None:
        return False
    return lo_safe_at(
        taskset, n_hi, n_lo, n2, backend.mechanism, operation_hours
    )


def ft_edf_vd(
    taskset: TaskSet,
    operation_hours: float = DEFAULT_OPERATION_HOURS,
    max_n: int = DEFAULT_MAX_REEXECUTIONS,
    assume_full_wcet: bool = True,
) -> FTSResult:
    """Fault-Tolerant EDF-VD (Algorithm 2): FT-S with task killing."""
    return ft_schedule(
        taskset,
        EDFVDBackend(),
        operation_hours=operation_hours,
        max_n=max_n,
        assume_full_wcet=assume_full_wcet,
    )


def ft_edf_vd_degradation(
    taskset: TaskSet,
    degradation_factor: float,
    operation_hours: float = DEFAULT_OPERATION_HOURS,
    max_n: int = DEFAULT_MAX_REEXECUTIONS,
    assume_full_wcet: bool = True,
) -> FTSResult:
    """FT-S with EDF-VD + service degradation (Appendix B.0.2)."""
    return ft_schedule(
        taskset,
        EDFVDDegradationBackend(degradation_factor),
        operation_hours=operation_hours,
        max_n=max_n,
        assume_full_wcet=assume_full_wcet,
    )
