"""Shared machinery for the FMS case-study sweeps (Figs. 1 and 2).

Both figures plot, against the adaptation profile ``n'_HI`` of the HI
tasks, (i) the mixed-criticality utilization ``U_MC`` and (ii) the
LO-level PFH bound — under task killing (Fig. 1) and service degradation
(Fig. 2).

``U_MC`` is evaluated by the closed forms of Algorithm 2 (line 11 for
killing, eq. 11 for degradation), which remain well-defined for the
figure's hypothetical points ``n' > n_HI`` (the paper's x-axis extends to
4 while ``n_HI = 3``); those points carry no runtime semantics — an
instance never executes more than ``n_HI`` times — and are flagged in the
output.
"""

from __future__ import annotations

import math

from repro.analysis.edf_vd import edf_vd_loads
from repro.analysis.tolerance import utilization_exceeds
from repro.core.ftmc import ft_edf_vd, ft_edf_vd_degradation
from repro.core.profiles import minimal_reexecution_profiles, pfh_lo_adapted
from repro.experiments.ascii_chart import line_chart
from repro.experiments.results import ExperimentResult
from repro.model.criticality import CriticalityRole
from repro.model.task import TaskSet
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = [
    "u_mc_kill",
    "u_mc_degrade",
    "sweep_point",
    "sweep_notes",
    "SWEEP_COLUMNS",
]

#: Column layout of the Fig. 1 / Fig. 2 sweeps, whose campaign shards
#: compute one row each.
SWEEP_COLUMNS: tuple[str, ...] = (
    "n_prime",
    "u_mc",
    "schedulable",
    "pfh_lo",
    "log10_pfh_lo",
    "safe",
    "hypothetical",
)


def u_mc_kill(taskset: TaskSet, n_hi: int, n_lo: int, n_prime: int) -> float:
    """``U_MC(n')`` of Algorithm 2, lines 8-11 (EDF-VD with killing).

    ``U_MC(n) = max(n*U_HI + U_LO^LO, U_HI^HI + lambda(n) * U_LO^LO)``
    with ``U_HI^HI = n_HI * U_HI``, ``U_LO^LO = n_LO * U_LO`` and
    ``lambda(n) = n * U_HI / (1 - U_LO^LO)``: eq. (10)'s loads at
    ``U_HI^LO = n * U_HI``.
    """
    u_hi = taskset.utilization(CriticalityRole.HI)
    u_lo_lo = n_lo * taskset.utilization(CriticalityRole.LO)
    return max(edf_vd_loads(n_prime * u_hi, n_hi * u_hi, u_lo_lo)[:2])


def u_mc_degrade(
    taskset: TaskSet, n_hi: int, n_lo: int, n_prime: int, degradation_factor: float
) -> float:
    """``U_MC(n')`` under service degradation (eq. 11): eq. (12)'s loads."""
    if degradation_factor <= 1.0:
        raise ValueError(
            f"degradation factor must be > 1, got {degradation_factor}"
        )
    u_hi = taskset.utilization(CriticalityRole.HI)
    u_lo_lo = n_lo * taskset.utilization(CriticalityRole.LO)
    return max(
        edf_vd_loads(n_prime * u_hi, n_hi * u_hi, u_lo_lo, degradation_factor)[:2]
    )


def _checked_mechanism(mechanism: str, degradation_factor: float | None) -> None:
    if mechanism not in ("kill", "degrade"):
        raise ValueError(f"unknown mechanism: {mechanism!r}")
    if mechanism == "degrade" and degradation_factor is None:
        raise ValueError("degradation sweep needs a degradation factor")


def sweep_point(
    taskset: TaskSet,
    mechanism: str,
    n_prime: int,
    operation_hours: float,
    degradation_factor: float | None = None,
) -> tuple:
    """One row of the Fig. 1 / Fig. 2 sweep (columns :data:`SWEEP_COLUMNS`).

    Self-contained — derives the minimal re-execution profiles itself —
    so a campaign shard can evaluate a single ``n'`` point independently
    of the rest of the sweep.
    """
    _checked_mechanism(mechanism, degradation_factor)
    obs_metrics.inc("experiments.sweep.points")
    with obs_trace.span("sweep.point", mechanism=mechanism, n_prime=n_prime):
        profiles = minimal_reexecution_profiles(taskset)
        if profiles is None:
            raise ValueError("task set cannot meet its PFH ceilings at all")
        n_hi, n_lo = profiles.n_hi, profiles.n_lo
        ceiling = taskset.spec.pfh_requirement(CriticalityRole.LO)  # type: ignore[union-attr]
        if mechanism == "kill":
            u_mc = u_mc_kill(taskset, n_hi, n_lo, n_prime)
        else:
            assert degradation_factor is not None
            u_mc = u_mc_degrade(taskset, n_hi, n_lo, n_prime, degradation_factor)
        pfh_lo = pfh_lo_adapted(
            taskset, max(n_hi, n_prime), n_lo, n_prime, mechanism, operation_hours
        )
    return (
        n_prime,
        u_mc,
        not utilization_exceeds(u_mc, 1.0),
        pfh_lo,
        math.log10(pfh_lo) if pfh_lo > 0 else -math.inf,
        pfh_lo < ceiling,
        n_prime > n_hi,
    )


def sweep_notes(
    taskset: TaskSet,
    mechanism: str,
    operation_hours: float,
    degradation_factor: float | None = None,
) -> list[str]:
    """The FT-S summary notes attached to a Fig. 1 / Fig. 2 result."""
    _checked_mechanism(mechanism, degradation_factor)
    profiles = minimal_reexecution_profiles(taskset)
    if profiles is None:
        raise ValueError("task set cannot meet its PFH ceilings at all")
    if mechanism == "kill":
        fts = ft_edf_vd(taskset, operation_hours=operation_hours)
    else:
        assert degradation_factor is not None
        fts = ft_edf_vd_degradation(
            taskset, degradation_factor, operation_hours=operation_hours
        )
    return [
        f"re-execution profiles: n_HI={profiles.n_hi}, n_LO={profiles.n_lo} "
        "(paper: 3, 2)",
        f"FT-S ({fts.backend_name}): "
        + (
            f"SUCCESS with n'_HI={fts.adaptation}"
            if fts.success
            else f"FAILURE ({fts.failure.value})"  # type: ignore[union-attr]
        ),
        f"n1_HI={fts.n1_hi} (minimal safe), n2_HI={fts.n2_hi} "
        "(maximal schedulable)",
    ]


def render_sweep_chart(result: ExperimentResult, title: str) -> str:
    """ASCII rendering of a sweep: U_MC and log10 pfh(LO) vs n'."""
    n_primes = result.column("n_prime")
    u_series = list(zip(n_primes, result.column("u_mc")))
    pfh_series = [
        (n, p) for n, p in zip(n_primes, result.column("pfh_lo")) if p > 0
    ]
    chart_u = line_chart(
        {"U_MC": u_series}, title=f"{title}: U_MC vs n'", x_label="n'_HI",
        y_label="U_MC",
    )
    chart_p = line_chart(
        {"pfh(LO)": pfh_series},
        log_y=True,
        title=f"{title}: pfh(LO) vs n'",
        x_label="n'_HI",
        y_label="pfh(LO)",
    )
    return f"{chart_u}\n\n{chart_p}"


__all__.append("render_sweep_chart")
