"""EDF-VD with service degradation [Huang et al., ASP-DAC 2014].

The degradation variant of EDF-VD keeps LO tasks alive after the mode
switch but stretches their inter-arrival times to ``df * T_i``.  The
sufficient test cited by the paper (eq. 12) is::

    max( U_HI^LO + U_LO^LO,
         U_HI^HI / (1 - U_HI^LO / (1 - U_LO^LO)) + U_LO^LO / (df - 1) ) <= 1

which Algorithm 2's line 11 replacement (eq. 11) re-expresses through
``lambda(n) = n * U_HI / (1 - U_LO^LO)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.edf_vd import edf_vd_loads
from repro.analysis.tolerance import utilization_exceeds
from repro.model.mc_task import MCTaskSet

__all__ = [
    "EDFVDDegradationAnalysis",
    "edf_vd_degradation_utilization",
    "edf_vd_degradation_schedulable",
]


@dataclass(frozen=True)
class EDFVDDegradationAnalysis:
    """Result of the degradation-mode EDF-VD test on one MC task set."""

    degradation_factor: float
    u_hi_lo: float
    u_hi_hi: float
    u_lo_lo: float
    #: LO-mode EDF load (identical to the killing variant).
    lo_mode_load: float
    #: HI-mode load with degraded LO service.
    hi_mode_load: float
    #: ``U_MC`` under degradation (eq. 11).
    u_mc: float
    #: ``lambda = U_HI^LO / (1 - U_LO^LO)``; ``None`` when undefined.
    lam: float | None

    @property
    def schedulable(self) -> bool:
        """Whether eq. (12) holds: ``U_MC <= 1``."""
        return not utilization_exceeds(self.u_mc)


def analyse(mc: MCTaskSet, degradation_factor: float) -> EDFVDDegradationAnalysis:
    """Run the degradation test (eq. 12) on ``mc`` with factor ``df``."""
    if degradation_factor <= 1.0:
        raise ValueError(
            f"degradation factor must be > 1, got {degradation_factor}"
        )
    if not mc.is_implicit_deadline:
        raise ValueError("EDF-VD analysis requires implicit deadlines")
    u_hi_lo = mc.u_hi_lo
    u_hi_hi = mc.u_hi_hi
    u_lo_lo = mc.u_lo_lo
    lo_mode, hi_mode, lam = edf_vd_loads(
        u_hi_lo, u_hi_hi, u_lo_lo, degradation_factor
    )
    return EDFVDDegradationAnalysis(
        degradation_factor=degradation_factor,
        u_hi_lo=u_hi_lo,
        u_hi_hi=u_hi_hi,
        u_lo_lo=u_lo_lo,
        lo_mode_load=lo_mode,
        hi_mode_load=hi_mode,
        u_mc=max(lo_mode, hi_mode),
        lam=lam,
    )


def edf_vd_degradation_utilization(mc: MCTaskSet, degradation_factor: float) -> float:
    """``U_MC`` under EDF-VD with service degradation (eq. 11)."""
    return analyse(mc, degradation_factor).u_mc


def edf_vd_degradation_schedulable(mc: MCTaskSet, degradation_factor: float) -> bool:
    """Whether ``mc`` passes the degradation test of eq. (12)."""
    return analyse(mc, degradation_factor).schedulable
