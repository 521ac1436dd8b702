"""EDF-VD schedulability analysis [Baruah et al., ECRTS 2012].

EDF-VD (EDF with Virtual Deadlines) is the mixed-criticality scheduler the
paper instantiates FT-S with (Appendix B.0.1).  It is a two-mode scheduler
for implicit-deadline dual-criticality task sets:

- in LO mode all tasks are scheduled by EDF, but HI tasks use *virtual*
  deadlines ``x * T_i`` shortened by a factor ``x <= 1``;
- when any HI job exceeds its LO-criticality budget ``C_i(LO)``, the
  system switches to HI mode: LO tasks are killed and HI tasks revert to
  their real deadlines.

The sufficient test used by the paper (eq. 10) is::

    max( U_HI^LO + U_LO^LO,
         U_HI^HI + U_HI^LO / (1 - U_LO^LO) * U_LO^LO ) <= 1

with the virtual-deadline factor ``x = U_HI^LO / (1 - U_LO^LO)``.

This module evaluates the test, the associated ``U_MC`` load metric used
by Fig. 1, and the runtime parameter ``x`` consumed by the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.tolerance import utilization_exceeds
from repro.model.mc_task import MCTaskSet

__all__ = [
    "EDFVDAnalysis",
    "edf_vd_loads",
    "edf_vd_utilization",
    "edf_vd_schedulable",
    "edf_vd_x",
]


def edf_vd_loads(
    u_hi_lo: float,
    u_hi_hi: float,
    u_lo_lo: float,
    degradation_factor: float | None = None,
) -> tuple[float, float, float | None]:
    """``(LO-mode load, HI-mode load, x)``: the two operands of eq. (10).

    ``x = U_HI^LO / (1 - U_LO^LO)`` is the virtual-deadline factor, and
    under service degradation (``degradation_factor`` given) the
    ``lambda`` of eq. (12), whose HI-mode load
    ``U_HI^HI / (1 - lambda) + U_LO^LO / (df - 1)`` replaces eq. (10)'s.
    The HI-mode load is infinite where it is undefined: ``U_LO^LO >= 1``
    (then ``x`` is ``None``) or, under degradation, ``lambda >= 1``.
    Every analysis of the EDF-VD family takes its loads from here, so
    their float operations, and hence their verdicts, agree bit for bit.
    """
    lo_mode = u_hi_lo + u_lo_lo
    if u_lo_lo >= 1.0:
        # x's denominator vanishes: HI-mode load is unbounded.
        return lo_mode, math.inf, None
    x = u_hi_lo / (1.0 - u_lo_lo)
    if degradation_factor is None:
        return lo_mode, u_hi_hi + x * u_lo_lo, x
    if x >= 1.0:
        return lo_mode, math.inf, x
    return lo_mode, u_hi_hi / (1.0 - x) + u_lo_lo / (degradation_factor - 1.0), x


@dataclass(frozen=True)
class EDFVDAnalysis:
    """Result of the EDF-VD test on one MC task set."""

    u_hi_lo: float
    u_hi_hi: float
    u_lo_lo: float
    #: The left operand of eq. (10): LO-mode EDF load.
    lo_mode_load: float
    #: The right operand of eq. (10): HI-mode load with carried-over LO work.
    hi_mode_load: float
    #: ``U_MC``: the paper's mixed-criticality utilization metric
    #: (max of the two loads, line 11 of Algorithm 2).
    u_mc: float
    #: Virtual-deadline shrink factor ``x``; ``None`` when undefined
    #: (``U_LO^LO >= 1``).
    x: float | None

    @property
    def schedulable(self) -> bool:
        """Whether eq. (10) holds: ``U_MC <= 1``."""
        return not utilization_exceeds(self.u_mc)


def analyse(mc: MCTaskSet) -> EDFVDAnalysis:
    """Run the EDF-VD utilization test (eq. 10) on ``mc``.

    Requires an implicit-deadline task set — EDF-VD's test is formulated
    for ``D_i = T_i`` only.
    """
    if not mc.is_implicit_deadline:
        raise ValueError("EDF-VD analysis requires implicit deadlines")
    u_hi_lo = mc.u_hi_lo
    u_hi_hi = mc.u_hi_hi
    u_lo_lo = mc.u_lo_lo
    lo_mode, hi_mode, x = edf_vd_loads(u_hi_lo, u_hi_hi, u_lo_lo)
    return EDFVDAnalysis(
        u_hi_lo=u_hi_lo,
        u_hi_hi=u_hi_hi,
        u_lo_lo=u_lo_lo,
        lo_mode_load=lo_mode,
        hi_mode_load=hi_mode,
        u_mc=max(lo_mode, hi_mode),
        x=x,
    )


def edf_vd_utilization(mc: MCTaskSet) -> float:
    """``U_MC`` of the task set under EDF-VD (Algorithm 2, line 11)."""
    return analyse(mc).u_mc


def edf_vd_schedulable(mc: MCTaskSet) -> bool:
    """Whether ``mc`` passes the EDF-VD test of eq. (10)."""
    return analyse(mc).schedulable


def edf_vd_x(mc: MCTaskSet) -> float | None:
    """The virtual-deadline factor ``x`` for a schedulable set.

    Returns ``None`` when the test fails or the factor is undefined.  When
    ``U_HI^LO + U_LO^LO <= 1`` already holds with ``x = 1`` (plain EDF is
    enough in LO mode), the factor is still the canonical
    ``U_HI^LO / (1 - U_LO^LO)`` clamped to at most 1.
    """
    result = analyse(mc)
    if not result.schedulable or result.x is None:
        return None
    return min(result.x, 1.0)
