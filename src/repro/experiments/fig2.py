"""Figure 2: the impacts of service degradation on the FMS (Section 5.1).

Same sweep as Fig. 1 (here the ``fig2`` campaign, ``ftmc fig2``) but the
mode switch degrades the level-C tasks
(periods stretched by ``df = 6``) instead of killing them; ``U_MC`` comes
from eq. (11) and the LO-level PFH bound from eq. (7).

Expected qualitative shape (paper):

- the schedulable region is again ``n' <= 2``;
- ``pfh(LO)`` is orders of magnitude below the killing case — 1e-11 at
  ``n' = 2`` versus 1e-1 — so the schedulable and safe regions *overlap*
  and FT-S succeeds: degradation is the proper mechanism when LO tasks
  carry safety requirements.
"""

from __future__ import annotations

from repro.experiments.fms_sweep import render_sweep_chart
from repro.experiments.results import ExperimentResult

__all__ = ["render_fig2"]


def render_fig2(result: ExperimentResult) -> str:
    """ASCII chart of the Fig. 2 series (the ``fig2`` campaign's result)."""
    return render_sweep_chart(result, "Fig. 2 (service degradation)")
