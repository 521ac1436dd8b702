"""Figure 1: the impacts of task killing on the FMS (Section 5.1).

The ``fig1`` campaign (:mod:`repro.runner.campaigns`, ``ftmc fig1``)
sweeps the killing profile ``n'_HI`` of the HI (level-B) tasks and records
the mixed-criticality utilization ``U_MC`` (Algorithm 2, line 11) and the
LO-level PFH bound under killing (eq. 5) for the pinned FMS instance, one
:func:`~repro.experiments.fms_sweep.sweep_point` per ``n'``.

Expected qualitative shape (paper):

- ``U_MC`` increases with ``n'`` and the system is schedulable iff
  ``n' <= 2``;
- ``pfh(LO)`` decreases with ``n'``; at ``n' = 2`` it has order of
  magnitude 1e-1 — far above the level-C ceiling 1e-5, so the schedulable
  region and the safe region are disjoint: task killing cannot serve this
  FMS safely.
"""

from __future__ import annotations

from repro.experiments.fms_sweep import render_sweep_chart
from repro.experiments.results import ExperimentResult

__all__ = ["render_fig1"]


def render_fig1(result: ExperimentResult) -> str:
    """ASCII chart of the Fig. 1 series (the ``fig1`` campaign's result)."""
    return render_sweep_chart(result, "Fig. 1 (task killing)")
