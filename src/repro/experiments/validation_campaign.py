"""Validation campaign: simulate every FT-S-accepted random system.

The repository's strongest soundness evidence beyond unit tests: generate
random task sets across the utilization range, run FT-S, and for every
*accepted* configuration fire the simulation stress campaign
(:func:`repro.sim.validate.validate_by_simulation`).  Any HI-criticality
deadline miss would falsify the implementation of Theorem 4.1.

This experiment is deliberately expensive.  Its loop is the
``validation`` campaign (:mod:`repro.runner.campaigns`), which
``ftmc validate`` runs in-process and ``ftmc campaign validation``
shards, one shard per (mechanism, utilization) point.
"""

from __future__ import annotations

import numpy as np

from repro.core.ftmc import ft_edf_vd, ft_edf_vd_degradation
from repro.experiments.results import ExperimentResult
from repro.gen.taskset import generate_taskset
from repro.model.criticality import DualCriticalitySpec
from repro.sim.validate import validate_by_simulation

__all__ = [
    "validation_point",
    "validation_skeleton",
]


def validation_point(
    mechanism: str,
    point_index: int,
    utilization: float,
    sets_per_point: int,
    runs_per_set: int,
    horizon: float,
    probability_scale: float,
    lo_level: str,
    degradation_factor: float,
    seed: int,
) -> tuple[float, int, int, int, int, int]:
    """One utilization point of the campaign (one shard of ``validation``).

    ``point_index`` is the point's position in the utilization sequence;
    it enters the per-set RNG seed, so each point draws its own sets
    wherever its shard runs.  The ``validation`` campaign's options
    (:mod:`repro.runner.campaigns`) hold the one copy of each default.
    """
    if mechanism not in ("kill", "degrade"):
        raise ValueError(f"unknown mechanism: {mechanism!r}")
    spec = DualCriticalitySpec.from_names("B", lo_level)
    accepted = validated = hi_misses = switches = hi_jobs = 0
    for index in range(sets_per_point):
        rng = np.random.default_rng([seed, point_index, index])
        taskset = generate_taskset(utilization, spec, rng)
        if mechanism == "kill":
            fts = ft_edf_vd(taskset)
        else:
            fts = ft_edf_vd_degradation(taskset, degradation_factor)
        if not fts.success:
            continue
        accepted += 1
        report = validate_by_simulation(
            taskset,
            fts,
            runs=runs_per_set,
            horizon=horizon,
            probability_scale=probability_scale,
            seed=seed + index,
        )
        validated += report.passed
        hi_misses += report.hi_misses
        switches += report.mode_switches
        hi_jobs += report.hi_jobs
    return (utilization, accepted, validated, hi_misses, switches, hi_jobs)


def validation_skeleton(
    mechanism: str,
    runs_per_set: int,
    horizon: float,
    probability_scale: float,
    lo_level: str,
) -> ExperimentResult:
    """An empty campaign result with the canonical name/columns/notes."""
    result = ExperimentResult(
        name=f"validation-{mechanism}",
        description=(
            "simulation validation of FT-S-accepted systems "
            f"({mechanism}, LO={lo_level}, faults x{probability_scale:g})"
        ),
        columns=[
            "utilization",
            "accepted",
            "validated",
            "hi_misses",
            "mode_switch_runs",
            "hi_jobs",
        ],
    )
    result.extend_notes(
        [
            "'validated' must equal 'accepted' at every point — a HI miss "
            "would falsify the toolchain",
            f"{runs_per_set} randomized runs per accepted system "
            f"({horizon:g} ms each, mixed periodic/jittered arrivals)",
        ]
    )
    return result
