"""The flight management system case study (Section 5.1, Figs. 1-2).

Reproduces the paper's FMS narrative end to end on the pinned Table 4
instance:

1. the minimal re-execution profiles are n_HI = 3, n_LO = 2;
2. with those profiles alone the FMS is unschedulable;
3. killing the level-C flightplan tasks would restore schedulability for
   n' <= 2, but at n' = 2 their PFH is ~1e-1 — five orders above the
   level-C ceiling, so FT-EDF-VD fails;
4. degrading them instead (df = 6) keeps pfh(LO) ~ 1e-11 and FT-S succeeds
   with n' = 2.

Run:  python examples/fms_case_study.py
"""

from repro import CriticalityRole, ReexecutionProfile, ft_edf_vd, \
    ft_edf_vd_degradation
from repro.analysis import schedulable_without_adaptation
from repro.core import minimal_reexecution_profiles
from repro.experiments import render_fig1, render_fig2
from repro.gen import FMS_DEGRADATION_FACTOR, canonical_fms
from repro.runner import run_inline


def main() -> None:
    fms = canonical_fms()
    print("FMS instance (Table 4 ranges, pinned seed):")
    print(fms.describe())

    # Step 1: safety alone.
    profiles = minimal_reexecution_profiles(fms)
    print(f"\nminimal re-execution profiles: n_HI={profiles.n_hi}, "
          f"n_LO={profiles.n_lo} (paper: 3, 2)")

    # Step 2: schedulability without adaptation.
    reexecution = ReexecutionProfile.uniform(fms, profiles.n_hi, profiles.n_lo)
    feasible = schedulable_without_adaptation(fms, reexecution)
    inflated = profiles.n_hi * fms.utilization(
        CriticalityRole.HI
    ) + profiles.n_lo * fms.utilization(CriticalityRole.LO)
    print(f"EDF with all re-executions budgeted: U = {inflated:.4f} -> "
          f"{'schedulable' if feasible else 'NOT schedulable'}")

    # Step 3: task killing (Fig. 1).
    kill = ft_edf_vd(fms)
    print(f"\nFT-EDF-VD with task killing: "
          f"{'SUCCESS' if kill.success else f'FAILURE ({kill.failure.value})'}")
    [fig1] = run_inline("fig1")  # the Fig. 1 sweep on this pinned FMS
    print(render_fig1(fig1))

    # Step 4: service degradation (Fig. 2).
    degrade = ft_edf_vd_degradation(fms, FMS_DEGRADATION_FACTOR)
    print(f"\nFT-EDF-VD with service degradation (df="
          f"{FMS_DEGRADATION_FACTOR:g}): "
          f"{'SUCCESS' if degrade.success else 'FAILURE'}"
          + (f" with n'_HI={degrade.adaptation}, "
             f"pfh(LO)={degrade.pfh_lo:.2e}" if degrade.success else ""))
    [fig2] = run_inline("fig2")
    print(render_fig2(fig2))

    print(
        "\nConclusion (paper, Section 5.1): if safety matters for the less "
        "critical tasks,\nservice degradation is the proper mechanism — "
        "killing violates their PFH ceiling outright."
    )


if __name__ == "__main__":
    main()
