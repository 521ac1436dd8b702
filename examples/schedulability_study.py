"""Schedulability study on synthetic task sets (a compact Fig. 3).

Sweeps system utilization with the Appendix C generator and compares the
acceptance ratio with and without runtime adaptation for both mechanisms
and both LO-criticality bindings.  Uses 100 task sets per point so the
study finishes in about a minute; pass ``--sets 500 --full-grid`` for the
paper-scale run.

Run:  python examples/schedulability_study.py [--sets N] [--full-grid]
"""

import argparse

from repro.experiments import render_fig3_panel
from repro.experiments.fig3 import DEFAULT_UTILIZATIONS
from repro.runner import build_options, run_inline


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sets", type=int, default=100,
                        help="task sets per data point (paper: 500)")
    parser.add_argument("--full-grid", action="store_true",
                        help="use the full utilization grid")
    parser.add_argument("--f", type=float, default=1e-5,
                        help="per-execution failure probability")
    args = parser.parse_args()

    utilizations = (
        DEFAULT_UTILIZATIONS if args.full_grid
        else (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    )

    options = build_options(
        "fig3",
        sets=args.sets,
        failure_probabilities=[args.f],
        utilizations=list(utilizations),
    )
    for result in run_inline("fig3", options):  # panels a-d
        print(result.render())
        print()
        print(render_fig3_panel(result))
        print()

    print(
        "Shapes to look for (paper, Section 5.2): panels (a)/(c) show a\n"
        "clear gap between the two curves; panel (b) shows almost none\n"
        "(killing level-C tasks violates their safety); panel (d) shows\n"
        "degradation still helping where killing cannot."
    )


if __name__ == "__main__":
    main()
