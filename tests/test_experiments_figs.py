"""Tests for the figure reproductions (Figs. 1, 2, 3), run in-process
through their campaign definitions."""

import math

import pytest

from repro.experiments.fig1 import render_fig1
from repro.experiments.fig2 import render_fig2
from repro.experiments.fig3 import FIG3_PANELS, render_fig3_panel
from repro.runner import build_options, run_inline


@pytest.fixture(scope="module")
def fig1_result():
    [result] = run_inline("fig1")
    return result


@pytest.fixture(scope="module")
def fig2_result():
    [result] = run_inline("fig2")
    return result


def fig3_panel(panel, f, utilizations, sets_per_point, seed=0):
    """One Fig. 3 series: the fig3 campaign on one panel and one ``f``."""
    [result] = run_inline(
        "fig3",
        build_options(
            "fig3",
            seed=seed,
            sets=sets_per_point,
            panels=[panel],
            failure_probabilities=[f],
            utilizations=list(utilizations),
        ),
    )
    return result


class TestFig1:
    def test_four_points(self, fig1_result):
        assert fig1_result.column("n_prime") == [1, 2, 3, 4]

    def test_u_mc_monotone_increasing(self, fig1_result):
        u_mc = fig1_result.column("u_mc")
        assert u_mc == sorted(u_mc)

    def test_schedulable_region_ends_at_two(self, fig1_result):
        """Paper: no longer schedulable when n' > 2."""
        sched = dict(zip(fig1_result.column("n_prime"),
                         fig1_result.column("schedulable")))
        assert sched[1] and sched[2]
        assert not sched[3] and not sched[4]

    def test_pfh_monotone_decreasing(self, fig1_result):
        pfh = fig1_result.column("pfh_lo")
        assert pfh == sorted(pfh, reverse=True)

    def test_pfh_at_two_is_order_1e_minus_1(self, fig1_result):
        """Paper: order of magnitude 1e-1 at n' = 2 under killing."""
        pfh = dict(zip(fig1_result.column("n_prime"),
                       fig1_result.column("pfh_lo")))
        assert -1.0 <= math.log10(pfh[2]) <= 0.0

    def test_safe_region_starts_at_three(self, fig1_result):
        safe = dict(zip(fig1_result.column("n_prime"),
                        fig1_result.column("safe")))
        assert not safe[1] and not safe[2]
        assert safe[3] and safe[4]

    def test_fts_failure_note(self, fig1_result):
        notes = " ".join(fig1_result.notes)
        assert "FAILURE" in notes

    def test_render_produces_charts(self, fig1_result):
        text = render_fig1(fig1_result)
        assert "U_MC" in text
        assert "pfh(LO)" in text
        assert "log10" in text


class TestFig2:
    def test_schedulable_region_matches_fig1(self, fig2_result):
        sched = dict(zip(fig2_result.column("n_prime"),
                         fig2_result.column("schedulable")))
        assert sched[1] and sched[2]
        assert not sched[3]

    def test_pfh_at_two_is_order_1e_minus_11(self, fig2_result):
        """Paper: order of magnitude 1e-11 at n' = 2 under degradation."""
        pfh = dict(zip(fig2_result.column("n_prime"),
                       fig2_result.column("pfh_lo")))
        assert -12.0 <= math.log10(pfh[2]) <= -10.0

    def test_degradation_always_safe_here(self, fig2_result):
        assert all(fig2_result.column("safe"))

    def test_fts_success_note(self, fig2_result):
        notes = " ".join(fig2_result.notes)
        assert "SUCCESS with n'_HI=2" in notes

    def test_killing_much_less_safe_than_degradation(
        self, fig1_result, fig2_result
    ):
        """The headline comparison of Section 5.1, ~10 orders at n'=2."""
        kill = dict(zip(fig1_result.column("n_prime"),
                        fig1_result.column("pfh_lo")))
        degrade = dict(zip(fig2_result.column("n_prime"),
                           fig2_result.column("pfh_lo")))
        assert math.log10(kill[2]) - math.log10(degrade[2]) > 8.0

    def test_render(self, fig2_result):
        assert "degradation" in render_fig2(fig2_result)


class TestFig3:
    UTILIZATIONS = (0.5, 0.8, 1.0)

    def test_panel_a_adaptation_widens_region(self):
        result = fig3_panel("a", 1e-5, self.UTILIZATIONS, sets_per_point=40)
        without = result.column("acceptance_without")
        with_adapt = result.column("acceptance_with")
        assert all(w >= wo for w, wo in zip(with_adapt, without))
        assert sum(with_adapt) > sum(without)

    def test_panel_b_killing_rarely_helps(self):
        result = fig3_panel("b", 1e-5, self.UTILIZATIONS, sets_per_point=40)
        gaps = [
            w - wo
            for w, wo in zip(
                result.column("acceptance_with"),
                result.column("acceptance_without"),
            )
        ]
        assert all(g <= 0.15 for g in gaps)

    def test_panel_d_degradation_helps_with_lo_c(self):
        util = (0.4, 0.5)
        kill = fig3_panel("b", 1e-5, util, sets_per_point=40)
        degrade = fig3_panel("d", 1e-5, util, sets_per_point=40)
        kill_gain = sum(kill.column("acceptance_with")) - sum(
            kill.column("acceptance_without")
        )
        degrade_gain = sum(degrade.column("acceptance_with")) - sum(
            degrade.column("acceptance_without")
        )
        assert degrade_gain > kill_gain

    def test_smaller_f_improves_acceptance(self):
        util = (0.5, 0.7)
        coarse = fig3_panel("a", 1e-3, util, sets_per_point=40)
        fine = fig3_panel("a", 1e-5, util, sets_per_point=40)
        assert sum(fine.column("acceptance_with")) >= sum(
            coarse.column("acceptance_with")
        )

    def test_acceptance_decreases_with_utilization(self):
        result = fig3_panel("a", 1e-5, (0.4, 0.7, 1.0, 1.2), sets_per_point=40)
        series = result.column("acceptance_with")
        assert series[0] >= series[-1]

    def test_campaign_collects_all_requested(self):
        results = run_inline(
            "fig3",
            build_options(
                "fig3",
                sets=5,
                panels=["a"],
                failure_probabilities=[1e-5],
                utilizations=[0.5],
            ),
        )
        assert [r.name for r in results] == ["fig3a-f1e-05"]

    def test_sweep_keys_no_verdicts(self):
        """Fig. 3 never asks a question twice, so it memoizes no verdict:
        neither the baseline nor line 8 looks one up."""
        from repro.analysis import kernels
        from repro.core.backends import (
            clear_schedulability_cache,
            schedulability_cache_info,
        )
        from repro.experiments.fig3 import fig3_point

        if not kernels.numpy_enabled():
            pytest.skip("NumPy kernels disabled")
        clear_schedulability_cache()
        rows = [
            fig3_point(panel, 1e-3, 9, 0.85, sets_per_point=10)
            for panel in FIG3_PANELS.values()
        ]
        results = run_inline(
            "fig3", build_options("fig3", sets=5, utilizations=[0.8, 1.0])
        )
        assert schedulability_cache_info() == {"hits": 0, "misses": 0}
        # FT-S did run: adaptation accepted sets the baseline rejected.
        assert any(with_ > without for _, without, with_, _ in rows)
        assert len(results) == 8

    def test_determinism(self):
        a = fig3_panel("a", 1e-5, (0.7,), sets_per_point=25, seed=4)
        b = fig3_panel("a", 1e-5, (0.7,), sets_per_point=25, seed=4)
        assert a.rows == b.rows

    def test_render(self):
        result = fig3_panel("a", 1e-5, (0.5, 0.9), sets_per_point=10)
        text = render_fig3_panel(result)
        assert "acceptance ratio" in text
        assert "legend" in text
