"""Unit tests for the Fig. 1/2 sweep machinery (u_mc closed forms)."""

import math

import pytest

from repro.experiments.fms_sweep import sweep_point, u_mc_degrade, u_mc_kill
from repro.model.criticality import CriticalityRole
from repro.runner import build_options, run_inline


class TestUMcKill:
    def test_matches_edf_vd_analysis_in_valid_range(self, example31):
        """For n' <= n_HI the closed form equals the eq. (10) U_MC."""
        from repro.analysis.edf_vd import edf_vd_utilization
        from repro.core.conversion import convert_uniform

        for n_prime in (1, 2, 3):
            closed = u_mc_kill(example31, 3, 1, n_prime)
            via_set = edf_vd_utilization(
                convert_uniform(example31, 3, 1, n_prime)
            )
            assert closed == pytest.approx(via_set)

    def test_extends_past_n_hi(self, example31):
        """The figure's hypothetical n' = 4 point evaluates finitely."""
        value = u_mc_kill(example31, 3, 1, 4)
        assert math.isfinite(value)
        assert value > u_mc_kill(example31, 3, 1, 3)

    def test_infinite_when_lo_load_full(self, example31):
        assert math.isinf(u_mc_kill(example31, 3, 9, 1))


class TestUMcDegrade:
    def test_matches_degradation_analysis(self, fms):
        from repro.analysis.edf_vd_degradation import (
            edf_vd_degradation_utilization,
        )
        from repro.core.conversion import convert_uniform

        for n_prime in (1, 2):
            closed = u_mc_degrade(fms, 3, 2, n_prime, 6.0)
            via_set = edf_vd_degradation_utilization(
                convert_uniform(fms, 3, 2, n_prime), 6.0
            )
            assert closed == pytest.approx(via_set)

    def test_rejects_bad_factor(self, fms):
        with pytest.raises(ValueError, match="factor"):
            u_mc_degrade(fms, 3, 2, 1, 1.0)

    def test_infinite_when_lambda_saturates(self, fms):
        assert math.isinf(u_mc_degrade(fms, 3, 2, 30, 6.0))


class TestSweep:
    """``sweep_point`` and the fig1 campaign that sweeps it over ``n'``."""

    def test_rejects_unknown_mechanism(self, fms):
        with pytest.raises(ValueError, match="mechanism"):
            sweep_point(fms, "pause", 1, 10.0)

    def test_degrade_requires_factor(self, fms):
        with pytest.raises(ValueError, match="factor"):
            sweep_point(fms, "degrade", 1, 10.0)

    def test_hypothetical_points_flagged(self):
        [result] = run_inline(
            "fig1", dict(build_options("fig1"), n_prime_max=5)
        )
        flags = dict(zip(result.column("n_prime"),
                         result.column("hypothetical")))
        assert not flags[3]  # n_HI = 3 is still real
        assert flags[4] and flags[5]

    def test_custom_range(self):
        [result] = run_inline(
            "fig1", dict(build_options("fig1"), n_prime_max=2)
        )
        assert result.column("n_prime") == [1, 2]

    def test_sweep_on_unsafe_set_raises(self, example31):
        """A set that cannot meet its ceilings at all is rejected."""
        from repro.model.criticality import DualCriticalitySpec
        from repro.model.task import Task, TaskSet

        hopeless = TaskSet(
            [
                Task("hi", 10, 10, 1, CriticalityRole.HI, 0.9),
                Task("lo", 10, 10, 1, CriticalityRole.LO, 0.9),
            ],
            DualCriticalitySpec.from_names("A", "E"),
        )
        with pytest.raises(ValueError, match="ceilings"):
            sweep_point(hopeless, "kill", 1, 10.0)
