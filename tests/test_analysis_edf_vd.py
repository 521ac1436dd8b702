"""Tests for the EDF-VD test (eq. 10) and its degradation variant (eq. 12)."""

import math

import pytest

from repro.analysis.edf_vd import (
    analyse,
    edf_vd_loads,
    edf_vd_schedulable,
    edf_vd_utilization,
    edf_vd_x,
)
from repro.analysis.edf_vd_degradation import (
    analyse as analyse_degradation,
    edf_vd_degradation_schedulable,
    edf_vd_degradation_utilization,
)
from repro.core.conversion import convert_uniform
from repro.model.criticality import CriticalityRole
from repro.model.mc_task import MCTask, MCTaskSet


def _mc(u_hi_lo, u_hi_hi, u_lo_lo, period=100.0) -> MCTaskSet:
    """A 2-task set with exactly the requested utilizations."""
    return MCTaskSet(
        [
            MCTask("hi", period, period, u_hi_lo * period, u_hi_hi * period,
                   CriticalityRole.HI),
            MCTask("lo", period, period, u_lo_lo * period, u_lo_lo * period,
                   CriticalityRole.LO),
        ]
    )


class TestEDFVD:
    def test_example41_converted_set(self, example31):
        """Paper: Gamma(3, 1, 2) of Example 3.1 passes eq. (10)."""
        mc = convert_uniform(example31, 3, 1, 2)
        result = analyse(mc)
        assert result.schedulable
        assert result.u_mc == pytest.approx(0.99897, abs=1e-4)

    def test_example41_without_killing_help_fails(self, example31):
        """n' = 3 (kill only at the last re-execution) is unschedulable."""
        mc = convert_uniform(example31, 3, 1, 3)
        assert not edf_vd_schedulable(mc)

    def test_eq10_both_terms(self):
        mc = _mc(u_hi_lo=0.3, u_hi_hi=0.5, u_lo_lo=0.4)
        result = analyse(mc)
        assert result.lo_mode_load == pytest.approx(0.7)
        x = 0.3 / (1 - 0.4)
        assert result.x == pytest.approx(x)
        assert result.hi_mode_load == pytest.approx(0.5 + x * 0.4)
        assert result.u_mc == pytest.approx(max(0.7, 0.5 + x * 0.4))

    def test_lo_mode_dominates(self):
        mc = _mc(u_hi_lo=0.5, u_hi_hi=0.5, u_lo_lo=0.45)
        result = analyse(mc)
        assert result.u_mc == pytest.approx(result.lo_mode_load)

    def test_unbounded_when_lo_utilization_full(self):
        mc = _mc(u_hi_lo=0.1, u_hi_hi=0.2, u_lo_lo=1.0)
        result = analyse(mc)
        assert result.x is None
        assert math.isinf(result.u_mc)
        assert not result.schedulable

    def test_requires_implicit_deadlines(self):
        mc = MCTaskSet(
            [MCTask("hi", 100, 50, 10, 20, CriticalityRole.HI)]
        )
        with pytest.raises(ValueError, match="implicit"):
            analyse(mc)

    def test_x_none_when_unschedulable(self):
        mc = _mc(u_hi_lo=0.6, u_hi_hi=0.9, u_lo_lo=0.5)
        assert edf_vd_x(mc) is None

    def test_x_clamped_to_one(self):
        mc = _mc(u_hi_lo=0.5, u_hi_hi=0.5, u_lo_lo=0.45)
        x = edf_vd_x(mc)
        assert x is not None and x <= 1.0

    def test_x_value_for_example41(self, example31):
        mc = convert_uniform(example31, 3, 1, 2)
        assert edf_vd_x(mc) == pytest.approx(0.48667 / (1 - 0.35595), abs=1e-4)

    def test_utilization_metric_alias(self, example31):
        mc = convert_uniform(example31, 3, 1, 2)
        assert edf_vd_utilization(mc) == pytest.approx(analyse(mc).u_mc)

    def test_monotone_in_killing_profile(self, example31):
        """Smaller n' (earlier kills) never raises U_MC."""
        values = [
            edf_vd_utilization(convert_uniform(example31, 3, 1, n))
            for n in (1, 2, 3)
        ]
        assert values == sorted(values)


class TestEdfVdLoads:
    """The one evaluation of eq. (10)'s and eq. (12)'s two loads."""

    def test_eq10_by_hand(self):
        lo_mode, hi_mode, x = edf_vd_loads(0.2, 0.4, 0.3)
        assert (lo_mode, x) == (0.2 + 0.3, 0.2 / (1.0 - 0.3))
        assert hi_mode == 0.4 + x * 0.3

    def test_eq12_by_hand(self):
        lo_mode, hi_mode, lam = edf_vd_loads(0.2, 0.4, 0.3, 6.0)
        assert (lo_mode, lam) == (0.2 + 0.3, 0.2 / (1.0 - 0.3))
        assert hi_mode == 0.4 / (1.0 - lam) + 0.3 / (6.0 - 1.0)

    @pytest.mark.parametrize("df", [None, 6.0])
    def test_full_lo_load_leaves_x_undefined(self, df):
        assert edf_vd_loads(0.1, 0.1, 1.0, df) == (1.1, math.inf, None)

    def test_saturated_lambda_makes_hi_mode_infinite(self):
        lo_mode, hi_mode, lam = edf_vd_loads(0.7, 0.7, 0.3, 6.0)
        assert lam >= 1.0 and math.isinf(hi_mode)
        assert math.isfinite(edf_vd_loads(0.7, 0.7, 0.3)[1])

    @pytest.mark.parametrize(
        "u", [(0.2, 0.4, 0.3), (0.7, 0.7, 0.3), (0.1, 0.1, 1.0)]
    )
    def test_both_analyses_report_these_loads(self, u):
        mc = _mc(*u)
        loads = (mc.u_hi_lo, mc.u_hi_hi, mc.u_lo_lo)
        kill = analyse(mc)
        assert edf_vd_loads(*loads) == (
            kill.lo_mode_load, kill.hi_mode_load, kill.x
        )
        degrade = analyse_degradation(mc, 6.0)
        assert edf_vd_loads(*loads, 6.0) == (
            degrade.lo_mode_load, degrade.hi_mode_load, degrade.lam
        )


class TestEDFVDDegradation:
    def test_eq12_hand_computed(self):
        mc = _mc(u_hi_lo=0.2, u_hi_hi=0.4, u_lo_lo=0.3)
        df = 6.0
        result = analyse_degradation(mc, df)
        lam = 0.2 / 0.7
        assert result.lam == pytest.approx(lam)
        assert result.hi_mode_load == pytest.approx(0.4 / (1 - lam) + 0.3 / 5.0)
        assert result.lo_mode_load == pytest.approx(0.5)

    def test_infinite_when_lambda_reaches_one(self):
        mc = _mc(u_hi_lo=0.7, u_hi_hi=0.7, u_lo_lo=0.3)
        result = analyse_degradation(mc, 6.0)
        assert math.isinf(result.hi_mode_load)
        assert not result.schedulable

    def test_infinite_when_lo_utilization_full(self):
        mc = _mc(u_hi_lo=0.1, u_hi_hi=0.1, u_lo_lo=1.0)
        result = analyse_degradation(mc, 6.0)
        assert result.lam is None
        assert not result.schedulable

    def test_larger_df_helps(self):
        mc = _mc(u_hi_lo=0.2, u_hi_hi=0.4, u_lo_lo=0.3)
        u2 = edf_vd_degradation_utilization(mc, 2.0)
        u6 = edf_vd_degradation_utilization(mc, 6.0)
        u100 = edf_vd_degradation_utilization(mc, 100.0)
        assert u2 >= u6 >= u100

    def test_rejects_df_at_or_below_one(self):
        mc = _mc(0.2, 0.4, 0.3)
        with pytest.raises(ValueError, match="factor"):
            analyse_degradation(mc, 1.0)

    def test_requires_implicit_deadlines(self):
        mc = MCTaskSet([MCTask("hi", 100, 50, 10, 20, CriticalityRole.HI)])
        with pytest.raises(ValueError, match="implicit"):
            analyse_degradation(mc, 6.0)

    def test_degradation_schedulable_on_fms_conversion(self, fms):
        """The pinned FMS: degradation passes at n' = 2, fails at n' = 3."""
        ok = convert_uniform(fms, 3, 2, 2)
        assert edf_vd_degradation_schedulable(ok, 6.0)
        bad = convert_uniform(fms, 3, 2, 3)
        assert not edf_vd_degradation_schedulable(bad, 6.0)

    def test_killing_schedulable_on_fms_conversion(self, fms):
        """Same schedulable region for the killing backend on the FMS."""
        assert edf_vd_schedulable(convert_uniform(fms, 3, 2, 2))
        assert not edf_vd_schedulable(convert_uniform(fms, 3, 2, 3))
