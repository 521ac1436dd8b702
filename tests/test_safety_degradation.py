"""Tests for safety under service degradation — eqs. (6)-(9), Lemma 3.4."""

import math

import pytest

from repro.model.criticality import CriticalityRole
from repro.model.faults import AdaptationProfile, ReexecutionProfile
from repro.model.task import HOUR_MS, Task, TaskSet
from repro.safety.degradation import (
    omega,
    pfh_lo_degradation,
    pfh_lo_degradation_scenario,
)
from repro.safety.killing import pfh_lo_killing, survival_probability
from repro.safety.pfh import max_rounds, pfh_plain


class TestOmega:
    def test_undegraded_matches_round_count(self, example31):
        """omega(1, t) = sum r_i(n_i, t) * f^n over the LO tasks."""
        reexecution = ReexecutionProfile.uniform(example31, 3, 2)
        value = omega(example31, reexecution, 1.0, HOUR_MS)
        expected = sum(
            max_rounds(t, 2, HOUR_MS) * t.failure_probability**2
            for t in example31.lo_tasks
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_eq6_with_stretched_period(self):
        """Hand-checked eq. (6) for a single LO task."""
        lo = Task("lo", 100.0, 100.0, 10.0, CriticalityRole.LO, 1e-2)
        hi = Task("hi", 100.0, 100.0, 1.0, CriticalityRole.HI, 1e-2)
        ts = TaskSet([hi, lo])
        reexecution = ReexecutionProfile({"lo": 2, "hi": 2})
        t = 1000.0
        # floor((1000 - 20) / (6 * 100)) + 1 = 2 rounds, each failing 1e-4
        assert omega(ts, reexecution, 6.0, t) == pytest.approx(2e-4)

    def test_decreases_with_degradation_factor(self, example31):
        reexecution = ReexecutionProfile.uniform(example31, 3, 2)
        values = [
            omega(example31, reexecution, df, HOUR_MS)
            for df in (1.0, 2.0, 6.0, 20.0)
        ]
        for bigger, smaller in zip(values, values[1:]):
            assert smaller <= bigger

    def test_only_lo_tasks_contribute(self, example31):
        no_lo = example31.with_tasks(example31.hi_tasks)
        reexecution = ReexecutionProfile.uniform(no_lo, 3, 2)
        assert omega(no_lo, reexecution, 1.0, HOUR_MS) == 0.0

    def test_rejects_factor_below_one(self, example31):
        reexecution = ReexecutionProfile.uniform(example31, 3, 2)
        with pytest.raises(ValueError, match="factor"):
            omega(example31, reexecution, 0.9, HOUR_MS)

    def test_rejects_negative_horizon(self, example31):
        reexecution = ReexecutionProfile.uniform(example31, 3, 2)
        with pytest.raises(ValueError, match="horizon"):
            omega(example31, reexecution, 1.0, -1.0)

    def test_rejects_nan_factor(self, example31):
        """Without LO tasks a NaN factor once gave 0.0."""
        hi_only = example31.with_tasks(example31.hi_tasks)
        reexecution = ReexecutionProfile.uniform(hi_only, 3, 2)
        with pytest.raises(ValueError, match="degradation factor"):
            omega(hi_only, reexecution, math.nan, 10.0)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_horizon(self, example31, horizon):
        reexecution = ReexecutionProfile.uniform(example31, 3, 2)
        with pytest.raises(
            ValueError, match="horizon must be non-negative and finite"
        ):
            omega(example31, reexecution, 6.0, horizon)


class TestPfhLoDegradation:
    def _profiles(self, ts):
        return (
            ReexecutionProfile.uniform(ts, 3, 2),
            AdaptationProfile.uniform(ts, 2),
        )

    def test_eq7_factorisation(self, example31):
        """pfh(LO) = (1 - R(t)) * omega(1, t) / OS exactly."""
        reexecution, adaptation = self._profiles(example31)
        os_hours = 10.0
        t = os_hours * HOUR_MS
        expected = (
            (1.0 - survival_probability(example31, adaptation, t))
            * omega(example31, reexecution, 1.0, t)
            / os_hours
        )
        value = pfh_lo_degradation(example31, reexecution, adaptation, os_hours)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_never_worse_than_plain(self, example31):
        """Section 3.4: degradation can only improve LO safety vs eq. (2)."""
        reexecution, adaptation = self._profiles(example31)
        degraded = pfh_lo_degradation(example31, reexecution, adaptation, 1.0)
        plain = pfh_plain(example31, CriticalityRole.LO, reexecution)
        assert degraded <= plain

    def test_far_below_killing(self, fms):
        """Paper: at n' = 2 degradation is ~10 orders safer than killing."""
        reexecution = ReexecutionProfile.uniform(fms, 3, 2)
        adaptation = AdaptationProfile.uniform(fms, 2)
        killing = pfh_lo_killing(fms, reexecution, adaptation, 10.0)
        degradation = pfh_lo_degradation(fms, reexecution, adaptation, 10.0)
        assert degradation < killing
        assert math.log10(killing) - math.log10(degradation) > 8.0

    def test_fms_order_of_magnitude_matches_paper(self, fms):
        """Paper, Section 5.1: degradation at n' = 2 gives pfh ~ 1e-11."""
        reexecution = ReexecutionProfile.uniform(fms, 3, 2)
        adaptation = AdaptationProfile.uniform(fms, 2)
        value = pfh_lo_degradation(fms, reexecution, adaptation, 10.0)
        assert -12.0 <= math.log10(value) <= -10.0

    def test_decreases_with_adaptation_profile(self, example31):
        reexecution = ReexecutionProfile.uniform(example31, 3, 2)
        values = [
            pfh_lo_degradation(
                example31,
                reexecution,
                AdaptationProfile.uniform(example31, n),
                10.0,
            )
            for n in (1, 2, 3)
        ]
        assert values[0] > values[1] > values[2]

    def test_rejects_nonpositive_operation_hours(self, example31):
        reexecution, adaptation = self._profiles(example31)
        with pytest.raises(ValueError, match="operation hours"):
            pfh_lo_degradation(example31, reexecution, adaptation, -2.0)

    @pytest.mark.parametrize("hours", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_operation_hours(self, fms, hours):
        reexecution = ReexecutionProfile.uniform(fms, 3, 2)
        adaptation = AdaptationProfile.uniform(fms, 2)
        with pytest.raises(
            ValueError, match="operation hours must be positive and finite"
        ):
            pfh_lo_degradation(fms, reexecution, adaptation, hours)


class TestScenarioBound:
    """Eq. (9) and its maximisation at t0 = t (proof of Lemma 3.4)."""

    def test_maximised_at_full_horizon(self, example31):
        reexecution = ReexecutionProfile.uniform(example31, 3, 2)
        adaptation = AdaptationProfile.uniform(example31, 2)
        os_hours = 2.0
        horizon = os_hours * HOUR_MS
        at_end = pfh_lo_degradation_scenario(
            example31, reexecution, adaptation, 6.0, horizon, os_hours
        )
        for fraction in (0.0, 0.25, 0.5, 0.75, 0.9):
            earlier = pfh_lo_degradation_scenario(
                example31, reexecution, adaptation, 6.0,
                fraction * horizon, os_hours,
            )
            assert earlier <= at_end + 1e-18

    def test_scenario_at_end_matches_eq7(self, example31):
        reexecution = ReexecutionProfile.uniform(example31, 3, 2)
        adaptation = AdaptationProfile.uniform(example31, 2)
        os_hours = 1.0
        at_end = pfh_lo_degradation_scenario(
            example31, reexecution, adaptation, 6.0, os_hours * HOUR_MS, os_hours
        )
        eq7 = pfh_lo_degradation(example31, reexecution, adaptation, os_hours)
        assert at_end == pytest.approx(eq7, rel=1e-12)

    @pytest.mark.parametrize("hours", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_operation_hours(self, fms, hours):
        reexecution = ReexecutionProfile.uniform(fms, 3, 2)
        adaptation = AdaptationProfile.uniform(fms, 2)
        with pytest.raises(
            ValueError, match="operation hours must be positive and finite"
        ):
            pfh_lo_degradation_scenario(
                fms, reexecution, adaptation, 6.0, 0.0, hours
            )

    def test_rejects_trigger_outside_window(self, example31):
        reexecution = ReexecutionProfile.uniform(example31, 3, 2)
        adaptation = AdaptationProfile.uniform(example31, 2)
        with pytest.raises(ValueError, match="trigger"):
            pfh_lo_degradation_scenario(
                example31, reexecution, adaptation, 6.0, 2 * HOUR_MS, 1.0
            )
