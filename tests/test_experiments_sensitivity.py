"""Tests for the sensitivity sweeps (df, OS, P_HI)."""

import math

import pytest

from repro.experiments.sensitivity import (
    sweep_degradation_factor,
    sweep_operation_hours,
    sweep_p_hi,
)


class TestDegradationFactorSweep:
    @pytest.fixture(scope="class")
    def sweep(self, request):
        from repro.gen.fms import canonical_fms

        return sweep_degradation_factor(canonical_fms())

    def test_fms_needs_df_of_at_least_three(self, sweep):
        outcome = dict(zip(sweep.column("df"), sweep.column("success")))
        assert not outcome[1.5]
        assert not outcome[2.0]
        assert outcome[3.0]
        assert outcome[6.0]

    def test_success_monotone_in_df(self, sweep):
        """Once feasible, increasing df never breaks feasibility here."""
        successes = sweep.column("success")
        first_true = successes.index(True)
        assert all(successes[first_true:])

    def test_adaptation_profile_nondecreasing_in_df(self, sweep):
        values = [n for n in sweep.column("n_prime") if n is not None]
        assert values == sorted(values)

    def test_safety_bound_df_independent_at_fixed_n_prime(self, sweep):
        """eq. (7) ignores df: equal n' rows report equal pfh(LO)."""
        rows = {
            n: p
            for n, p in zip(sweep.column("n_prime"), sweep.column("pfh_lo"))
            if n is not None
        }
        # df = 6, 12, 100 all land on n' = 2 with identical pfh.
        pfhs = [
            p
            for n, p in zip(sweep.column("n_prime"), sweep.column("pfh_lo"))
            if n == 2
        ]
        assert len(pfhs) >= 2
        assert all(p == pytest.approx(pfhs[0]) for p in pfhs)
        assert rows  # non-empty


class TestOperationHoursSweep:
    @pytest.fixture(scope="class")
    def sweep(self, request):
        from repro.gen.fms import canonical_fms

        return sweep_operation_hours(canonical_fms())

    def test_both_bounds_grow_with_os(self, sweep):
        kills = sweep.column("pfh_lo_killing")
        degrades = sweep.column("pfh_lo_degradation")
        assert kills == sorted(kills)
        assert degrades == sorted(degrades)

    def test_killing_bound_grows_about_linearly(self, sweep):
        """The 10 h killing bound is ~10x the 1 h one (9.99 committed)."""
        hours = sweep.column("os_hours")
        kills = sweep.column("pfh_lo_killing")
        assert (hours[0], hours[-1]) == (1.0, 10.0)
        assert 8.0 < kills[-1] / kills[0] < 12.0

    def test_killing_dominates_degradation_at_every_os(self, sweep):
        for kill, degrade in zip(
            sweep.column("pfh_lo_killing"), sweep.column("pfh_lo_degradation")
        ):
            assert degrade < kill

    def test_gap_is_many_orders(self, sweep):
        kill = sweep.column("pfh_lo_killing")[-1]
        degrade = sweep.column("pfh_lo_degradation")[-1]
        assert math.log10(kill) - math.log10(degrade) > 8.0


class TestPHiSweep:
    def test_acceptance_decreases_with_hi_share(self):
        sweep = sweep_p_hi(
            utilization=0.8, shares=(0.1, 0.4, 0.6), sets_per_point=30
        )
        acceptance = sweep.column("acceptance")
        assert acceptance[0] >= acceptance[-1]

    def test_bounds_and_counts(self):
        sweep = sweep_p_hi(shares=(0.2,), sets_per_point=10)
        assert sweep.column("sets") == [10]
        assert 0.0 <= sweep.column("acceptance")[0] <= 1.0
