"""Tests for plain safety quantification — eq. (1), eq. (2), Lemma 3.1."""

import math

import pytest

from repro.model.criticality import CriticalityRole
from repro.model.faults import ReexecutionProfile
from repro.model.task import HOUR_MS, Task, TaskSet
from repro.safety.pfh import (
    max_rounds,
    minimal_uniform_reexecution,
    pfh_of_tasks,
    pfh_plain,
)


def _task(period=60.0, wcet=5.0, f=1e-5, name="t", crit=CriticalityRole.HI):
    return Task(name, period, period, wcet, crit, f)


class TestMaxRounds:
    def test_example31_tau1(self):
        """r_1(3, 1h) = floor((3.6e6 - 15)/60) + 1 = 60000."""
        assert max_rounds(_task(60.0, 5.0), 3, HOUR_MS) == 60000

    def test_example31_tau2(self):
        """r_2(3, 1h) = floor((3.6e6 - 12)/25) + 1 = 144000."""
        assert max_rounds(_task(25.0, 4.0), 3, HOUR_MS) == 144000

    def test_zero_when_setup_exceeds_horizon(self):
        # n*C = 15 > t = 10: not even one round fits.
        assert max_rounds(_task(60.0, 5.0), 3, 10.0) == 0

    def test_exactly_one_round(self):
        # t == n*C: floor(0/T) + 1 = 1.
        assert max_rounds(_task(60.0, 5.0), 3, 15.0) == 1

    def test_round_boundary(self):
        # t = n*C + T accommodates exactly 2 rounds.
        task = _task(60.0, 5.0)
        assert max_rounds(task, 3, 15.0 + 60.0) == 2
        assert max_rounds(task, 3, 15.0 + 59.999) == 1

    def test_footnote1_drops_setup_term(self):
        """With assume_full_wcet=False, C_i is replaced by 0 (footnote 1)."""
        task = _task(60.0, 5.0)
        with_setup = max_rounds(task, 3, HOUR_MS, assume_full_wcet=True)
        without = max_rounds(task, 3, HOUR_MS, assume_full_wcet=False)
        assert without >= with_setup
        assert without == math.floor(HOUR_MS / 60.0) + 1

    def test_monotone_in_horizon(self):
        task = _task(70.0, 8.0)
        previous = 0
        for t in (0.0, 100.0, 1e4, 1e5, HOUR_MS):
            current = max_rounds(task, 2, t)
            assert current >= previous
            previous = current

    def test_antitone_in_executions(self):
        task = _task(70.0, 8.0)
        rounds = [max_rounds(task, n, 1e5) for n in range(1, 6)]
        assert rounds == sorted(rounds, reverse=True)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="executions"):
            max_rounds(_task(), 0, HOUR_MS)
        with pytest.raises(ValueError, match="horizon"):
            max_rounds(_task(), 1, -1.0)


class TestPfhPlain:
    def test_example31_hi_level_value(self, example31, example31_profiles):
        """Paper: pfh(HI) = 2.04e-10 with n_1 = n_2 = 3."""
        value = pfh_plain(example31, CriticalityRole.HI, example31_profiles)
        assert value == pytest.approx(2.04e-10, rel=1e-6)

    def test_example31_hi_profile_two_violates(self, example31):
        """n = 2 yields 2.04e-5 > 1e-7: why the paper needs n = 3."""
        profile = ReexecutionProfile.uniform(example31, 2, 1)
        value = pfh_plain(example31, CriticalityRole.HI, profile)
        assert value == pytest.approx(2.04e-5, rel=1e-6)
        assert value > 1e-7

    def test_fms_hi_meets_level_b_at_three_executions(self, fms):
        """Section 5.1: the FMS's HI tasks meet level B's 1e-7 at N = (3, 2)."""
        profile = ReexecutionProfile.uniform(fms, 3, 2)
        assert 0.0 < pfh_plain(fms, CriticalityRole.HI, profile) < 1e-7

    def test_lo_level_independent_of_hi_profile(self, example31):
        a = ReexecutionProfile.uniform(example31, 3, 2)
        b = ReexecutionProfile.uniform(example31, 5, 2)
        assert pfh_plain(example31, CriticalityRole.LO, a) == pytest.approx(
            pfh_plain(example31, CriticalityRole.LO, b)
        )

    def test_decreases_with_more_reexecutions(self, example31):
        values = [
            pfh_plain(
                example31,
                CriticalityRole.HI,
                ReexecutionProfile.uniform(example31, n, 1),
            )
            for n in range(1, 5)
        ]
        assert values == sorted(values, reverse=True)
        assert values[0] > 0

    def test_zero_failure_probability_gives_zero_pfh(self):
        task = _task(f=0.0)
        ts = TaskSet([task])
        profile = ReexecutionProfile.constant([task], 1)
        assert pfh_of_tasks([task], profile) == 0.0

    def test_custom_horizon_normalised_per_hour(self):
        """pfh over 2 hours equals pfh over 1 hour (constant rates)."""
        task = _task(period=100.0, wcet=0.0, f=1e-3)
        profile = ReexecutionProfile.constant([task], 1)
        one = pfh_of_tasks([task], profile, HOUR_MS)
        two = pfh_of_tasks([task], profile, 2 * HOUR_MS)
        # wcet=0 removes the boundary effect entirely.
        assert two == pytest.approx(one, rel=1e-4)

    def test_rejects_nonpositive_horizon(self):
        task = _task()
        profile = ReexecutionProfile.constant([task], 1)
        with pytest.raises(ValueError, match="horizon"):
            pfh_of_tasks([task], profile, 0.0)


class TestMinimalUniformReexecution:
    def test_example31_hi_needs_three(self, example31):
        assert minimal_uniform_reexecution(example31, CriticalityRole.HI, 1e-7) == 3

    def test_example31_lo_with_no_requirement(self, example31):
        n = minimal_uniform_reexecution(
            example31, CriticalityRole.LO, math.inf
        )
        assert n == 1

    def test_example31_lo_as_level_c(self, example31):
        """If LO were level C, its tasks would need re-execution too."""
        n = minimal_uniform_reexecution(example31, CriticalityRole.LO, 1e-5)
        assert n == 3  # 262857 rounds/h at 1e-10 each = 2.6e-5 > 1e-5

    def test_unreachable_ceiling_returns_none(self, example31):
        assert (
            minimal_uniform_reexecution(
                example31, CriticalityRole.HI, 0.0, max_n=5
            )
            is None
        )

    def test_empty_role_defaults_to_one(self):
        hi_only = TaskSet([_task()])
        assert minimal_uniform_reexecution(hi_only, CriticalityRole.LO, 1e-9) == 1

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("scalar", [False, True], ids=["numpy", "scalar"])
    def test_infinite_ceiling_evaluates_no_eq2(
        self, monkeypatch, example31, scalar, strict
    ):
        """Levels D/E: n = 1 without summing eq. (2), on every tier."""
        from repro.analysis import kernels
        from repro.safety import pfh as pfh_module

        def no_sums(*args, **kwargs):
            raise AssertionError("eq. (2) evaluated (eq. (1)'s floor)")

        if scalar:
            monkeypatch.setenv(kernels.NO_NUMPY_ENV, "1")
        else:
            monkeypatch.delenv(kernels.NO_NUMPY_ENV, raising=False)
        monkeypatch.setattr(pfh_module, "_floor", no_sums)
        assert minimal_uniform_reexecution(
            example31, CriticalityRole.LO, math.inf, strict=strict
        ) == 1

    @pytest.mark.parametrize("scalar", [False, True], ids=["numpy", "scalar"])
    def test_infinite_ceiling_with_no_candidates(self, monkeypatch, example31, scalar):
        """``max_n = 0`` leaves no candidate ``n`` to return, even for D/E."""
        from repro.analysis import kernels

        if scalar:
            monkeypatch.setenv(kernels.NO_NUMPY_ENV, "1")
        assert minimal_uniform_reexecution(
            example31, CriticalityRole.LO, math.inf, max_n=0
        ) is None

    def test_strict_vs_nonstrict_at_boundary(self):
        """Exactly-at-ceiling passes <= but fails <."""
        task = _task(period=2 * HOUR_MS, wcet=0.0, f=1e-3)
        ts = TaskSet([task])
        # r = floor(t/2t) + 1 = 1 round per hour, so pfh = 1e-3 with n = 1
        assert (
            minimal_uniform_reexecution(ts, CriticalityRole.HI, 1e-3, strict=False)
            == 1
        )
        assert (
            minimal_uniform_reexecution(ts, CriticalityRole.HI, 1e-3, strict=True)
            == 2
        )

    def test_result_actually_meets_ceiling(self, example31):
        ceiling = 1e-7
        n = minimal_uniform_reexecution(example31, CriticalityRole.HI, ceiling)
        profile = ReexecutionProfile.uniform(example31, n, 1)
        assert pfh_plain(example31, CriticalityRole.HI, profile) <= ceiling
        if n > 1:
            below = ReexecutionProfile.uniform(example31, n - 1, 1)
            assert pfh_plain(example31, CriticalityRole.HI, below) > ceiling
