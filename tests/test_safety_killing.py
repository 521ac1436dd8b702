"""Tests for safety under task killing — eqs. (3)-(5), Lemmas 3.2/3.3."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.criticality import CriticalityRole
from repro.model.faults import AdaptationProfile, ReexecutionProfile
from repro.model.task import HOUR_MS, Task, TaskSet
from repro.safety.killing import (
    kill_probability,
    pfh_lo_killing,
    pfh_lo_killing_bounds,
    pfh_lo_killing_reference,
    survival_probability,
    survival_probability_at,
    timing_point_count,
    timing_points,
)
from repro.safety.pfh import max_rounds


def _single_hi_set(period=1000.0, wcet=10.0, f=1e-3) -> TaskSet:
    tasks = [
        Task("hi", period, period, wcet, CriticalityRole.HI, f),
        Task("lo", 500.0, 500.0, 5.0, CriticalityRole.LO, f),
    ]
    return TaskSet(tasks)


class TestSurvivalProbability:
    def test_hand_computed_single_task(self):
        """R = (1 - f^n')^r with one HI task — directly checkable."""
        ts = _single_hi_set(period=1000.0, wcet=10.0, f=1e-2)
        adaptation = AdaptationProfile({"hi": 2})
        horizon = 10_000.0
        rounds = max_rounds(ts.task("hi"), 2, horizon)
        expected = (1.0 - 1e-4) ** rounds
        assert survival_probability(ts, adaptation, horizon) == pytest.approx(
            expected, rel=1e-12
        )

    def test_product_over_hi_tasks(self, example31, example31_adaptation):
        """R is the product of per-HI-task survival factors (eq. 3)."""
        horizon = HOUR_MS
        total = survival_probability(example31, example31_adaptation, horizon)
        expected = 1.0
        for task in example31.hi_tasks:
            rounds = max_rounds(task, 2, horizon)
            expected *= (1.0 - task.failure_probability**2) ** rounds
        assert total == pytest.approx(expected, rel=1e-9)

    def test_decreases_with_time(self, example31, example31_adaptation):
        """Lemma 3.2 remark: R(N', t) decreases as t grows."""
        horizons = [1e4, 1e5, 1e6, HOUR_MS, 10 * HOUR_MS]
        values = [
            survival_probability(example31, example31_adaptation, t)
            for t in horizons
        ]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-15

    def test_increases_with_adaptation_profile(self, example31):
        """Larger n' => LO tasks killed less often => larger R."""
        horizon = HOUR_MS
        values = [
            survival_probability(
                example31, AdaptationProfile.uniform(example31, n), horizon
            )
            for n in (1, 2, 3)
        ]
        assert values[0] < values[1] < values[2]

    def test_no_hi_tasks_gives_certain_survival(self):
        ts = TaskSet([Task("lo", 100, 100, 5, CriticalityRole.LO, 1e-3)])
        assert survival_probability(ts, AdaptationProfile({}), HOUR_MS) == 1.0

    def test_vectorised_matches_scalar(self, example31, example31_adaptation):
        horizons = np.array([1e3, 5e4, 2e5, HOUR_MS])
        vector = survival_probability_at(
            example31, example31_adaptation, horizons
        )
        for t, v in zip(horizons, vector):
            assert v == pytest.approx(
                survival_probability(example31, example31_adaptation, float(t)),
                rel=1e-12,
            )

    def test_at_time_zero(self, example31, example31_adaptation):
        """At t = 0 every HI task still fits one round (r_i >= 0)."""
        value = survival_probability(example31, example31_adaptation, 0.0)
        assert 0.0 < value <= 1.0

    def test_kill_probability_complements(self, example31, example31_adaptation):
        t = HOUR_MS
        assert kill_probability(
            example31, example31_adaptation, t
        ) == pytest.approx(
            1.0 - survival_probability(example31, example31_adaptation, t)
        )

    def test_rejects_negative_horizon(self, example31, example31_adaptation):
        with pytest.raises(ValueError, match="non-negative"):
            survival_probability(example31, example31_adaptation, -1.0)
        with pytest.raises(ValueError, match="non-negative"):
            kill_probability(example31, example31_adaptation, -1.0)


#: Each function of eqs. (1), (3) and (4) that takes a horizon ``t``, as
#: a call on the single-HI-task set.
_HORIZON_FUNCTIONS = {
    "survival_probability": lambda ts, t: survival_probability(
        ts, AdaptationProfile({"hi": 1}), t),
    "survival_probability_at": lambda ts, t: survival_probability_at(
        ts, AdaptationProfile({"hi": 1}), [HOUR_MS, t]),
    "kill_probability": lambda ts, t: kill_probability(
        ts, AdaptationProfile({"hi": 1}), t),
    "max_rounds": lambda ts, t: max_rounds(ts.lo_tasks[0], 2, t),
    "timing_points": lambda ts, t: timing_points(ts.lo_tasks[0], 2, t),
    "timing_point_count": lambda ts, t: timing_point_count(
        ts.lo_tasks[0], 2, t),
}


class TestHorizonMustBeFinite:
    """A NaN horizon once gave NaN, an infinite one 0.0 or an
    ``OverflowError``; each is now refused with one message."""

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("function", list(_HORIZON_FUNCTIONS))
    def test_refused(self, function, horizon):
        with pytest.raises(
            ValueError,
            match=f"^horizon must be non-negative and finite, got {horizon}$",
        ):
            _HORIZON_FUNCTIONS[function](_single_hi_set(), horizon)

    @pytest.mark.parametrize("function", list(_HORIZON_FUNCTIONS))
    def test_zero_and_finite_accepted(self, function):
        for horizon in (0.0, HOUR_MS):
            _HORIZON_FUNCTIONS[function](_single_hi_set(), horizon)


class TestKillProbabilityOracle:
    """``1 - R`` of eq. (3) against a 60-digit ``decimal`` evaluation with
    the same eq. (1) rounds.

    On the FMS at n' = 3, ``R`` is within ~1e-7 of 1, where ``1.0 - R`` in
    binary floating point kept only about nine significant digits.
    """

    @staticmethod
    def _exact(taskset, n_prime, horizon):
        with decimal.localcontext() as context:
            context.prec = 60
            survival = decimal.Decimal(1)
            for task in taskset.hi_tasks:
                success = 1 - decimal.Decimal(task.failure_probability) ** n_prime
                survival *= success ** max_rounds(task, n_prime, horizon)
            return float(1 - survival)

    @pytest.mark.parametrize("hours", [1.0, 10.0])
    @pytest.mark.parametrize("n_prime", [1, 2, 3])
    def test_fms_matches_decimal(self, fms, n_prime, hours):
        horizon = hours * HOUR_MS
        value = kill_probability(
            fms, AdaptationProfile.uniform(fms, n_prime), horizon
        )
        assert value == pytest.approx(
            self._exact(fms, n_prime, horizon), rel=1e-12, abs=0.0
        )


class TestTimingPoints:
    def test_last_point_is_horizon(self, example31):
        points = timing_points(example31.task("tau3"), 1, HOUR_MS)
        assert points[-1] == HOUR_MS

    def test_count_matches_rounds(self, example31):
        """|pi_i(t)| = r_i(n_i, t) when no point falls below zero."""
        task = example31.task("tau3")
        rounds = max_rounds(task, 1, HOUR_MS)
        points = timing_points(task, 1, HOUR_MS)
        assert len(points) == rounds

    def test_spacing_is_period(self, example31):
        """Consecutive eq.-(4) points differ by exactly T_i."""
        task = example31.task("tau4")
        points = timing_points(task, 2, 1e5)
        interior = points[:-1]
        gaps = np.diff(interior)
        assert np.allclose(gaps, task.period)

    def test_eq4_formula(self):
        """pi_i(t) = {t - n C - m T + D : 1 <= m < r} + {t}, checked by hand."""
        task = Task("x", period=100.0, deadline=80.0, wcet=10.0,
                     criticality=CriticalityRole.LO, failure_probability=1e-3)
        t = 450.0
        # r = floor((450 - 20)/100) + 1 = 5 rounds; m in {1,2,3,4}
        expected = sorted(
            [450.0 - 20.0 - m * 100.0 + 80.0 for m in (1, 2, 3, 4)]
        ) + [450.0]
        points = timing_points(task, 2, t)
        assert np.allclose(points, expected)

    def test_nonpositive_points_dropped(self):
        task = Task("x", period=100.0, deadline=10.0, wcet=30.0,
                     criticality=CriticalityRole.LO, failure_probability=1e-3)
        t = 250.0
        # r = floor((250-60)/100)+1 = 2; m=1: 250-60-100+10 = 100 > 0 kept
        points = timing_points(task, 2, t)
        assert all(p > 0 for p in points)

    def test_empty_when_no_round_fits(self):
        task = Task("x", period=100.0, deadline=100.0, wcet=60.0,
                     criticality=CriticalityRole.LO, failure_probability=1e-3)
        assert timing_points(task, 2, 100.0).size == 0


class TestTimingPointCount:
    """The closed-form grid length equals the materialised grid's size."""

    @staticmethod
    def _task(period, deadline, wcet):
        return Task("x", period, deadline, wcet, CriticalityRole.LO, 1e-3)

    @pytest.mark.parametrize(
        "period, deadline, wcet, executions, horizon, full_wcet, size",
        [
            # D << T: the last point lands just below zero and drops.
            (100.0, 1e-9, 1e-10, 1, 1000.0 - 1e-8, False, 10),
            (100.0, 1e-9, 1e-10, 1, 1000.0 + 1e-10 - 1e-8, True, 10),
            # D << T at an exact multiple of T: the last point survives.
            (100.0, 1e-12, 1e-13, 1, 1000.0, False, 11),
            # Horizon shorter than n*C: no round fits, no points.
            (100.0, 100.0, 60.0, 2, 100.0, True, 0),
            (100.0, 100.0, 60.0, 2, 119.0, True, 0),
            # Horizon an exact multiple of T past the set-up time.
            (100.0, 80.0, 10.0, 2, 1020.0, True, 11),
            (100.0, 80.0, 10.0, 2, 1000.0, False, 11),
            # A zero window still holds the singleton t.
            (100.0, 80.0, 10.0, 3, 0.0, False, 1),
        ],
    )
    def test_boundary_corpus(
        self, period, deadline, wcet, executions, horizon, full_wcet, size
    ):
        task = self._task(period, deadline, wcet)
        points = timing_points(task, executions, horizon, full_wcet)
        assert points.size == size
        assert timing_point_count(task, executions, horizon, full_wcet) == size

    @settings(max_examples=300, deadline=None)
    @given(
        period=st.floats(0.5, 2000.0),
        deadline_share=st.sampled_from([1e-12, 1e-9, 1e-6, 1.0])
        | st.floats(1e-12, 1.0),
        wcet_share=st.floats(0.0, 1.0),
        executions=st.integers(1, 6),
        rounds=st.integers(0, 60),
        # Horizons at, just below and just above a multiple of T.
        offset=st.sampled_from([0.0, -1e-12, -5e-10, -2e-9, 1e-9, 0.5]),
        full_wcet=st.booleans(),
    )
    def test_matches_timing_points(
        self, period, deadline_share, wcet_share, executions, rounds, offset,
        full_wcet,
    ):
        deadline = deadline_share * period
        task = self._task(period, deadline, wcet_share * deadline)
        setup = executions * task.wcet if full_wcet else 0.0
        horizon = max(setup + (rounds + offset) * period, 0.0)
        assert timing_point_count(
            task, executions, horizon, full_wcet
        ) == timing_points(task, executions, horizon, full_wcet).size

    def test_uniform_evaluator_builds_no_timing_point_arrays(self, monkeypatch):
        from repro.gen.taskset import generate_taskset
        from repro.model.criticality import DualCriticalitySpec
        from repro.safety import killing

        def no_arrays(*args, **kwargs):
            raise AssertionError("timing_points built an array")

        monkeypatch.setattr(killing, "timing_points", no_arrays)
        taskset = generate_taskset(
            0.85, DualCriticalitySpec.from_names("B", "C"), 7
        )
        reexecution = ReexecutionProfile.uniform(taskset, 3, 2)
        per_task = AdaptationProfile(
            {t.name: 1 + i % 3 for i, t in enumerate(taskset.hi_tasks)}
        )
        for adaptation in (AdaptationProfile.uniform(taskset, 2), per_task):
            killing.pfh_lo_killing(taskset, reexecution, adaptation, 10.0)


class TestPfhLoKilling:
    def test_vectorised_matches_reference(self, example31):
        reexecution = ReexecutionProfile.uniform(example31, 3, 2)
        adaptation = AdaptationProfile.uniform(example31, 2)
        fast = pfh_lo_killing(example31, reexecution, adaptation, 1.0)
        slow = pfh_lo_killing_reference(example31, reexecution, adaptation, 1.0)
        assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)

    def test_vectorised_matches_reference_at_mission_scale(self, fms):
        """The breakpoint evaluator must agree with the per-point scalar
        oracle on the 10-hour FMS workload the Fig. 3 sweeps use."""
        reexecution = ReexecutionProfile.uniform(fms, 3, 2)
        adaptation = AdaptationProfile.uniform(fms, 2)
        fast = pfh_lo_killing(fms, reexecution, adaptation, 10.0)
        slow = pfh_lo_killing_reference(fms, reexecution, adaptation, 10.0)
        assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n_prime, hours", [(1, 1.0), (2, 1.0), (3, 10.0)])
    def test_three_evaluators_agree_on_fms(self, fms, n_prime, hours):
        """Eq. (5) on the FMS at every n': the breakpoint form of the NumPy
        tier against the scalar oracle, 1e-12 relative.

        At n' = 3 over the 10-hour mission the per-point bound is ~1e-11,
        where the old ``1 - R * (1 - f^n)`` form was off by ~2e-8.
        """
        reexecution = ReexecutionProfile.uniform(fms, 3, 2)
        adaptation = AdaptationProfile.uniform(fms, n_prime)
        slow = pfh_lo_killing_reference(fms, reexecution, adaptation, hours)
        fast = pfh_lo_killing(fms, reexecution, adaptation, hours)
        assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)

    def test_no_numpy_env_selects_reference(self, example31, monkeypatch):
        from repro.analysis import kernels

        reexecution = ReexecutionProfile.uniform(example31, 3, 2)
        adaptation = AdaptationProfile.uniform(example31, 2)
        fast = pfh_lo_killing(example31, reexecution, adaptation, 1.0)
        monkeypatch.setenv(kernels.NO_NUMPY_ENV, "1")
        scalar = pfh_lo_killing(example31, reexecution, adaptation, 1.0)
        assert scalar == pytest.approx(fast, rel=1e-12, abs=0.0)

    def test_decreases_with_adaptation_profile(self, example31):
        """Section 3.3: increasing n' improves LO safety."""
        reexecution = ReexecutionProfile.uniform(example31, 3, 2)
        values = [
            pfh_lo_killing(
                example31,
                reexecution,
                AdaptationProfile.uniform(example31, n),
                10.0,
            )
            for n in (1, 2, 3)
        ]
        assert values[0] > values[1] > values[2]

    def test_no_hi_tasks_reduces_to_plain_round_failures(self):
        """With no HI tasks R == 1 and each round contributes f^n."""
        lo = Task("lo", 1000.0, 1000.0, 10.0, CriticalityRole.LO, 1e-3)
        ts = TaskSet([lo])
        reexecution = ReexecutionProfile({"lo": 2})
        adaptation = AdaptationProfile({})
        value = pfh_lo_killing(ts, reexecution, adaptation, 1.0)
        rounds = max_rounds(lo, 2, HOUR_MS)
        assert value == pytest.approx(rounds * 1e-6, rel=1e-12, abs=0.0)

    def test_fms_order_of_magnitude_matches_paper(self, fms):
        """Paper, Section 5.1: at n' = 2 killing yields pfh(LO) ~ 1e-1."""
        reexecution = ReexecutionProfile.uniform(fms, 3, 2)
        adaptation = AdaptationProfile.uniform(fms, 2)
        value = pfh_lo_killing(fms, reexecution, adaptation, 10.0)
        assert -1.0 <= math.log10(value) <= 0.0

    def test_scales_sublinearly_with_operation_hours(self, example31):
        """Failure rate accumulates, the per-hour average grows with OS."""
        reexecution = ReexecutionProfile.uniform(example31, 3, 2)
        adaptation = AdaptationProfile.uniform(example31, 2)
        one = pfh_lo_killing(example31, reexecution, adaptation, 1.0)
        ten = pfh_lo_killing(example31, reexecution, adaptation, 10.0)
        # Kill probability grows with elapsed time, so the 10-hour average
        # per-hour failure rate exceeds the 1-hour one.
        assert ten > one

    def test_rejects_nonpositive_operation_hours(self, example31):
        reexecution = ReexecutionProfile.uniform(example31, 3, 2)
        adaptation = AdaptationProfile.uniform(example31, 2)
        with pytest.raises(ValueError, match="operation hours"):
            pfh_lo_killing(example31, reexecution, adaptation, 0.0)

    @pytest.mark.parametrize("hours", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "evaluate",
        [pfh_lo_killing, pfh_lo_killing_reference, pfh_lo_killing_bounds],
    )
    def test_rejects_non_finite_operation_hours(self, fms, evaluate, hours):
        reexecution = ReexecutionProfile.uniform(fms, 3, 2)
        adaptation = AdaptationProfile.uniform(fms, 2)
        with pytest.raises(
            ValueError, match="operation hours must be positive and finite"
        ):
            evaluate(fms, reexecution, adaptation, hours)

    def test_validates_adaptation_against_reexecution(self, example31):
        reexecution = ReexecutionProfile.uniform(example31, 2, 1)
        adaptation = AdaptationProfile.uniform(example31, 3)
        with pytest.raises(ValueError, match="exceeds"):
            pfh_lo_killing(example31, reexecution, adaptation, 1.0)

    def test_footnote1_variant_is_larger(self, example31):
        """Dropping the n*C setup admits more rounds => larger bound."""
        reexecution = ReexecutionProfile.uniform(example31, 3, 2)
        adaptation = AdaptationProfile.uniform(example31, 2)
        with_setup = pfh_lo_killing(
            example31, reexecution, adaptation, 1.0, assume_full_wcet=True
        )
        without = pfh_lo_killing(
            example31, reexecution, adaptation, 1.0, assume_full_wcet=False
        )
        assert without >= with_setup


class TestUniformSeriesEvaluator:
    """The breakpoint evaluator at uniform profiles vs the scalar oracle.

    The oracle visits every timing point, so only the FMS runs the 10-hour
    mission; the other sets run 1 hour.
    """

    @staticmethod
    def _both(taskset, n_hi, n_lo, n_prime, hours, full_wcet=True):
        profiles = (
            taskset,
            ReexecutionProfile.uniform(taskset, n_hi, n_lo),
            AdaptationProfile.uniform(taskset, n_prime),
            hours,
            full_wcet,
        )
        return pfh_lo_killing(*profiles), pfh_lo_killing_reference(*profiles)

    def test_matches_matrix_path_on_example31(self, example31):
        for n_prime in (1, 2, 3):
            fast, slow = self._both(example31, 3, 2, n_prime, 1.0)
            assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)

    def test_matches_matrix_path_on_fms(self, fms):
        for n_prime in (1, 2, 3):
            for hours in (1.0, 10.0):
                fast, slow = self._both(fms, 3, 2, n_prime, hours)
                assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)

    def test_matches_on_generated_corpus(self):
        from repro.gen.taskset import generate_taskset
        from repro.model.criticality import DualCriticalitySpec

        spec = DualCriticalitySpec.from_names("B", "C")
        for seed in range(6):
            rng = np.random.default_rng([41, seed])
            taskset = generate_taskset(0.85, spec, rng)
            for n_prime in (1, 2, 4):
                fast, slow = self._both(taskset, 4, 2, n_prime, 1.0)
                assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)

    def test_footnote1_variant_matches(self, fms):
        """Footnote 1 zeroes every setup ``n'C``, so the FMS's three HI
        tasks with T = 1000 ms (tau3, tau6, tau7) gain their rounds at the
        same instants.  Their breakpoints must jump as one factor: ordered
        one by one by float noise, the sum was off by 1.6e-6 at n' = 1."""
        for n_prime in (1, 2, 3):
            fast, slow = self._both(fms, 3, 2, n_prime, 10.0, full_wcet=False)
            assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)

    def test_identical_hi_tasks_jump_together(self):
        """Two HI tasks with equal period and WCET tie at every breakpoint
        even with the full-WCET setups."""
        tasks = [
            Task("hi1", 300.0, 300.0, 20.0, CriticalityRole.HI, 1e-3),
            Task("hi2", 300.0, 300.0, 20.0, CriticalityRole.HI, 1e-3),
            Task("hi3", 700.0, 700.0, 35.0, CriticalityRole.HI, 1e-3),
            Task("lo", 600.0, 600.0, 50.0, CriticalityRole.LO, 1e-3),
        ]
        taskset = TaskSet(tasks)
        for n_prime in (1, 2):
            fast, slow = self._both(taskset, 2, 2, n_prime, 0.5)
            assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)


class TestPerTaskMissionScale:
    """Per-task ``N'_HI`` on the FMS over the 10-hour mission.

    tau3, tau6 and tau7 share T = 1000 ms.  Under footnote 1 every setup
    is zero, so the three gain their rounds at the same instants and jump
    as one factor of R even when their ``n'`` differ — the one grouping
    that no uniform profile reaches.
    """

    SHARED = {"tau1": 1, "tau2": 3, "tau3": 2, "tau4": 1, "tau5": 2,
              "tau6": 2, "tau7": 2}
    DIFFERING = {"tau1": 2, "tau2": 1, "tau3": 1, "tau4": 3, "tau5": 2,
                 "tau6": 2, "tau7": 3}

    @pytest.mark.parametrize("full_wcet", [True, False])
    @pytest.mark.parametrize("profile", [SHARED, DIFFERING],
                             ids=["shared", "differing"])
    def test_matches_reference(self, fms, profile, full_wcet):
        reexecution = ReexecutionProfile.uniform(fms, 3, 2)
        adaptation = AdaptationProfile(profile)
        assert {t.name for t in fms.hi_tasks} == set(profile)
        fast = pfh_lo_killing(fms, reexecution, adaptation, 10.0, full_wcet)
        slow = pfh_lo_killing_reference(
            fms, reexecution, adaptation, 10.0, full_wcet
        )
        assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)


@st.composite
def _profiled_sets(draw):
    """A generated set with per-task (non-uniform) profiles, at <= 0.5 h."""
    from dataclasses import replace

    from repro.gen.taskset import PAPER_CONFIG, generate_taskset
    from repro.model.criticality import DualCriticalitySpec

    taskset = generate_taskset(
        draw(st.floats(0.3, 1.0)),
        DualCriticalitySpec.from_names("B", "C"),
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        replace(PAPER_CONFIG, failure_probability=draw(st.sampled_from([1e-3, 1e-5]))),
    )
    reexecution = ReexecutionProfile(
        {t.name: draw(st.integers(1, 4)) for t in taskset}
    )
    adaptation = AdaptationProfile(
        {t.name: draw(st.integers(1, reexecution[t])) for t in taskset.hi_tasks}
    )
    hours = draw(st.sampled_from([0.05, 0.2, 0.5]))
    return taskset, reexecution, adaptation, hours, draw(st.booleans())


class TestEq5EvaluatorsAgree:
    """The NumPy tier of eq. (5) within 1e-12 relative of the scalar oracle.

    Both assemble each per-round bound cancellation-free from ``log R``,
    so only float reordering separates them.
    """

    @settings(max_examples=40, deadline=None)
    @given(case=_profiled_sets())
    def test_general_path_matches_reference(self, case):
        taskset, reexecution, adaptation, hours, full_wcet = case
        fast = pfh_lo_killing(taskset, reexecution, adaptation, hours, full_wcet)
        slow = pfh_lo_killing_reference(
            taskset, reexecution, adaptation, hours, full_wcet
        )
        assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        case=_profiled_sets(),
        n_hi=st.integers(1, 4),
        n_lo=st.integers(1, 3),
        data=st.data(),
    )
    def test_uniform_form_matches_both(self, case, n_hi, n_lo, data):
        taskset, _, _, hours, full_wcet = case
        n_prime = data.draw(st.integers(1, n_hi))
        reexecution = ReexecutionProfile.uniform(taskset, n_hi, n_lo)
        adaptation = AdaptationProfile.uniform(taskset, n_prime)
        fast = pfh_lo_killing(taskset, reexecution, adaptation, hours, full_wcet)
        slow = pfh_lo_killing_reference(
            taskset, reexecution, adaptation, hours, full_wcet
        )
        assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)
