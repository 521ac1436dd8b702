"""Fig. 3's per-set layers against their public evaluators, on random sets.

Three layers read each task's fields directly instead of building
objects per candidate:

- line 2 (:func:`~repro.safety.pfh.minimal_uniform_reexecution`) sums
  eq. (2) itself; its reference is a scan over
  :func:`~repro.safety.pfh.pfh_of_tasks` at
  ``ReexecutionProfile.constant(tasks, n)``;
- the no-adaptation baseline
  (:func:`~repro.analysis.edf.schedulable_without_adaptation`) decides an
  implicit-deadline set by the utilization bound; its reference is
  ``edf_schedulable(inflated_workload(...))``;
- line 8's EDF-VD series
  (:meth:`~repro.core.backends.SchedulerBackend.schedulable_uniform_series`)
  reads each ``(C, T)`` once; its reference is the backend's test on each
  ``convert_uniform`` set.

The answers must be equal, not close: each layer keeps its reference's
float operations and reduction (``+=`` for eq. (2), ``sum()`` for the
utilizations), so a difference of one ulp is a defect.  So line 2's
ceilings are drawn exactly at, and one ulp either side of, a value the
reference computes; a filler task puts the baseline's sum at, or one ulp
either side of, the utilization bound; and the series' ``U_MC`` values
are compared bit for bit with the converted sets'.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import edf as edf_module
from repro.analysis.edf import (
    edf_schedulable,
    inflated_workload,
    schedulable_without_adaptation,
)
from repro.analysis.tolerance import UTIL_EPS, utilization_exceeds
from repro.core import backends as backends_module
from repro.core.backends import EDFVDBackend, EDFVDDegradationBackend
from repro.core.conversion import convert_uniform, convert_uniform_series
from repro.core.profiles import minimal_reexecution_profiles
from repro.gen.taskset import PAPER_CONFIG, generate_taskset
from repro.model.criticality import CriticalityRole, DualCriticalitySpec
from repro.model.faults import ReexecutionProfile
from repro.model.task import HOUR_MS, Task, TaskSet
from repro.safety.pfh import minimal_uniform_reexecution, pfh_of_tasks

ROLES = (CriticalityRole.HI, CriticalityRole.LO)

#: The Fig. 3 generator's sets, the layers' real input.
generated = st.builds(
    lambda seed, utilization, f, lo: generate_taskset(
        utilization,
        DualCriticalitySpec.from_names("B", lo),
        np.random.default_rng(seed),
        replace(PAPER_CONFIG, failure_probability=f),
    ),
    seed=st.integers(0, 2**32 - 1),
    utilization=st.floats(0.05, 1.3),
    f=st.sampled_from([1e-3, 1e-5]),
    lo=st.sampled_from(["C", "D"]),
)

#: One task's ``(T, C/T, f, role)``: setups ``n C`` beyond the hour (no
#: round fits), periods beyond it (one round), and f = 0.
hand_task = st.tuples(
    st.floats(1.0, 5e6),
    st.floats(0.0, 1.0),
    st.one_of(
        st.sampled_from([0.0, 1e-1, 1e-3, 1e-5, 1e-7]),
        st.floats(0.0, 0.5),
    ),
    st.sampled_from(ROLES),
)


def _hand_set(params, deadline_of=lambda period, index: period) -> TaskSet:
    return TaskSet(
        [
            Task(f"t{index}", period, deadline_of(period, index), load * period,
                 role, f)
            for index, (period, load, f, role) in enumerate(params)
        ],
        DualCriticalitySpec.from_names("B", "C"),
    )


# Both generated sets and hand-built ones, with a HI or LO role left empty.
tasksets = st.one_of(
    generated,
    st.lists(hand_task, min_size=0, max_size=8).map(_hand_set),
)


# -- line 2 ---------------------------------------------------------------------


def _eq2(tasks, n: int, assume_full_wcet: bool) -> float:
    return pfh_of_tasks(
        tasks, ReexecutionProfile.constant(tasks, n), HOUR_MS, assume_full_wcet
    )


def _line2_reference(taskset, role, ceiling, max_n, assume_full_wcet, strict):
    """The first ``n <= max_n`` whose eq. (2) value meets the ceiling."""
    tasks = taskset.by_criticality(role)
    if not tasks:
        return 1  # an empty level needs no re-execution
    for n in range(1, max_n + 1):
        value = _eq2(tasks, n, assume_full_wcet)
        if (value < ceiling) if strict else (value <= ceiling):
            return n
    return None


def _assert_line2_matches(taskset, role, ceiling, max_n, assume_full_wcet):
    for strict in (False, True):
        expected = _line2_reference(
            taskset, role, ceiling, max_n, assume_full_wcet, strict
        )
        assert minimal_uniform_reexecution(
            taskset, role, ceiling, max_n, assume_full_wcet, strict
        ) == expected, (role, ceiling, max_n, assume_full_wcet, strict)


class TestLine2AgainstEq2Scan:
    @settings(max_examples=300, deadline=None)
    @given(
        taskset=tasksets,
        max_n=st.sampled_from([0, 1, 3, 30]),
        at=st.integers(1, 6),
        ulps=st.sampled_from([-1, 0, 1]),
    )
    def test_ceilings_at_a_value_and_one_ulp_away(self, taskset, max_n, at, ulps):
        for role in ROLES:
            tasks = taskset.by_criticality(role)
            for assume_full_wcet in (True, False):
                ceiling = _eq2(tasks, at, assume_full_wcet) if tasks else 1e-7
                if ulps:
                    ceiling = math.nextafter(ceiling, ulps * math.inf)
                _assert_line2_matches(
                    taskset, role, ceiling, max_n, assume_full_wcet
                )

    @settings(max_examples=150, deadline=None)
    @given(
        taskset=tasksets,
        max_n=st.sampled_from([0, 1, 3, 30]),
        ceiling=st.one_of(
            st.sampled_from([0.0, 1e-9, 1e-7, 1e-5, math.inf]),
            st.floats(0.0, 10.0),
        ),
    )
    def test_fixed_and_infinite_ceilings(self, taskset, max_n, ceiling):
        for role in ROLES:
            for assume_full_wcet in (True, False):
                _assert_line2_matches(
                    taskset, role, ceiling, max_n, assume_full_wcet
                )

    def test_overflowing_setup_raises_like_the_reference(self):
        """``n C`` overflowing to inf fails eq. (1)'s floor in both.

        No round fits at ``n = 1`` (``C = T = 1e308``), so eq. (2) is 0,
        which misses a strict ceiling of 0; ``n = 2`` overflows.
        """
        taskset = _hand_set([(1e308, 1.0, 0.5, CriticalityRole.HI)])
        hi = CriticalityRole.HI
        with pytest.raises(OverflowError):
            _line2_reference(taskset, hi, 0.0, 30, True, True)
        with pytest.raises(OverflowError):
            minimal_uniform_reexecution(taskset, hi, 0.0, strict=True)


# -- the no-adaptation baseline --------------------------------------------------


def _deadline(kind: str):
    """Deadlines by kind: implicit, within ``isclose`` of T but not T,
    just outside it, constrained, or arbitrary (beyond T)."""
    factor = {
        "implicit": 1.0,
        "isclose": 1.0 + 1e-12,
        "outside": 1.0 + 1e-6,
        "constrained": 0.6,
        "arbitrary": 1.7,
    }[kind]
    return lambda period, index: period * (factor if index % 2 else 1.0)


class TestBaselineAgainstInflatedWorkload:
    @settings(max_examples=200, deadline=None)
    @given(
        params=st.lists(
            st.tuples(
                st.integers(5, 60).map(float),
                st.floats(0.0, 1.0),
                st.just(1e-5),
                st.sampled_from(ROLES),
            ),
            min_size=1,
            max_size=6,
        ),
        kind=st.sampled_from(
            ["implicit", "isclose", "outside", "constrained", "arbitrary"]
        ),
        counts=st.lists(st.integers(1, 4), min_size=6, max_size=6),
    )
    def test_verdict_matches_edf_on_the_inflated_workload(self, params, kind, counts):
        taskset = _hand_set(params, _deadline(kind))
        reexecution = ReexecutionProfile(
            {t.name: counts[i] for i, t in enumerate(taskset)}
        )
        assert schedulable_without_adaptation(taskset, reexecution) == (
            edf_schedulable(inflated_workload(taskset, reexecution))
        )

    @settings(max_examples=150, deadline=None)
    @given(taskset=generated, n_hi=st.integers(1, 8), n_lo=st.integers(1, 4))
    def test_uniform_profiles_on_generated_sets(self, taskset, n_hi, n_lo):
        reexecution = ReexecutionProfile.uniform(taskset, n_hi, n_lo)
        assert schedulable_without_adaptation(taskset, reexecution) == (
            edf_schedulable(inflated_workload(taskset, reexecution))
        )

    @settings(max_examples=150, deadline=None)
    @given(
        taskset=st.builds(
            lambda seed, utilization: generate_taskset(
                utilization,
                DualCriticalitySpec.from_names("B", "C"),
                np.random.default_rng(seed),
            ),
            seed=st.integers(0, 2**32 - 1),
            utilization=st.floats(0.05, 0.45),
        ),
        n_hi=st.integers(1, 2),
        ulps=st.sampled_from([-1, 0, 1]),
    )
    def test_sums_at_the_bound_and_one_ulp_away(self, taskset, n_hi, ulps):
        """A LO task with ``T = 1`` fills the inflated utilization up to
        the bound ``1 + UTIL_EPS``, or one ulp either side of it, where
        the verdict turns on the last bit of the sum."""
        target = 1.0 + UTIL_EPS
        if ulps:
            target = math.nextafter(target, ulps * math.inf)
        terms = [
            ((n_hi if t.criticality is CriticalityRole.HI else 1) * t.wcet)
            / t.period
            for t in taskset
        ]
        fill = target - sum(terms)
        for _ in range(4):  # the fill whose sum lands on the target
            if sum([*terms, fill]) == target:
                break
            fill = math.nextafter(fill, (target - sum([*terms, fill])) * math.inf)
        assume(0.0 <= fill <= 1.0 and sum([*terms, fill]) == target)
        filled = TaskSet(
            [*taskset, Task("fill", 1.0, 1.0, fill, CriticalityRole.LO, 1e-5)],
            taskset.spec,
        )
        reexecution = ReexecutionProfile.uniform(filled, n_hi, 1)
        expected = edf_schedulable(inflated_workload(filled, reexecution))
        assert expected is (ulps <= 0)
        assert schedulable_without_adaptation(filled, reexecution) is expected

    def test_empty_set_is_schedulable_on_both(self):
        empty = TaskSet([])
        reexecution = ReexecutionProfile({})
        assert schedulable_without_adaptation(empty, reexecution)
        assert edf_schedulable(inflated_workload(empty, reexecution))

    def test_missing_task_raises_the_same_error(self, example31):
        partial = ReexecutionProfile({"tau1": 2})
        with pytest.raises(ValueError) as reference:
            inflated_workload(example31, partial)
        with pytest.raises(ValueError) as raised:
            schedulable_without_adaptation(example31, partial)
        assert str(raised.value) == str(reference.value)

    def test_overflowing_budget_raises_the_same_error(self, example31):
        reexecution = ReexecutionProfile.uniform(example31, 10**308, 1)
        with pytest.raises(ValueError) as reference:
            inflated_workload(example31, reexecution)
        with pytest.raises(ValueError) as raised:
            schedulable_without_adaptation(example31, reexecution)
        assert "invalid workload item" in str(reference.value)
        assert str(raised.value) == str(reference.value)


# -- line 8's EDF-VD series ------------------------------------------------------


class TestEdfVdSeriesAgainstConversion:
    @settings(max_examples=150, deadline=None)
    @given(
        taskset=generated,
        n_hi=st.integers(1, 8),
        n_lo=st.integers(1, 4),
        df=st.floats(1.01, 20.0),
    )
    def test_series_equals_the_converted_verdicts(self, taskset, n_hi, n_lo, df):
        """Equal verdicts, and each decided on the converted set's ``U_MC``
        to the last bit, which a verdict alone shows only at the bound."""
        for backend in (EDFVDBackend(), EDFVDDegradationBackend(df)):
            candidates = range(n_hi, 0, -1)
            converted = [
                convert_uniform(taskset, n_hi, n_lo, n) for n in candidates
            ]
            expected = [backend.is_schedulable(mc) for mc in converted]
            decided_on = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    backends_module,
                    "utilization_exceeds",
                    lambda total: decided_on.append(total)
                    or utilization_exceeds(total),
                )
                series = list(
                    backend.schedulable_uniform_series(
                        taskset, n_hi, n_lo, candidates
                    )
                )
            assert series == expected, backend.name
            assert decided_on == [
                backend.utilization_metric(mc) for mc in converted
            ], backend.name

    @pytest.mark.parametrize(
        "n_hi, n_lo, n_prime",
        [(3, 0, 1), (3, 1.0, 1), (3, True, 1), (0, 1, 1), (2.0, 1, 1), (3, 1, 4)],
    )
    def test_refusals_match_convert_uniform(self, example31, n_hi, n_lo, n_prime):
        with pytest.raises((TypeError, ValueError)) as reference:
            convert_uniform(example31, n_hi, n_lo, n_prime)
        for refuse in (
            lambda: EDFVDBackend().schedulable_uniform_series(
                example31, n_hi, n_lo, [n_prime]
            ),
            lambda: list(
                convert_uniform_series(example31, n_hi, n_lo, [n_prime])
            ),
        ):
            with pytest.raises(type(reference.value)) as raised:
                refuse()
            assert str(raised.value) == str(reference.value)

    def test_a_count_no_task_receives_is_accepted_as_by_conversion(self):
        """``n_LO = 0`` on a set without LO tasks passes every path."""
        hi_only = _hand_set([(100.0, 0.1, 1e-5, CriticalityRole.HI)])
        expected = EDFVDBackend().is_schedulable(convert_uniform(hi_only, 2, 0, 1))
        series = EDFVDBackend().schedulable_uniform_series(hi_only, 2, 0, [1])
        assert list(series) == [expected]
        assert [n for n, _ in convert_uniform_series(hi_only, 2, 0, [1])] == [1]


# -- what the layers do not build ------------------------------------------------


class TestObjectFreePaths:
    """On a generated implicit-deadline set, line 2 builds no profile, the
    baseline no inflated workload, and line 8's series no profile."""

    def test_no_profile_or_workload_is_built(self, monkeypatch):
        taskset = generate_taskset(
            0.95, DualCriticalitySpec.from_names("B", "C"), np.random.default_rng(7)
        )
        reexecution = ReexecutionProfile.uniform(taskset, 3, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("built on an object-free path")

        monkeypatch.setattr(ReexecutionProfile, "_derived", classmethod(refuse))
        monkeypatch.setattr(ReexecutionProfile, "__init__", refuse)
        monkeypatch.setattr(edf_module, "inflated_workload", refuse)
        profiles = minimal_reexecution_profiles(taskset)
        assert profiles is not None
        schedulable_without_adaptation(taskset, reexecution)
        for backend in (EDFVDBackend(), EDFVDDegradationBackend(6.0)):
            list(
                backend.schedulable_uniform_series(
                    taskset, profiles.n_hi, profiles.n_lo,
                    range(profiles.n_hi, 0, -1),
                )
            )
        with pytest.raises(AssertionError, match="object-free"):
            ReexecutionProfile.uniform(taskset, 1, 1)
