"""Property tests for the equivalences the verdict-only fast path rests on.

:func:`repro.core.ftmc.ft_accepts` replaces line 4's scan with one pfh(LO)
test at line 8's ``n2_HI``.  That is sound only while the computed
``pfh(LO)`` is non-increasing in ``n'`` (Lemmas 3.3/3.4), on both kernel
tiers.  Line 4's test itself (:meth:`~repro.core.profiles.LoPfh.safe`)
decides from eq. (5)'s closed-form bounds where it can, which is sound
only while both evaluators' values lie inside them.  These tests pin the
bounds, the monotonicity and the verdict equality with
:func:`~repro.core.ftmc.ft_schedule` for every registered backend, on the
NumPy tier and on the scalar oracle (``REPRO_NO_NUMPY``), over generated
task sets, and the Fig. 3 rows against the paper-order oracle
:func:`~repro.experiments.fig3.accept_in_paper_order`, which compares
exact pfh(LO) values at line 4 and so shares no bound with them.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import kernels
from repro.core import profiles as profiles_module
from repro.core.backends import backend_names, make_backend
from repro.core.ftmc import ft_accepts, ft_schedule
from repro.core.profiles import LoPfh, minimal_reexecution_profiles, pfh_lo_adapted
from repro.experiments.fig3 import FIG3_PANELS, accept_in_paper_order
from repro.gen.taskset import PAPER_CONFIG, generate_taskset
from repro.model.criticality import CriticalityRole, DualCriticalitySpec
from repro.model.faults import AdaptationProfile, ReexecutionProfile
from repro.model.task import Task, TaskSet
from repro.runner import build_options, run_inline
from repro.safety.killing import (
    pfh_lo_killing,
    pfh_lo_killing_bounds,
    pfh_lo_killing_reference,
)

pytestmark = pytest.mark.skipif(
    not kernels.numpy_enabled(), reason="NumPy kernels disabled"
)

#: (scalar tier?, OS hours): the scalar oracle evaluates eq. (5) point by
#: point in pure Python, so it runs on a short mission to keep the draws
#: cheap.
TIERS = [
    pytest.param(False, 10.0, id="numpy"),
    pytest.param(True, 0.05, id="scalar"),
]

generated = st.builds(
    lambda seed, utilization, f, lo: generate_taskset(
        utilization,
        DualCriticalitySpec.from_names("B", lo),
        np.random.default_rng(seed),
        replace(PAPER_CONFIG, failure_probability=f),
    ),
    seed=st.integers(0, 2**32 - 1),
    utilization=st.floats(0.4, 1.2),
    f=st.sampled_from([1e-3, 1e-5]),
    lo=st.sampled_from(["C", "D"]),
)


@contextlib.contextmanager
def tier(scalar: bool):
    """Run the block on the scalar oracle (``REPRO_NO_NUMPY``) or the NumPy tier."""
    with pytest.MonkeyPatch.context() as patch:
        if scalar:
            patch.setenv(kernels.NO_NUMPY_ENV, "1")
        else:
            patch.delenv(kernels.NO_NUMPY_ENV, raising=False)
        yield


class TestFtAcceptsEquivalence:
    @pytest.mark.parametrize("scalar, hours", TIERS)
    @settings(max_examples=25, deadline=None)
    @given(taskset=generated)
    def test_matches_ft_schedule_for_every_backend(self, scalar, hours, taskset):
        with tier(scalar):
            for name in backend_names():
                backend = make_backend(name)
                accepted = ft_accepts(
                    taskset,
                    minimal_reexecution_profiles(taskset),
                    backend,
                    operation_hours=hours,
                )
                expected = ft_schedule(taskset, backend, operation_hours=hours)
                assert accepted == expected.success, (name, expected.failure)


class TestAdaptationMonotonicity:
    """Lemmas 3.3/3.4: pfh(LO) never rises as ``n'`` grows, as computed."""

    @pytest.mark.parametrize("mechanism", ["kill", "degrade"])
    @pytest.mark.parametrize("scalar, hours", TIERS)
    @settings(max_examples=30, deadline=None)
    @given(
        taskset=generated,
        n_hi=st.integers(1, 8),
        n_lo=st.integers(1, 4),
    )
    def test_pfh_lo_non_increasing_in_n_prime(
        self, mechanism, scalar, hours, taskset, n_hi, n_lo
    ):
        with tier(scalar):
            values = [
                pfh_lo_adapted(taskset, n_hi, n_lo, n_prime, mechanism, hours)
                for n_prime in range(1, n_hi + 1)
            ]
        assert all(
            later <= earlier for earlier, later in zip(values, values[1:])
        ), values


class TestFig3PaperOrderOracle:
    def test_rows_equal_paper_order_oracle(self):
        utilizations = (0.5, 0.8, 0.95)
        sets, seed = 4, 3
        rows = {
            r.name: r.rows
            for r in run_inline(
                "fig3",
                build_options(
                    "fig3", seed=seed, sets=sets, utilizations=utilizations
                ),
            )
        }
        expected = {}
        for key, panel in FIG3_PANELS.items():
            for f in (1e-3, 1e-5):
                config = replace(PAPER_CONFIG, failure_probability=f)
                series = []
                for point_index, utilization in enumerate(utilizations):
                    accepts = [
                        accept_in_paper_order(
                            generate_taskset(
                                utilization,
                                panel.spec,
                                np.random.default_rng(
                                    [seed, point_index, set_index, int(f * 1e9)]
                                ),
                                config,
                            ),
                            panel.mechanism,
                        )
                        for set_index in range(sets)
                    ]
                    series.append(
                        (
                            utilization,
                            sum(base for base, _ in accepts) / sets,
                            sum(adapted for _, adapted in accepts) / sets,
                            sets,
                        )
                    )
                expected[f"fig3{key}-f{f:g}"] = series
        assert rows == expected
        # Not vacuous: adaptation must win sets on a LO=C panel, where the
        # verdict rests on the pfh(LO) check at n2_HI.
        assert any(
            with_ > without
            for _, without, with_, _ in rows["fig3d-f1e-05"]
        )


#: Per-task failure probabilities: none, tiny kill sums beside the point
#: count, the paper's two hardware qualities, and kills that saturate.
FAILURES = st.sampled_from([0.0, 1e-8, 1e-5, 1e-3, 0.05, 0.3])

#: The evaluators' float error (TestEq5EvaluatorsAgree pins them to each
#: other within it).
EVALUATOR_ERROR = 1e-12


@st.composite
def eq5_cases(draw, max_hours):
    """A set with 0-3 HI and 1-3 LO tasks, constrained or arbitrary
    deadlines, per-task ``N`` and ``N'_HI``, a mission and a footnote-1
    reading."""

    def task(name, role):
        # The generator's period range keeps a 10-hour breakpoint matrix
        # under ~15 MB.
        period = draw(st.floats(200.0, 2000.0))
        deadline = period * draw(st.one_of(st.just(1.0), st.floats(0.3, 20.0)))
        # Up to 0.6 lets n'_h C_h exceed T_h, where the upper line takes a chord.
        wcet = min(period, deadline) * draw(st.floats(0.0, 0.6))
        return Task(name, period, deadline, wcet, role, draw(FAILURES))

    hi = [task(f"h{i}", CriticalityRole.HI) for i in range(draw(st.integers(0, 3)))]
    lo = [task(f"l{i}", CriticalityRole.LO) for i in range(draw(st.integers(1, 3)))]
    taskset = TaskSet(hi + lo, DualCriticalitySpec.from_names("B", "C"))
    reexecution = ReexecutionProfile(
        {t.name: draw(st.integers(1, 4)) for t in taskset}
    )
    adaptation = AdaptationProfile(
        {t.name: draw(st.integers(1, reexecution[t])) for t in hi}
    )
    hours = draw(st.floats(0.05, max_hours))
    return taskset, reexecution, adaptation, hours, draw(st.booleans())


def _assert_inside(bounds, value):
    lower, upper = bounds
    assert lower <= value * (1 + EVALUATOR_ERROR), (lower, value)
    assert value <= upper * (1 + EVALUATOR_ERROR), (value, upper)


class TestEq5Bounds:
    """Both evaluators' values of eq. (5) lie inside its closed-form bounds."""

    @settings(max_examples=60, deadline=None)
    @given(case=eq5_cases(max_hours=10.0))
    def test_breakpoint_form_inside(self, case):
        taskset, reexecution, adaptation, hours, full_wcet = case
        args = (taskset, reexecution, adaptation, hours, full_wcet)
        _assert_inside(pfh_lo_killing_bounds(*args), pfh_lo_killing(*args))

    @settings(max_examples=30, deadline=None)
    @given(case=eq5_cases(max_hours=1.0))
    def test_scalar_oracle_inside(self, case):
        taskset, reexecution, adaptation, hours, full_wcet = case
        args = (taskset, reexecution, adaptation, hours, full_wcet)
        _assert_inside(
            pfh_lo_killing_bounds(*args), pfh_lo_killing_reference(*args)
        )

    def test_timing_points_after_the_mission(self):
        """D = 20 T puts 19 timing points after t.  The breakpoint form
        takes R(t) there and the scalar oracle R(alpha), so the two differ
        by ~3%; the lower bound stops at t and the upper one runs on."""
        taskset = TaskSet(
            [
                Task("h", 50.0, 50.0, 5.0, CriticalityRole.HI, 1e-5),
                Task("l", 2000.0, 40000.0, 10.0, CriticalityRole.LO, 1e-6),
            ],
            DualCriticalitySpec.from_names("B", "C"),
        )
        args = (
            taskset,
            ReexecutionProfile.uniform(taskset, 2, 1),
            AdaptationProfile.uniform(taskset, 1),
            0.05,
        )
        bounds = pfh_lo_killing_bounds(*args)
        _assert_inside(bounds, pfh_lo_killing(*args))
        _assert_inside(bounds, pfh_lo_killing_reference(*args))

    def test_tiny_kill_sum_beside_point_count(self):
        """Kill terms near 1e-21 over ~1e5 points, with no plain round
        failure to hide them: the bounds must still bracket them."""
        taskset = TaskSet(
            [
                Task("h", 200.0, 200.0, 10.0, CriticalityRole.HI, 1e-8),
                Task("l", 250.0, 250.0, 10.0, CriticalityRole.LO, 0.0),
            ],
            DualCriticalitySpec.from_names("B", "C"),
        )
        args = (
            taskset,
            ReexecutionProfile.uniform(taskset, 3, 1),
            AdaptationProfile.uniform(taskset, 3),
            10.0,
        )
        value = pfh_lo_killing(*args)
        lower, upper = pfh_lo_killing_bounds(*args)
        assert 0.0 < lower <= value <= upper <= lower * (1 + 1e-3)


class TestLineFourVerdictFromBounds:
    """``LoPfh.safe(n')`` is ``LoPfh(...)(n') < PFH_LO`` wherever the
    ceiling lies: clear of the bounds (they decide) or inside the margin
    around them (the value decides)."""

    #: Ceiling placements: (anchor, relative offset in margins, bounds decide?).
    PLACEMENTS = [
        ("upper", 10.0, True),
        ("lower", -10.0, True),
        ("value", 0.0, False),
        ("value", 0.5, False),
        ("value", -0.5, False),
        ("upper", 0.0, False),
        ("lower", 0.0, False),
    ]

    @settings(max_examples=40, deadline=None)
    @given(
        case=eq5_cases(max_hours=10.0),
        n_hi=st.integers(1, 4),
        n_lo=st.integers(1, 3),
        data=st.data(),
    )
    def test_safe_matches_value(self, case, n_hi, n_lo, data):
        taskset, _, _, hours, full_wcet = case
        n_prime = data.draw(st.integers(1, n_hi))
        value = LoPfh(taskset, n_hi, n_lo, "kill", hours, full_wcet)(n_prime)
        lower, upper = pfh_lo_killing_bounds(
            taskset,
            ReexecutionProfile.uniform(taskset, n_hi, n_lo),
            AdaptationProfile.uniform(taskset, n_prime),
            hours,
            full_wcet,
        )
        anchors = {"lower": lower, "upper": upper, "value": value}
        anchor, offset, bounds_decide = data.draw(st.sampled_from(self.PLACEMENTS))
        ceiling = anchors[anchor] * (1 + offset * profiles_module._BOUNDS_MARGIN)
        if not ceiling > 0.0:
            return  # a PFH ceiling is positive
        evaluated = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                DualCriticalitySpec, "pfh_requirement", lambda self, role: ceiling
            )
            patch.setattr(
                profiles_module,
                "pfh_lo_killing",
                lambda *args: evaluated.append(args) or pfh_lo_killing(*args),
            )
            safe = LoPfh(taskset, n_hi, n_lo, "kill", hours, full_wcet).safe(n_prime)
        assert safe == (value < ceiling)
        assert len(evaluated) == (0 if bounds_decide else 1)
