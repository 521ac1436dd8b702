"""Tests for the FT-S profile searches (Algorithm 1, lines 2/4/8)."""

import pytest

from repro.core.backends import EDFVDBackend, EDFVDDegradationBackend
from repro.core import profiles as profiles_module
from repro.core.profiles import (
    lo_safe_at,
    maximal_adaptation_profile,
    minimal_adaptation_profile,
    minimal_reexecution_profiles,
    pfh_lo_adapted,
)
from repro.model.criticality import CriticalityRole, DualCriticalitySpec
from repro.model.task import Task, TaskSet


class TestMinimalReexecutionProfiles:
    def test_example31(self, example31):
        """Paper: n_HI = 3 (level B), n_LO = 1 (level D, no requirement)."""
        profiles = minimal_reexecution_profiles(example31)
        assert profiles is not None
        assert profiles.n_hi == 3
        assert profiles.n_lo == 1

    def test_fms(self, fms):
        """Paper: n_HI = 3, n_LO = 2 for the FMS (levels B and C)."""
        profiles = minimal_reexecution_profiles(fms)
        assert profiles is not None
        assert (profiles.n_hi, profiles.n_lo) == (3, 2)

    def test_example31_with_lo_c(self, example31_lo_c):
        profiles = minimal_reexecution_profiles(example31_lo_c)
        assert profiles is not None
        assert profiles.n_hi == 3
        assert profiles.n_lo >= 2  # level C forces LO re-execution

    def test_requires_spec(self, example31):
        unbound = TaskSet(example31.tasks, spec=None)
        with pytest.raises(ValueError, match="spec"):
            minimal_reexecution_profiles(unbound)

    def test_none_when_max_n_too_small(self, example31):
        assert minimal_reexecution_profiles(example31, max_n=2) is None

    def test_safety_actually_met(self, fms):
        from repro.model.faults import ReexecutionProfile
        from repro.safety.pfh import pfh_plain

        profiles = minimal_reexecution_profiles(fms)
        reexecution = ReexecutionProfile.uniform(fms, profiles.n_hi, profiles.n_lo)
        assert pfh_plain(fms, CriticalityRole.HI, reexecution) <= 1e-7
        assert pfh_plain(fms, CriticalityRole.LO, reexecution) <= 1e-5


class TestMinimalAdaptationProfile:
    def test_trivial_when_lo_not_safety_related(self, example31):
        assert (
            minimal_adaptation_profile(example31, 3, 1, "kill", 10.0) == 1
        )

    def test_fms_killing_needs_three(self, fms):
        """Fig. 1: the killing safe region starts at n' = 3."""
        assert minimal_adaptation_profile(fms, 3, 2, "kill", 10.0) == 3

    def test_fms_degradation_safe_from_one(self, fms):
        """Fig. 2: degradation is safe already at n' = 1."""
        assert minimal_adaptation_profile(fms, 3, 2, "degrade", 10.0) == 1

    def test_none_when_unreachable(self, example31_lo_c):
        """Killing level-C tasks in Example 3.1 violates safety at any n'."""
        assert (
            minimal_adaptation_profile(example31_lo_c, 3, 3, "kill", 10.0)
            is None
        )

    def test_unknown_mechanism_rejected(self, fms):
        with pytest.raises(ValueError, match="mechanism"):
            pfh_lo_adapted(fms, 3, 2, 2, "pause", 10.0)

    def test_requires_spec(self, example31):
        unbound = TaskSet(example31.tasks, spec=None)
        with pytest.raises(ValueError, match="spec"):
            minimal_adaptation_profile(unbound, 3, 1, "kill", 10.0)

    def test_no_lo_tasks_trivial(self):
        hi_only = TaskSet(
            [Task("hi", 100, 100, 5, CriticalityRole.HI, 1e-5)],
            DualCriticalitySpec.from_names("B", "C"),
        )
        assert minimal_adaptation_profile(hi_only, 3, 1, "kill", 10.0) == 1


class TestLoSafeAt:
    """Line 4's per-candidate test, shared by the scan and ft_accepts."""

    def test_fms_killing_safe_from_three(self, fms):
        safe = [lo_safe_at(fms, 3, 2, n, "kill", 10.0) for n in (1, 2, 3)]
        assert safe == [False, False, True]

    def test_trivial_when_lo_not_safety_related(self, example31):
        assert lo_safe_at(example31, 3, 1, 1, "pause", 10.0)

    def test_ceiling_is_strict(self, fms, monkeypatch):
        """pfh(LO) exactly at PFH_LO is unsafe: line 4 demands ``<``.

        Bounds pinned at the ceiling cannot decide, so the test falls back
        to the value, which sits exactly on the ceiling.
        """
        ceiling = fms.spec.pfh_requirement(CriticalityRole.LO)
        monkeypatch.setattr(
            profiles_module,
            "pfh_lo_killing_bounds",
            lambda *args: (ceiling, ceiling),
        )
        monkeypatch.setattr(
            profiles_module.LoPfh, "__call__", lambda self, n_prime: ceiling
        )
        assert not lo_safe_at(fms, 3, 2, 3, "kill", 10.0)
        assert minimal_adaptation_profile(fms, 3, 2, "kill", 10.0) is None

    def test_requires_spec(self, example31):
        unbound = TaskSet(example31.tasks, spec=None)
        with pytest.raises(ValueError, match="spec"):
            lo_safe_at(unbound, 3, 1, 1, "kill", 10.0)


class TestMaximalAdaptationProfile:
    def test_example31_edf_vd(self, example31):
        """Example 4.1: n2_HI = 2 under EDF-VD."""
        assert (
            maximal_adaptation_profile(example31, 3, 1, EDFVDBackend()) == 2
        )

    def test_fms_edf_vd(self, fms):
        """Fig. 1: the FMS schedulable region ends at n' = 2."""
        assert maximal_adaptation_profile(fms, 3, 2, EDFVDBackend()) == 2

    def test_fms_degradation(self, fms):
        backend = EDFVDDegradationBackend(6.0)
        assert maximal_adaptation_profile(fms, 3, 2, backend) == 2

    def test_none_when_nothing_schedulable(self):
        overloaded = TaskSet(
            [
                Task("hi", 100, 100, 60, CriticalityRole.HI, 1e-5),
                Task("lo", 100, 100, 60, CriticalityRole.LO, 1e-5),
            ],
            DualCriticalitySpec.from_names("B", "D"),
        )
        assert (
            maximal_adaptation_profile(overloaded, 2, 1, EDFVDBackend()) is None
        )

    def test_result_is_schedulable_and_supremum(self, fms):
        from repro.core.conversion import convert_uniform

        backend = EDFVDBackend()
        n2 = maximal_adaptation_profile(fms, 3, 2, backend)
        assert backend.is_schedulable(convert_uniform(fms, 3, 2, n2))
        if n2 < 3:
            assert not backend.is_schedulable(
                convert_uniform(fms, 3, 2, n2 + 1)
            )

    def test_repeated_calls_stable_across_cache_states(self, fms):
        """The schedulability cache must never change the search result."""
        backend = EDFVDBackend()
        cold = maximal_adaptation_profile(fms, 3, 2, backend)
        warm = maximal_adaptation_profile(fms, 3, 2, backend)
        assert cold == warm
        assert maximal_adaptation_profile(fms, 3, 2, EDFVDBackend()) == cold


class TestMinimalReexecutionMemo:
    """Line 2 keeps no memo: each call searches again."""

    def test_memo_returns_consistent_results(self, fms):
        """Repeated profile derivations (the Fig. 3 hot path) agree."""
        assert minimal_reexecution_profiles(fms) == minimal_reexecution_profiles(fms)

    def test_memo_distinguishes_arguments(self, example31):
        full = minimal_reexecution_profiles(example31)
        capped = minimal_reexecution_profiles(example31, max_n=2)
        assert full is not None and capped is None

    def test_memo_released_with_taskset(self, fms):
        """No module state keeps a set alive once FT-S has answered."""
        import gc
        import weakref

        from repro.core.ftmc import ft_edf_vd, ft_edf_vd_degradation

        clone = TaskSet(list(fms), fms.spec, name="clone")
        minimal_reexecution_profiles(clone)
        ft_edf_vd(clone)
        ft_edf_vd_degradation(clone, 6.0)
        ref = weakref.ref(clone)
        del clone
        gc.collect()
        assert ref() is None


class TestMemoSpecKeying:
    """Regression: the memo must key on the *bound* spec, not just args.

    ``TaskSet.spec`` is a plain attribute; rebinding a different
    :class:`DualCriticalitySpec` to the same object used to serve the
    previous spec's profile out of the memo.
    """

    def test_rebinding_spec_invalidates_memo(self, example31):
        relaxed = minimal_reexecution_profiles(example31)
        assert relaxed is not None and relaxed.n_lo == 1  # LO=D: no PFH req
        example31.spec = DualCriticalitySpec.from_names("B", "C")
        strict = minimal_reexecution_profiles(example31)
        assert strict is not None
        assert strict.n_lo >= 2  # level C forces LO re-execution

    def test_original_spec_result_restored_on_rebind_back(self, example31):
        original_spec = example31.spec
        first = minimal_reexecution_profiles(example31)
        example31.spec = DualCriticalitySpec.from_names("B", "C")
        minimal_reexecution_profiles(example31)
        example31.spec = original_spec
        again = minimal_reexecution_profiles(example31)
        assert again == first


class TestPerRunReuse:
    """One FT-S run evaluates eq. (5) at each candidate n' at most once.

    On the lighter FMS below line 4 tests n' = 3 first, scans 1..3 and
    line 8 adopts n2 = 3.  Eq. (5)'s bounds decide all three line-4
    tests, so the one evaluation left is the reported pfh(LO) at n2.
    With bounds that decide nothing, line 4 evaluates each candidate
    once, and the reported pfh(LO) is the value line 4 already computed,
    not a second evaluation.
    """

    @staticmethod
    def _light_fms(fms):
        from dataclasses import replace

        return fms.with_tasks([replace(t, wcet=t.wcet / 2) for t in fms])

    @staticmethod
    def _assert_each_once(monkeypatch, run):
        evaluated = []
        inner = profiles_module.pfh_lo_killing

        def counting(taskset, reexecution, adaptation, *args):
            # Each profile is uniform: record its one n'.
            evaluated.append({n_prime for _, n_prime in adaptation.items()})
            return inner(taskset, reexecution, adaptation, *args)

        def evaluations():
            evaluated.clear()
            result = run()
            assert result.success and result.n1_hi == result.n2_hi == 3
            return evaluated

        monkeypatch.setattr(profiles_module, "pfh_lo_killing", counting)
        # The bounds decide line 4; only the reported n2 is evaluated.
        assert evaluations() == [{3}]
        # Bounds that decide nothing: n_HI first, then the scan, and the
        # report reuses the value at n' = 3.
        monkeypatch.setattr(
            profiles_module,
            "pfh_lo_killing_bounds",
            lambda *args: (0.0, float("inf")),
        )
        assert evaluations() == [{3}, {1}, {2}]

    def test_ft_schedule(self, fms, monkeypatch):
        from repro.core.ftmc import ft_schedule

        taskset = self._light_fms(fms)
        self._assert_each_once(
            monkeypatch, lambda: ft_schedule(taskset, EDFVDBackend())
        )

    def test_ft_schedule_partitioned(self, fms, monkeypatch):
        from repro.planner.ftmp import ft_schedule_partitioned

        taskset = self._light_fms(fms)
        self._assert_each_once(
            monkeypatch,
            lambda: ft_schedule_partitioned(taskset, 2, EDFVDBackend()),
        )


class TestTierEquivalence:
    """The NumPy-tier profile searches must agree with the scalar oracle."""

    #: The scalar oracle evaluates eq. (5) point by point in pure Python,
    #: so both tiers search on a 1-hour mission.
    HOURS = 1.0

    def _profile_rows(self, taskset):
        profiles = minimal_reexecution_profiles(taskset)
        if profiles is None:
            return None
        n1_kill = minimal_adaptation_profile(
            taskset, profiles.n_hi, profiles.n_lo, "kill", self.HOURS
        )
        n1_degrade = minimal_adaptation_profile(
            taskset, profiles.n_hi, profiles.n_lo, "degrade", self.HOURS
        )
        n2 = maximal_adaptation_profile(
            taskset, profiles.n_hi, profiles.n_lo, EDFVDBackend()
        )
        return (profiles.n_hi, profiles.n_lo, n1_kill, n1_degrade, n2)

    def _corpus(self):
        import numpy as np

        from repro.gen.taskset import generate_taskset

        sets = []
        for seed, (utilization, lo) in enumerate(
            [(0.6, "C"), (0.85, "C"), (0.85, "D"), (1.0, "C")]
        ):
            rng = np.random.default_rng([97, seed])
            sets.append(
                generate_taskset(
                    utilization,
                    DualCriticalitySpec.from_names("B", lo),
                    rng,
                )
            )
        return sets

    def test_numpy_and_scalar_profiles_agree(self, monkeypatch, fms):
        from repro.analysis import kernels

        if not kernels.numpy_enabled():
            pytest.skip("NumPy kernels disabled")
        corpus = [fms] + self._corpus()
        vectorized = [self._profile_rows(ts) for ts in corpus]
        monkeypatch.setenv(kernels.NO_NUMPY_ENV, "1")
        scalar = [self._profile_rows(ts) for ts in corpus]
        assert vectorized == scalar
        # Not vacuous: the FMS rows carry a line-4 and a line-8 answer.
        assert None not in vectorized[0]

    def test_monotone_precheck_matches_full_scan(self, example31_lo_c):
        """Line 4's n_HI-first bail-out must never change the verdict."""
        # example31_lo_c: killing is unsafe at every n' (FAILURE), the
        # exact case the pre-check answers with one evaluation.
        assert (
            minimal_adaptation_profile(example31_lo_c, 3, 3, "kill", 10.0)
            is None
        )
        # And a scan that succeeds is unaffected by it.
        assert (
            minimal_adaptation_profile(example31_lo_c, 3, 3, "degrade", 10.0)
            == 1
        )
