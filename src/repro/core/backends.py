"""Pluggable mixed-criticality scheduler backends for FT-S.

Theorem 4.1 makes FT-S (Algorithm 1) generic over the conventional
mixed-criticality scheduling technique ``S``; the only obligations on a
backend are:

- a schedulability test over converted task sets (Lemma 4.1), and
- monotonicity in the adaptation profile: decreasing ``n'_HI`` (adapting
  *earlier*) preserves schedulability — true for every utilization- or
  response-time-based test shipped here, since ``C(LO)`` budgets shrink.

Backends also declare their adaptation *mechanism* (``"kill"`` vs.
``"degrade"``), which selects the matching LO-safety bound (eq. 5 vs.
eq. 7) inside FT-S, and expose the paper's ``U_MC`` load metric when one
is defined (Algorithm 2 line 11 / eq. 11) for Figs. 1-2.
"""

from __future__ import annotations

import abc
import math

from typing import Iterator, Sequence

from repro.analysis.amc import amc_rtb_schedulable
from repro.analysis.amc_max import amc_max_schedulable
from repro.analysis.dbf_mc import dbf_mc_schedulable
from repro.analysis.smc import smc_schedulable
from repro.analysis.edf_vd import (
    edf_vd_loads,
    edf_vd_schedulable,
    edf_vd_utilization,
    edf_vd_x,
)
from repro.analysis.edf_vd_degradation import (
    edf_vd_degradation_schedulable,
    edf_vd_degradation_utilization,
)
from repro.analysis.edf import schedulable_without_adaptation
from repro.analysis.tolerance import utilization_exceeds
from repro.core.conversion import check_uniform_series
from repro.model.criticality import CriticalityRole
from repro.model.faults import ReexecutionProfile
from repro.model.mc_task import MCTaskSet
from repro.model.task import TaskSet
from repro.obs import metrics as obs_metrics

__all__ = [
    "SchedulerBackend",
    "EDFVDBackend",
    "EDFVDDegradationBackend",
    "AMCBackend",
    "AMCMaxBackend",
    "DbfMCBackend",
    "SMCBackend",
    "DEFAULT_DEGRADATION_FACTOR",
    "backend_names",
    "make_backend",
    "clear_schedulability_cache",
    "schedulability_cache_info",
    "baseline_schedulable_series",
]


#: Bound on one backend's verdict memo.  A full memo is dropped whole, with
#: no recency bookkeeping: the bound only has to hold a long-lived backend
#: (one pooled by :class:`~repro.api.AnalysisService`) to finite memory,
#: and a hit costs one dict lookup.
_CACHE_LIMIT: int = 65536
#: Hits and misses over every backend's memo, for diagnostics only.
_cache_hits: int = 0
_cache_misses: int = 0


def clear_schedulability_cache() -> None:
    """Reset the counters of :func:`schedulability_cache_info`.

    The verdicts themselves live on the backend instances that computed
    them; a fresh backend starts with an empty memo.
    """
    global _cache_hits, _cache_misses
    _cache_hits = 0
    _cache_misses = 0


def schedulability_cache_info() -> dict[str, int]:
    """Hits and misses summed over every backend's verdict memo."""
    return {"hits": _cache_hits, "misses": _cache_misses}


def baseline_schedulable_series(
    tasksets: Sequence[TaskSet], reexecutions: Sequence[ReexecutionProfile]
) -> list[bool]:
    """The paper's no-adaptation baseline over a sweep's sets, per set.

    :func:`~repro.analysis.edf.schedulable_without_adaptation` for each
    ``(taskset, reexecution)`` pair, under the name the Fig. 3 sweeps'
    traced replays import.  Its verdicts are not memoized: a sweep never
    asks for the same inflated workload twice.
    """
    return [
        schedulable_without_adaptation(taskset, reexecution)
        for taskset, reexecution in zip(tasksets, reexecutions)
    ]


class SchedulerBackend(abc.ABC):
    """A conventional MC scheduling technique pluggable into FT-S."""

    #: Human-readable backend identifier.
    name: str = "abstract"
    #: ``"kill"`` or ``"degrade"`` — the fate of LO tasks after the switch.
    mechanism: str = "kill"

    def __init__(self) -> None:
        #: Verdicts of :meth:`is_schedulable_cached`, by ``mc.cache_key()``.
        self._verdicts: dict[tuple, bool] = {}

    @abc.abstractmethod
    def is_schedulable(self, mc: MCTaskSet) -> bool:
        """Sufficient schedulability test for the converted task set."""

    def is_schedulable_cached(self, mc: MCTaskSet) -> bool:
        """:meth:`is_schedulable` through this backend's own verdict memo.

        Keyed by ``mc.cache_key()`` alone: an instance determines its test,
        and backends are referentially transparent in the task parameters
        (task *names* are deliberately not part of the key).  The callers
        that repeat questions hold one backend for as long as they repeat
        them — one planner run, or one pooled backend of an
        :class:`~repro.api.AnalysisService` across requests.  Concurrent
        requests may share an instance, so the memo is touched only by
        plain dict ``get`` and item assignment; a full memo is dropped
        whole (:data:`_CACHE_LIMIT`).
        """
        global _cache_hits, _cache_misses
        key = mc.cache_key()
        verdict = self._verdicts.get(key)
        if verdict is not None:
            _cache_hits += 1
            obs_metrics.inc("core.sched_cache.hits")
            return verdict
        _cache_misses += 1
        obs_metrics.inc("core.sched_cache.misses")
        verdict = self.is_schedulable(mc)
        if len(self._verdicts) >= _CACHE_LIMIT:
            self._verdicts.clear()
        self._verdicts[key] = verdict
        return verdict

    def schedulable_uniform_series(
        self,
        taskset: TaskSet,
        n_hi: int,
        n_lo: int,
        n_primes: Sequence[int],
    ) -> Iterator[bool] | None:
        """Verdicts ``Gamma(n_hi, n_lo, n')`` for each ``n'``, analytically.

        Series hook for line 8 of Algorithm 1: backends whose test is
        a closed-form function of the criticality utilizations can verdict
        a candidate series without materialising the converted
        :class:`~repro.model.mc_task.MCTaskSet` objects.  Implementations
        validate their inputs up front — raising the same validation
        errors as the conversion would — and then yield, lazily and in
        ``n_primes`` order, verdicts *bit-identical* to
        ``is_schedulable(convert_uniform(...))`` per candidate, so a scan
        that stops at its first schedulable ``n'`` computes nothing more.
        The verdicts bypass the memo: each costs less than its key.

        The base implementation returns ``None`` ("no fast path"), which
        makes :func:`repro.core.profiles.maximal_adaptation_profile` fall
        back to the conversion-based scan.
        """
        return None

    def utilization_metric(self, mc: MCTaskSet) -> float:
        """``U_MC`` when the backend defines one; ``nan`` otherwise.

        The paper cautions (Section 5.1) that ``U_MC`` values are not
        comparable across backends with different analyses.
        """
        return math.nan

    @property
    def degradation_factor(self) -> float | None:
        """``df`` for degrade backends, ``None`` for kill backends."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


def _edf_vd_uniform_series(
    taskset: TaskSet,
    n_hi: int,
    n_lo: int,
    n_primes: Sequence[int],
    degradation_factor: float | None,
) -> Iterator[bool]:
    """Analytic uniform-series verdicts for the EDF-VD family.

    Mirrors, expression by expression, the composition of
    :func:`repro.core.conversion.convert_uniform_series` with
    :func:`repro.analysis.edf_vd.analyse` (``degradation_factor is None``)
    or :func:`repro.analysis.edf_vd_degradation.analyse`: the converted
    budgets are ``n' * C`` / ``n_hi * C`` for HI tasks and ``n_lo * C``
    for LO tasks, so the criticality utilizations are plain Python sums of
    ``(n * wcet) / period`` in task order — evaluated here with the same
    float operations in the same order as the materialised path, and both
    take their loads from :func:`~repro.analysis.edf_vd.edf_vd_loads`,
    making the verdicts bit-identical.  Each task's ``(C, T)`` is read
    once; ``U_LO^LO`` and ``U_HI^HI`` are candidate-independent and
    hoisted out of the scan; only ``U_HI^LO`` is recomputed, per
    candidate, as the returned iterator is consumed.
    """
    n_primes = list(n_primes)
    if not n_primes:
        return iter(())
    check_uniform_series(taskset, n_hi, n_lo, n_primes)
    hi: list[tuple[float, float]] = []
    lo: list[tuple[float, float]] = []
    for t in taskset:
        # analyse() would reject the first converted candidate; fail up
        # front.
        if not math.isclose(t.deadline, t.period):
            raise ValueError("EDF-VD analysis requires implicit deadlines")
        (hi if t.criticality is CriticalityRole.HI else lo).append(
            (t.wcet, t.period)
        )
    u_lo_lo = sum((n_lo * wcet) / period for wcet, period in lo)
    u_hi_hi = sum((n_hi * wcet) / period for wcet, period in hi)

    def verdict_at(n_prime: int) -> bool:
        u_hi_lo = sum((n_prime * wcet) / period for wcet, period in hi)
        lo_mode, hi_mode, _ = edf_vd_loads(
            u_hi_lo, u_hi_hi, u_lo_lo, degradation_factor
        )
        return not utilization_exceeds(max(lo_mode, hi_mode))

    return map(verdict_at, n_primes)


class EDFVDBackend(SchedulerBackend):
    """EDF-VD with task killing [Baruah et al. 2012] — Appendix B.0.1.

    The backend used by Algorithm 2 of the paper; schedulability is the
    utilization test of eq. (10).
    """

    name = "edf-vd"
    mechanism = "kill"

    def is_schedulable(self, mc: MCTaskSet) -> bool:
        return edf_vd_schedulable(mc)

    def schedulable_uniform_series(
        self,
        taskset: TaskSet,
        n_hi: int,
        n_lo: int,
        n_primes: Sequence[int],
    ) -> Iterator[bool]:
        return _edf_vd_uniform_series(taskset, n_hi, n_lo, n_primes, None)

    def utilization_metric(self, mc: MCTaskSet) -> float:
        return edf_vd_utilization(mc)

    def virtual_deadline_factor(self, mc: MCTaskSet) -> float | None:
        """Runtime parameter ``x`` for the simulator (``None`` if unschedulable)."""
        return edf_vd_x(mc)


class EDFVDDegradationBackend(SchedulerBackend):
    """EDF-VD with service degradation [Huang et al. 2014] — Appendix B.0.2.

    Schedulability is the test of eq. (12); the LO tasks survive the mode
    switch with periods stretched by ``df``.
    """

    name = "edf-vd-degradation"
    mechanism = "degrade"

    def __init__(self, degradation_factor: float) -> None:
        if degradation_factor <= 1.0:
            raise ValueError(
                f"degradation factor must be > 1, got {degradation_factor}"
            )
        super().__init__()
        self._df = degradation_factor
        self.name = f"edf-vd-degradation(df={degradation_factor:g})"

    @property
    def degradation_factor(self) -> float:
        return self._df

    def is_schedulable(self, mc: MCTaskSet) -> bool:
        return edf_vd_degradation_schedulable(mc, self._df)

    def utilization_metric(self, mc: MCTaskSet) -> float:
        return edf_vd_degradation_utilization(mc, self._df)

    def schedulable_uniform_series(
        self,
        taskset: TaskSet,
        n_hi: int,
        n_lo: int,
        n_primes: Sequence[int],
    ) -> Iterator[bool]:
        return _edf_vd_uniform_series(taskset, n_hi, n_lo, n_primes, self._df)


class AMCBackend(SchedulerBackend):
    """Fixed-priority AMC-rtb with Audsley assignment (library extension).

    Demonstrates the generality claim of Theorem 4.1 with a
    response-time-based backend; requires constrained deadlines.
    """

    name = "amc-rtb"
    mechanism = "kill"

    def is_schedulable(self, mc: MCTaskSet) -> bool:
        return amc_rtb_schedulable(mc)


class DbfMCBackend(SchedulerBackend):
    """Demand-bound-function dual-criticality EDF (library extension).

    A simplified Ekberg-Yi-style test (see
    :mod:`repro.analysis.dbf_mc`); third demonstration of Theorem 4.1's
    backend generality and the subject of the backend-ablation benchmark.
    """

    name = "dbf-mc"
    mechanism = "kill"

    def is_schedulable(self, mc: MCTaskSet) -> bool:
        return dbf_mc_schedulable(mc)


class SMCBackend(SchedulerBackend):
    """Vestal's Static Mixed Criticality fixed-priority test (extension).

    The weakest fixed-priority MC test (AMC dominates it); included to
    complete the backend-ablation spectrum.
    """

    name = "smc"
    mechanism = "kill"

    def is_schedulable(self, mc: MCTaskSet) -> bool:
        return smc_schedulable(mc)


class AMCMaxBackend(SchedulerBackend):
    """AMC-max: the precise adaptive fixed-priority test (extension).

    Dominates :class:`AMCBackend` (AMC-rtb) at a higher analysis cost —
    it maximises the HI-mode response time over candidate mode-switch
    instants.
    """

    name = "amc-max"
    mechanism = "kill"

    def is_schedulable(self, mc: MCTaskSet) -> bool:
        return amc_max_schedulable(mc)


# -- registry ------------------------------------------------------------------

#: Default ``df`` when a degrade backend is requested without one; matches
#: the ``ftmc analyze`` default.
DEFAULT_DEGRADATION_FACTOR: float = 6.0

_BACKEND_FACTORIES = {
    "edf-vd": lambda df: EDFVDBackend(),
    "edf-vd-degradation": lambda df: EDFVDDegradationBackend(
        DEFAULT_DEGRADATION_FACTOR if df is None else df
    ),
    "amc-rtb": lambda df: AMCBackend(),
    "amc-max": lambda df: AMCMaxBackend(),
    "smc": lambda df: SMCBackend(),
    "dbf-mc": lambda df: DbfMCBackend(),
}


def backend_names() -> list[str]:
    """The selectable backend registry names, sorted."""
    return sorted(_BACKEND_FACTORIES)


def make_backend(
    name: str, degradation_factor: float | None = None
) -> SchedulerBackend:
    """Instantiate a backend by its registry name.

    ``degradation_factor`` applies to degrade backends (default
    :data:`DEFAULT_DEGRADATION_FACTOR`) and is rejected for kill backends
    rather than silently ignored.  Raises :class:`ValueError` on unknown
    names or invalid parameters; the API facade maps those to structured
    400s (:func:`repro.api.service.make_backend`).
    """
    factory = _BACKEND_FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown backend {name!r}; one of: {', '.join(backend_names())}"
        )
    if degradation_factor is not None and name != "edf-vd-degradation":
        raise ValueError(
            f"backend {name!r} does not take a degradation factor"
        )
    return factory(degradation_factor)
