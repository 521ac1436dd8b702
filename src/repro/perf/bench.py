"""Headless performance benchmarks for the schedulability hot paths.

The suite pits the optimized implementations (NumPy kernels of
:mod:`repro.analysis.kernels` plus the schedulability caching of
:mod:`repro.core.backends`) against the scalar reference paths, in one
process, by toggling ``REPRO_NO_NUMPY`` between measurements — the same
escape hatch users have.  Three kinds of numbers are recorded:

- **kernels**: ns/op of the individual demand-bound primitives
  (``demand_bound_function``, ``dbf_batch``, the PDC, QPA);
- **end_to_end**: wall-clock of ``dbf_mc_analyse``, of a Fig. 3
  acceptance-ratio point / the Fig. 1 sweep — the paths the experiment
  campaigns actually spend their time in — and of a full campaign run
  at ``--jobs 1`` versus ``--jobs 4`` (the worker-pool speedup);
- **speedups**: optimized over reference, with the regression floors of
  :data:`SPEEDUP_FLOORS` enforced by the ``ftmc bench`` exit code.

Timing uses ``time.perf_counter_ns`` with adaptive repetition: each
subject runs until :data:`MIN_TIME_ENV` milliseconds (default 200, quick
mode 40) of cumulative runtime, after one untimed warm-up call.  Every
repetition of both variants builds its own scheduler backends, so each
starts with cold verdict memos and the reported end-to-end numbers show
the *within-call* benefit of caching and vectorization, not a warm cache
artifact.

This module never prints (rule FTMCC04) and writes its artifact through
:func:`repro.io.atomic_write_json` (rule FTMCC05); the CLI renders
:func:`render_report` and maps :func:`run_benchmarks` results to exit
codes.
"""

from __future__ import annotations

import os
import tempfile
import time
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from repro.analysis import kernels
from repro.analysis.dbf_mc import dbf_mc_analyse
from repro.api.server import ApiServer
from repro.api.service import AnalysisService
from repro.api.types import SchedulabilityRequest
from repro.analysis.edf import (
    Workload,
    demand_bound_function,
    edf_processor_demand_test,
    edf_processor_demand_test_reference,
)
from repro.analysis.qpa import qpa_schedulable
from repro.core.backends import make_backend, schedulability_cache_info
from repro.core.conversion import convert_uniform
from repro.experiments.fig3 import (
    FIG3_PANELS,
    accept_in_paper_order,
    fig3_point,
    fig3_point_tasksets,
)
from repro.gen.taskset import PAPER_CONFIG, GeneratorConfig, generate_taskset
from repro.io import atomic_write_json
from repro.model.criticality import DualCriticalitySpec
from repro.planner import DEFAULT_MAX_NODES, PlanOptions, plan_partition
from repro.runner import run_campaign, run_inline

__all__ = [
    "MIN_TIME_ENV",
    "PLAN_FLOORS",
    "QPS_FLOORS",
    "SCHEMA",
    "SPEEDUP_FLOORS",
    "check_report",
    "render_report",
    "run_benchmarks",
    "write_report",
]

#: Report format identifier embedded in every artifact.
SCHEMA: str = "ftmc-bench/1"

#: Environment override for the per-subject measurement budget (ms).
#: Tests set it to a tiny value so the smoke run stays fast.
MIN_TIME_ENV: str = "FTMC_BENCH_MIN_TIME_MS"

#: Regression floors on the optimized/reference speedups.  ``ftmc bench``
#: exits 1 when a measured speedup falls below its floor (only when the
#: NumPy kernels are available — without them there is nothing to guard).
SPEEDUP_FLOORS: dict[str, float] = {
    "dbf_mc_analyse": 3.0,
    "fig3_point": 2.0,
    "campaign_jobs4": 2.0,
}

#: Throughput floors (queries/second) on the ``repro.api`` facade under
#: a warm verdict cache — the load a resident ``ftmc serve`` process is
#: expected to sustain.  Deliberately conservative: a warm verdict is a
#: dict lookup plus request plumbing, so dropping below the floor means
#: the facade grew a per-request cost, not that the machine is slow.
#: Guarded by the same ``ftmc bench`` exit code as the speedup floors.
QPS_FLOORS: dict[str, float] = {
    "api_schedulability_warm": 2000.0,
}

#: Throughput floor (plans/second) on the heuristic planning portfolio
#: against a *cold* verdict cache — the configuration every campaign
#: shard and ``ftmc plan`` invocation pays.  The exact branch-and-bound
#: is reported alongside but not guarded: its node count (and therefore
#: its runtime) depends on how adversarial the instance is, which is a
#: property of the workload, not a regression.  Guarded by the same
#: ``ftmc bench`` exit code as the other floors.
PLAN_FLOORS: dict[str, float] = {
    "plan_portfolio": 20.0,
}


def _min_time_ns(quick: bool) -> int:
    override = os.environ.get(MIN_TIME_ENV, "")
    if override:
        return max(int(float(override) * 1e6), 1)
    return int((40 if quick else 200) * 1e6)


def _measure(fn: Callable[[], object], budget_ns: int) -> dict:
    """Adaptive timing: repeat ``fn`` until the budget is consumed."""
    fn()  # warm-up: imports, allocator, branch caches
    ops = 0
    elapsed = 0
    while elapsed < budget_ns:
        start = time.perf_counter_ns()
        fn()
        elapsed += time.perf_counter_ns() - start
        ops += 1
    return {
        "ns_per_op": elapsed / ops,
        "ops": ops,
        "total_ms": elapsed / 1e6,
    }


@contextmanager
def _scalar_reference() -> Iterator[None]:
    """Force the scalar reference paths for the duration of the block."""
    previous = os.environ.get(kernels.NO_NUMPY_ENV)
    os.environ[kernels.NO_NUMPY_ENV] = "1"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[kernels.NO_NUMPY_ENV]
        else:
            os.environ[kernels.NO_NUMPY_ENV] = previous


def _bench_pair(
    fn: Callable[[], object], budget_ns: int
) -> tuple[dict, dict]:
    """Measure ``fn`` optimized and on the scalar reference path."""
    optimized = _measure(fn, budget_ns)
    with _scalar_reference():
        reference = _measure(fn, budget_ns)
    return optimized, reference


#: Many small-utilization tasks, half of them HI — the regime where the
#: scalar per-task loops hurt most and the vectorized QPA/PDC kernels pay
#: off.  (Paper-config sets at moderate utilization have ~5 tasks, where
#: array dispatch overhead hides the kernels' benefit.)
_MC_CORPUS_CONFIG = GeneratorConfig(u_min=0.004, u_max=0.02, p_hi=0.5)


def _corpus_workload(seed: int, utilization: float) -> list[Workload]:
    """A deterministic constrained-deadline workload for the PDC/QPA."""
    gen = np.random.default_rng(seed)
    spec = DualCriticalitySpec.from_names("B", "C")
    taskset = generate_taskset(
        utilization, spec, gen, config=_MC_CORPUS_CONFIG
    )
    # Constrain the deadlines but keep the utilization at the target —
    # an infeasible workload would be rejected by the utilization bound
    # before either sweep runs.
    return [Workload(t.period, 0.8 * t.period, t.wcet) for t in taskset]


def _corpus_mc(seed: int, utilization: float):
    """A deterministic converted MC set exercising ``dbf_mc_analyse``."""
    gen = np.random.default_rng(seed)
    spec = DualCriticalitySpec.from_names("B", "C")
    taskset = generate_taskset(utilization, spec, gen, config=_MC_CORPUS_CONFIG)
    # n_lo = n' = 1 keeps the converted LO utilization equal to the target
    # (higher settings double it past 1 and the scan rejects immediately,
    # measuring nothing but setup overhead).
    return convert_uniform(taskset, n_hi=2, n_lo=1, n_prime_hi=1)


def run_benchmarks(quick: bool = False, seed: int = 0) -> dict:
    """Run the full suite and return the report dictionary.

    ``quick`` shrinks the measurement budget and the end-to-end problem
    sizes (the CI smoke configuration); the schema is identical.
    """
    budget = _min_time_ns(quick)
    numpy_active = kernels.numpy_enabled()
    report: dict = {
        "schema": SCHEMA,
        "date": time.strftime("%Y-%m-%d"),
        "quick": quick,
        "seed": seed,
        "numpy": numpy_active,
        "budget_ms_per_subject": budget / 1e6,
        "kernels": {},
        "end_to_end": {},
        "speedups": {},
    }

    # --- kernel microbenchmarks -----------------------------------------
    workload = _corpus_workload(seed, utilization=0.85)
    horizon = max(w.deadline for w in workload) * 8.0
    instants = np.linspace(1.0, horizon, 4096)
    mid_t = float(instants[len(instants) // 2])

    report["kernels"]["demand_bound_function"] = _measure(
        lambda: demand_bound_function(workload, mid_t), budget
    )
    if numpy_active:
        arrays = kernels.workload_arrays(workload)
        batch = _measure(
            lambda: kernels.dbf_batch(*arrays, instants), budget
        )
        batch["ns_per_point"] = batch["ns_per_op"] / len(instants)
        report["kernels"]["dbf_batch"] = batch

    pdc_opt = _measure(lambda: edf_processor_demand_test(workload), budget)
    pdc_ref = _measure(
        lambda: edf_processor_demand_test_reference(workload), budget
    )
    report["kernels"]["pdc"] = pdc_opt
    report["kernels"]["pdc_reference"] = pdc_ref
    report["speedups"]["pdc"] = pdc_ref["ns_per_op"] / pdc_opt["ns_per_op"]
    report["kernels"]["qpa"] = _measure(
        lambda: qpa_schedulable(workload), budget
    )

    # --- end-to-end: the dbf-mc backend ---------------------------------
    mc = _corpus_mc(seed + 1, utilization=0.6)
    opt, ref = _bench_pair(lambda: dbf_mc_analyse(mc), budget)
    report["end_to_end"]["dbf_mc_analyse"] = opt
    report["end_to_end"]["dbf_mc_analyse_reference"] = ref
    report["speedups"]["dbf_mc_analyse"] = (
        ref["ns_per_op"] / opt["ns_per_op"]
    )

    # --- end-to-end: one Fig. 3 acceptance-ratio point ------------------
    # The reference draws the same sets and answers them in paper order
    # (the full ft_schedule per set, its oracle) on the scalar tier.
    sets = 4 if quick else 16
    point_args = (FIG3_PANELS["b"], 1e-5, 9, 0.85, sets, seed)

    def point() -> tuple:
        return fig3_point(*point_args)

    def point_in_paper_order() -> list:
        return [
            accept_in_paper_order(taskset, FIG3_PANELS["b"].mechanism)
            for taskset in fig3_point_tasksets(*point_args)
        ]

    opt = _measure(point, budget)
    with _scalar_reference():
        ref = _measure(point_in_paper_order, budget)
    report["end_to_end"]["fig3_point"] = {**opt, "sets_per_point": sets}
    report["end_to_end"]["fig3_point_reference"] = {
        **ref,
        "sets_per_point": sets,
    }
    report["speedups"]["fig3_point"] = ref["ns_per_op"] / opt["ns_per_op"]

    # --- end-to-end: the Fig. 1 sweep (optimized only; it is dominated
    # by the safety bounds, not the kernels, and serves as a regression
    # canary for the whole pipeline rather than a speedup subject) -------
    report["end_to_end"]["fig1_sweep"] = _measure(
        lambda: run_inline("fig1"), budget
    )

    # --- end-to-end: the campaign runner's worker pool ------------------
    # A single timed run per pool width (the adaptive loop would rerun a
    # multi-second campaign many times over).  The per-worker shard delay
    # makes the shards' wall-clock dominate fork/checkpoint overhead, so
    # the ratio isolates the pool's concurrency win; results are
    # byte-identical across jobs, which run_campaign's own tests pin.
    delay = 0.1 if quick else 0.25

    def timed_campaign(jobs: int) -> int:
        with tempfile.TemporaryDirectory() as tmp:
            start = time.perf_counter_ns()
            run_campaign("tables", output_dir=tmp, jobs=jobs, shard_delay=delay)
            return time.perf_counter_ns() - start

    serial_ns = timed_campaign(1)
    pool_ns = timed_campaign(4)
    report["end_to_end"]["campaign_jobs1"] = {
        "ns_per_op": float(serial_ns),
        "ops": 1,
        "total_ms": serial_ns / 1e6,
        "shard_delay_s": delay,
    }
    report["end_to_end"]["campaign_jobs4"] = {
        "ns_per_op": float(pool_ns),
        "ops": 1,
        "total_ms": pool_ns / 1e6,
        "shard_delay_s": delay,
    }
    report["speedups"]["campaign_jobs4"] = serial_ns / pool_ns

    # --- the repro.api facade + ftmc serve front-end --------------------
    report["api"] = _bench_api(seed + 2, budget)

    # --- the partitioned planner (repro.planner) ------------------------
    report["plan"] = _bench_plan(seed + 3, budget)

    report["cache"] = schedulability_cache_info()
    if numpy_active:
        failures: dict[str, dict] = {
            name: {"speedup": report["speedups"][name], "floor": floor}
            for name, floor in SPEEDUP_FLOORS.items()
            if report["speedups"][name] < floor
        }
        for name, floor in QPS_FLOORS.items():
            qps = report["api"][name]["qps"]
            if qps < floor:
                failures[name] = {"qps": qps, "floor_qps": floor}
        for name, floor in PLAN_FLOORS.items():
            qps = report["plan"][name]["qps"]
            if qps < floor:
                failures[name] = {"qps": qps, "floor_qps": floor}
        report["guard"] = {"passed": not failures, "failures": failures}
    else:
        report["guard"] = {"passed": None, "failures": {}}
    return report


def _bench_api(seed: int, budget_ns: int) -> dict:
    """Facade and HTTP round-trip load numbers for ``ftmc serve``.

    Both subjects run against a *warm* verdict memo (the service's pooled
    backend) — the steady state of a resident server — so they price the
    facade plumbing (request objects, spans, dispatch; plus socket + JSON
    framing for the HTTP row), not the schedulability analysis itself.  Only the in-process
    row is floor-guarded (:data:`QPS_FLOORS`): loopback socket latency
    varies across machines in a way the facade's own overhead does not.
    """
    gen = np.random.default_rng(seed)
    spec = DualCriticalitySpec.from_names("B", "C")
    taskset = generate_taskset(0.6, spec, gen, config=_MC_CORPUS_CONFIG)
    request = SchedulabilityRequest(taskset=taskset, n_hi=2, n_lo=1,
                                    n_prime_hi=1)
    service = AnalysisService()
    section: dict = {}

    # Prime the memo of the service's pooled backend: the subject is the
    # *warm* steady state, and under the tiny CI measurement budgets the
    # single cold miss would otherwise dominate the mean.
    service.schedulability(request)
    entry = _measure(lambda: service.schedulability(request), budget_ns)
    entry["qps"] = 1e9 / entry["ns_per_op"]
    section["api_schedulability_warm"] = entry

    import http.client
    import json as _json

    from repro.io import taskset_to_dict

    body = _json.dumps(
        {"taskset": taskset_to_dict(taskset), "n_hi": 2, "n_lo": 1,
         "n_prime_hi": 1}
    ).encode("utf-8")
    with ApiServer(service=service) as server:
        conn = http.client.HTTPConnection(server.host, server.port)

        def round_trip() -> None:
            conn.request(
                "POST", "/v1/schedulability", body,
                {"Content-Type": "application/json"},
            )
            conn.getresponse().read()

        try:
            entry = _measure(round_trip, budget_ns)
        finally:
            conn.close()
    entry["qps"] = 1e9 / entry["ns_per_op"]
    section["serve_schedulability_http"] = entry
    return section


def _bench_plan(seed: int, budget_ns: int) -> dict:
    """Partitioned-planner throughput on a paper-config two-core instance.

    Both subjects run against a *cold* verdict memo (each repetition
    builds its own backend) because that is how the planner is actually
    used: campaign shards and ``ftmc plan`` invocations each see fresh
    task sets.  ``plan_portfolio`` prices the heuristic packing portfolio
    alone (the floor-guarded production path); ``plan_exact`` adds the
    branch-and-bound confirmation pass and is reported unguarded — its
    cost tracks the instance's node count, not the code's efficiency.
    """
    gen = np.random.default_rng(seed)
    spec = DualCriticalitySpec.from_names("B", "D")
    taskset = generate_taskset(1.4, spec, gen, config=PAPER_CONFIG)
    mc = convert_uniform(taskset, n_hi=1, n_lo=1, n_prime_hi=1)
    section: dict = {}

    portfolio_only = PlanOptions(exact=False)
    entry = _measure(
        lambda: plan_partition(mc, 2, make_backend("edf-vd"), portfolio_only),
        budget_ns,
    )
    entry["qps"] = 1e9 / entry["ns_per_op"]
    section["plan_portfolio"] = entry

    with_exact = PlanOptions(exact=True, max_nodes=DEFAULT_MAX_NODES)
    entry = _measure(
        lambda: plan_partition(mc, 2, make_backend("edf-vd"), with_exact),
        budget_ns,
    )
    entry["qps"] = 1e9 / entry["ns_per_op"]
    section["plan_exact"] = entry
    return section


def write_report(report: dict, output_dir: str) -> str:
    """Persist ``report`` as ``<output_dir>/BENCH_<date>.json``."""
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, f"BENCH_{report['date']}.json")
    atomic_write_json(path, report)
    return path


def _is_number(value: object) -> bool:
    """Strictly numeric (``bool`` is an ``int`` but not a measurement)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_report(report: object) -> list[str]:
    """Offline validation of a bench artifact (``ftmc bench --check``).

    Returns problem strings; empty means the report is well-formed and
    every committed floor holds.  Every row of every section must carry a
    numeric ``ns_per_op`` — malformed rows (truncated artifacts,
    hand-edited baselines, schema drift) are reported individually
    instead of raising ``KeyError`` or silently passing.  Floors are only
    enforced for reports measured with the NumPy kernels active, matching
    the live guard in :func:`run_benchmarks`.
    """
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    problems: list[str] = []
    schema = report.get("schema")
    if schema != SCHEMA:
        problems.append(
            f"unrecognised schema {schema!r} (expected {SCHEMA!r})"
        )
    for section in ("kernels", "end_to_end", "api", "plan"):
        rows = report.get(section)
        if rows is None:
            continue
        if not isinstance(rows, dict):
            problems.append(f"section {section!r} is not an object")
            continue
        for name, entry in sorted(rows.items()):
            if not isinstance(entry, dict) or not _is_number(
                entry.get("ns_per_op")
            ):
                problems.append(
                    f"{section}.{name}: missing or non-numeric ns_per_op"
                )
    speedups = report.get("speedups")
    if not isinstance(speedups, dict):
        problems.append("section 'speedups' is missing or not an object")
        speedups = {}
    if report.get("numpy"):
        for name, floor in sorted(SPEEDUP_FLOORS.items()):
            value = speedups.get(name)
            if not _is_number(value):
                problems.append(
                    f"speedups.{name}: missing or non-numeric speedup"
                )
            elif value < floor:
                problems.append(
                    f"speedups.{name}: {value:.2f}x below floor {floor:g}x"
                )
        for section, floors in (("api", QPS_FLOORS), ("plan", PLAN_FLOORS)):
            rows = report.get(section)
            rows = rows if isinstance(rows, dict) else {}
            for name, floor in sorted(floors.items()):
                entry = rows.get(name)
                qps = entry.get("qps") if isinstance(entry, dict) else None
                if not _is_number(qps):
                    problems.append(
                        f"{section}.{name}: missing or non-numeric qps"
                    )
                elif qps < floor:
                    problems.append(
                        f"{section}.{name}: {qps:.0f} qps below floor "
                        f"{floor:g} qps"
                    )
    return problems


def render_report(report: dict) -> str:
    """Human-readable summary of a benchmark report."""
    lines = [
        f"ftmc bench — {report['date']}"
        f"{' (quick)' if report['quick'] else ''}"
        f" — numpy kernels {'on' if report['numpy'] else 'OFF'}",
        "",
        f"{'subject':<28}{'ns/op':>14}{'ops':>8}",
        "-" * 50,
    ]
    for section in ("kernels", "end_to_end", "api", "plan"):
        for name, entry in report.get(section, {}).items():
            lines.append(
                f"{name:<28}{entry['ns_per_op']:>14.0f}{entry['ops']:>8}"
            )
    lines.append("")
    for section, floors in (("api", QPS_FLOORS), ("plan", PLAN_FLOORS)):
        for name, entry in report.get(section, {}).items():
            floor = floors.get(name)
            suffix = f" (floor {floor:g} qps)" if floor is not None else ""
            lines.append(
                f"throughput {name}: {entry['qps']:.0f} qps{suffix}"
            )
    for name, value in report["speedups"].items():
        floor = SPEEDUP_FLOORS.get(name)
        suffix = f" (floor {floor:g}x)" if floor is not None else ""
        lines.append(f"speedup {name}: {value:.2f}x{suffix}")
    guard = report["guard"]
    if guard["passed"] is None:
        lines.append("perf guard: skipped (NumPy kernels unavailable)")
    elif guard["passed"]:
        lines.append("perf guard: PASS")
    else:
        lines.append(f"perf guard: FAIL {sorted(guard['failures'])}")
    return "\n".join(lines)
