"""Command-line interface: ``ftmc <verb>`` / ``python -m repro``.

Regenerates any table or figure of the paper from the terminal::

    ftmc table1            # DO-178B requirements
    ftmc table2            # Example 3.1
    ftmc table3            # Example 4.1 conversion
    ftmc table4            # FMS instance
    ftmc fig1              # FMS task-killing sweep (+ ASCII chart)
    ftmc fig2              # FMS degradation sweep (+ ASCII chart)
    ftmc fig3 --panels a b --sets 100   # acceptance-ratio curves
    ftmc all --sets 50     # everything, CSVs into --output-dir

CSV files are written when ``--output-dir`` is given.  The table and
figure verbs and ``ftmc validate`` run the campaign definitions of
``ftmc campaign`` in this process (``repro.runner.run_inline``): one
implementation of each experiment, and the same result bytes either
way.

Every verb has its own parser and accepts only the flags it reads
(``ftmc <verb> --help``); any other flag is a usage error, exit 2.  A
flag left out is not passed on, so each default lives in one place: the
function or request type the verb calls (each campaign's
``default_options()``, ``AnalyzeRequest``, ...).  Counts (``--sets``,
``--jobs``, ``--max-retries``) and durations are checked as they are
parsed.

Static analysis (see ``docs/lint.md`` for the rule catalog)::

    ftmc lint system.json            # diagnose a task-set document
    ftmc lint system.json --format json --strict
    ftmc selfcheck                   # AST self-analysis of src/repro

Exit codes for ``lint``/``selfcheck``: 0 clean, 1 errors, 2 warnings
present under ``--strict``.  Malformed or missing input files yield a
one-line diagnostic and a nonzero exit, never a traceback.

Fault-tolerant campaigns (see ``docs/robustness.md``)::

    ftmc campaign fig2                   # sharded, checkpointed run
    ftmc campaign fig2 --jobs 4          # same results, 4 workers at once
    ftmc campaign fig2 --resume          # continue after a crash/kill
    ftmc campaign fig1 --chaos 42        # self-test under fault injection
    ftmc campaign fig3 --timeout 600 --max-retries 4 --sets 100

Campaign exit codes: 0 all shards completed, 3 completed degraded
(some shards failed; coverage report says which), 130/143 interrupted
by SIGINT/SIGTERM (checkpoint retained — rerun with ``--resume``),
2 unusable configuration.

Observability (see ``docs/observability.md``)::

    ftmc campaign fig1 --trace run.jsonl   # record spans/metrics JSONL
    ftmc stats run.jsonl                   # aggregate a recorded trace
    ftmc stats run.jsonl --format json
    ftmc stats --check run.jsonl           # schema validation (0 ok, 2 bad)
    ftmc stats                             # live process registry snapshot

``--trace`` works with every verb; ``stats`` exits 0 on success and 2
on unreadable or schema-invalid traces.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.results import ExperimentResult
    from repro.model.task import TaskSet

__all__ = ["main"]


def _at_least(convert: Callable[[str], Any], minimum: float, strict: bool = False):
    """An ``argparse`` type: ``convert(text)``, at least (or above) ``minimum``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}"
            ) from None
        if not (value > minimum if strict else value >= minimum):
            bound = ">" if strict else ">="
            raise argparse.ArgumentTypeError(
                f"must be {bound} {minimum:g}, got {text}"
            )
        return value

    return parse


_POSITIVE_INT = _at_least(int, 1)
_NON_NEGATIVE_INT = _at_least(int, 0)
_POSITIVE_SECONDS = _at_least(float, 0, strict=True)
_NON_NEGATIVE_SECONDS = _at_least(float, 0)


def _given(args: argparse.Namespace, *names: str) -> dict[str, Any]:
    """The flags among ``names`` that were passed on the command line.

    Library-bound flags default to ``argparse.SUPPRESS``, so a flag left
    out is absent here and the called function keeps its own default.
    """
    return {name: getattr(args, name) for name in names if name in args}


def _emit(result: ExperimentResult, output_dir: str | None, chart: str = "") -> None:
    print(result.render())
    if chart:
        print()
        print(chart)
    print()
    if output_dir:
        os.makedirs(output_dir, exist_ok=True)
        path = os.path.join(output_dir, f"{result.name}.csv")
        result.to_csv(path)
        print(f"wrote {path}")


def _fail(message: str) -> int:
    """One-line diagnostic on stderr; the CLI never shows a traceback."""
    print(f"ftmc: error: {message}", file=sys.stderr)
    return 2


def _load_system(path: str) -> TaskSet | None:
    """The task set in ``path``, or ``None`` once :func:`_fail` said why not."""
    import json

    from repro.io import load_taskset

    try:
        return load_taskset(path)
    except OSError as exc:
        _fail(f"cannot read {path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        _fail(
            f"{path} is not valid JSON: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})"
        )
    except (ValueError, TypeError, KeyError) as exc:
        _fail(f"{path}: {exc}")
    return None


def _options(experiment: str, args: argparse.Namespace) -> dict[str, Any]:
    """``experiment``'s campaign options with the flags given in ``args``;
    ``ValueError`` for a flag it does not read."""
    from repro.runner.campaigns import build_options

    return build_options(
        experiment,
        sets=getattr(args, "sets_per_point", None),
        **_given(args, "seed", "panels", "failure_probabilities", "utilizations"),
    )


def _run_table(args: argparse.Namespace) -> int:
    from repro.runner.campaigns import run_inline

    for result in run_inline("tables", {"tables": [args.verb]}):
        _emit(result, args.output_dir)
    return 0


def _run_fig1(args: argparse.Namespace) -> int:
    from repro.experiments.fig1 import render_fig1
    from repro.runner.campaigns import run_inline

    for result in run_inline("fig1"):
        _emit(result, args.output_dir, render_fig1(result))
    return 0


def _run_fig2(args: argparse.Namespace) -> int:
    from repro.experiments.fig2 import render_fig2
    from repro.runner.campaigns import run_inline

    for result in run_inline("fig2"):
        _emit(result, args.output_dir, render_fig2(result))
    return 0


def _run_fig3(args: argparse.Namespace) -> int:
    from repro.experiments.fig3 import render_fig3_panel
    from repro.runner.campaigns import CampaignConfigError, run_inline

    try:
        results = run_inline("fig3", _options("fig3", args))
    except CampaignConfigError as exc:  # a grid that repeats a point
        return _fail(str(exc))
    for result in results:
        _emit(result, args.output_dir, render_fig3_panel(result))
    return 0


def _run_all(args: argparse.Namespace) -> int:
    from repro.runner.campaigns import run_inline

    for result in run_inline("tables"):
        _emit(result, args.output_dir)
    _run_fig1(args)
    _run_fig2(args)
    return _run_fig3(args)


def _run_analyze(args: argparse.Namespace) -> int:
    from repro.api import AnalysisService, AnalyzeRequest, ApiError

    taskset = _load_system(args.system)
    if taskset is None:
        return 2
    try:
        response = AnalysisService().analyze(
            AnalyzeRequest(
                taskset=taskset,
                **_given(args, "operation_hours", "degradation_factor"),
            )
        )
    except ApiError as exc:
        return _fail(exc.message)
    print(response.report)
    return 0 if response.feasible else 1


def _run_plan(args: argparse.Namespace) -> int:
    from repro.api import AnalysisService, ApiError, PlanRequest

    taskset = _load_system(args.system)
    if taskset is None:
        return 2
    try:
        response = AnalysisService().plan(
            PlanRequest(
                taskset=taskset,
                cores=args.cores,
                **_given(
                    args, "backend", "degradation_factor", "operation_hours",
                    "exact", "max_nodes",
                ),
            )
        )
    except ApiError as exc:
        return _fail(exc.message)

    verdict = "SCHEDULABLE" if response.success else (
        f"NOT SCHEDULABLE ({response.failure})"
    )
    print(f"FT-MP plan: {verdict} on m={response.cores} cores "
          f"[{response.backend}]")
    if response.n_hi is not None:
        print(f"  profiles: n_HI={response.n_hi} n_LO={response.n_lo} "
              f"n1_HI={response.n1_hi} n2_HI={response.n2_hi}")
    if response.success:
        print(f"  pfh: HI={response.pfh_hi:.3e} LO={response.pfh_lo:.3e} "
              f"(OS={response.operation_hours:g} h, {response.mechanism})")
        gap = "n/a" if response.gap is None else f"{response.gap:.4f}"
        print(f"  strategy: {response.strategy} "
              f"(portfolio objective={response.heuristic_objective:.4f}, "
              f"exact objective={response.exact_objective:.4f}, "
              f"gap={gap}, nodes={response.exact_nodes})")
        if response.partition is not None:
            for index, names in enumerate(response.partition):
                print(f"  P{index}: [{', '.join(names)}]")
    if response.inconclusive:
        print("  note: verdict is INCONCLUSIVE at some adaptation profile "
              "(heuristic miss without an exhaustive exact search) — the "
              "reported n2/verdict may be pessimistic")
    return 0 if response.success else 1


def _emit_lint_report(report, subject: str, args: argparse.Namespace) -> int:
    if args.output_format == "json":
        print(report.render_json(subject))
    else:
        print(report.render_text(subject))
    return report.exit_code(strict=args.strict)


def _run_lint(args: argparse.Namespace) -> int:
    from repro.lint.engine import lint_file

    return _emit_lint_report(lint_file(args.path), args.path, args)


def _run_selfcheck(args: argparse.Namespace) -> int:
    from repro.lint.codecheck import check_path, default_root

    root = args.path or default_root()
    if not os.path.isdir(root):
        return _fail(f"'selfcheck' target is not a directory: {root}")
    return _emit_lint_report(check_path(root), root, args)


def _run_campaign(args: argparse.Namespace) -> int:
    from repro.runner import (
        CHAOS_RETRY,
        CampaignConfigError,
        CampaignInterrupted,
        RetryPolicy,
        get_campaign,
        run_campaign,
    )

    target = args.experiment
    try:
        get_campaign(target)
    except ValueError as exc:  # unknown campaign
        return _fail(str(exc))
    try:
        options = _options(target, args)
    except ValueError as exc:  # a flag this experiment does not read
        args.usage_error(str(exc))
    retry = None
    knobs = _given(args, "max_retries", "base_delay")
    if knobs:
        # A knob left out keeps run_campaign's policy, which backs off
        # for less under --chaos.
        policy = CHAOS_RETRY if "chaos_seed" in args else RetryPolicy()
        delay = knobs.get("base_delay", policy.base_delay)
        retry = replace(policy, max_delay=max(policy.max_delay, delay), **knobs)
    try:
        report = run_campaign(
            target,
            options=options,
            output_dir=args.output_dir,
            retry=retry,
            on_event=lambda message: print(f"[campaign {target}] {message}"),
            **_given(args, "resume", "chaos_seed", "timeout", "jobs"),
        )
    except CampaignInterrupted as interrupt:
        print(
            f"[campaign {target}] interrupted (signal {interrupt.signum}); "
            "checkpoint retained — rerun with --resume to continue",
            file=sys.stderr,
        )
        return interrupt.exit_code
    except CampaignConfigError as exc:
        return _fail(str(exc))
    print(report.render())
    return report.exit_code


def _run_backends(args: argparse.Namespace) -> int:
    from repro.experiments.backend_comparison import (
        render_backend_comparison,
        run_backend_comparison,
    )

    result = run_backend_comparison(**_given(args, "sets_per_point", "seed"))
    _emit(result, args.output_dir, render_backend_comparison(result))
    return 0


def _run_sensitivity(args: argparse.Namespace) -> int:
    from repro.experiments.sensitivity import (
        sweep_degradation_factor,
        sweep_operation_hours,
        sweep_p_hi,
    )
    from repro.experiments.overhead_study import run_overhead_study
    from repro.gen.fms import canonical_fms

    fms = canonical_fms()
    _emit(sweep_degradation_factor(fms), args.output_dir)
    _emit(sweep_operation_hours(fms), args.output_dir)
    _emit(sweep_p_hi(**_given(args, "sets_per_point", "seed")), args.output_dir)
    _emit(run_overhead_study(**_given(args, "seed")), args.output_dir)
    return 0


def _run_validate(args: argparse.Namespace) -> int:
    from repro.runner.campaigns import run_inline

    exit_code = 0
    for result in run_inline("validation", _options("validation", args)):
        _emit(result, args.output_dir)
        if result.column("accepted") != result.column("validated"):
            exit_code = 1
    return exit_code


def _run_stats(args: argparse.Namespace) -> int:
    import json

    from repro.obs import (
        TRACE_SCHEMA,
        aggregate_trace,
        check_trace,
        load_trace,
        render_stats,
        snapshot_stats,
    )

    path = args.path
    if args.check:
        if path is None:
            return _fail(
                "'stats --check' needs a trace file: "
                "ftmc stats --check TRACE.jsonl"
            )
        try:
            problems = check_trace(path)
        except OSError as exc:
            return _fail(f"cannot read {path}: {exc.strerror or exc}")
        if problems:
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
            return 2
        print(f"{path}: valid {TRACE_SCHEMA} trace")
        return 0
    if path is not None:
        try:
            stats = aggregate_trace(load_trace(path), source=path)
        except OSError as exc:
            return _fail(f"cannot read {path}: {exc.strerror or exc}")
    else:
        stats = snapshot_stats()
    if args.output_format == "json":
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        print(render_stats(stats))
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    from repro.perf import (
        SCHEMA,
        check_report,
        render_report,
        run_benchmarks,
        write_report,
    )

    path = args.report
    if path is not None:
        import json

        try:
            with open(path, "r", encoding="utf-8") as handle:
                report = json.load(handle)
        except OSError as exc:
            return _fail(f"cannot read {path}: {exc.strerror or exc}")
        except ValueError as exc:
            return _fail(f"{path}: not valid JSON ({exc})")
        problems = check_report(report)
        if problems:
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
            return 1
        print(f"{path}: valid {SCHEMA} report, all floors hold")
        return 0

    report = run_benchmarks(**_given(args, "quick", "seed"))
    print(render_report(report))
    if args.output_dir:
        path = write_report(report, args.output_dir)
        print(f"wrote {path}")
    # Exit 1 when a measured speedup regresses below its floor; a missing
    # NumPy stack skips the guard (passed is None) rather than failing it.
    return 1 if report["guard"]["passed"] is False else 0


def _run_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.api.server import ApiServer

    if not 0 <= args.port <= 65535:
        return _fail(f"--port must be in 0..65535, got {args.port}")
    try:
        server = ApiServer(host=args.host, port=args.port)
    except OSError as exc:
        return _fail(
            f"cannot bind {args.host}:{args.port}: {exc.strerror or exc}"
        )
    print(f"ftmc serve: listening on http://{server.host}:{server.port} "
          "(Ctrl-C to stop)")

    # SIGTERM must unwind like SIGINT so a --trace session is closed
    # properly and `ftmc stats --check` accepts the emitted stream.
    def _terminate(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("ftmc serve: shutting down")
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.stop()
    return 0


class _VerbParser(argparse.ArgumentParser):
    """A verb's parser: refuses every argument the verb does not read.

    Left to itself a subparser hands its leftovers to the root parser,
    which would report them under ``usage: ftmc`` instead of the verb's
    own usage line.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """A parent parser: flags that several verbs share."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def build_parser() -> argparse.ArgumentParser:
    """The ``ftmc`` parser: one subparser per verb, picked by ``run``."""
    suppress = argparse.SUPPRESS
    parser = argparse.ArgumentParser(
        prog="ftmc",
        description=(
            "Reproduce the evaluation of 'On the Scheduling of "
            "Fault-Tolerant Mixed-Criticality Systems' (DAC 2014). Each "
            "verb accepts only its own flags (ftmc VERB --help); a flag "
            "left out keeps the default of the function the verb runs."
        ),
    )
    verbs = parser.add_subparsers(
        dest="verb", metavar="VERB", required=True, parser_class=_VerbParser
    )

    trace = _flags()
    trace.add_argument(
        "--trace", metavar="FILE.jsonl",
        help="record a structured obs trace of this invocation to FILE "
             "(spans, events, metrics; docs/observability.md)",
    )
    output = _flags()
    output.add_argument("--output-dir", metavar="DIR",
                        help="directory for CSV exports")
    sampling = _flags()
    sampling.add_argument(
        "--sets", dest="sets_per_point", type=_POSITIVE_INT, metavar="N",
        default=suppress, help="task sets per data point",
    )
    sampling.add_argument("--seed", type=int, default=suppress,
                          help="experiment seed")
    grid = _flags(sampling)
    grid.add_argument(
        "--panels", nargs="+", choices=["a", "b", "c", "d"], default=suppress,
        help="Fig. 3 panels to run",
    )
    grid.add_argument(
        "--failure-probabilities", type=float, nargs="+", metavar="F",
        default=suppress,
        help="hardware failure probabilities f (paper: 1e-3 1e-5)",
    )
    grid.add_argument(
        "--utilizations", type=float, nargs="+", metavar="U",
        default=suppress, help="utilization grid of Fig. 3",
    )
    system = _flags()
    system.add_argument(
        "--system", required=True, metavar="FILE.json",
        help="task-set JSON (see repro.io for the format)",
    )
    system.add_argument("--operation-hours", type=float, metavar="H",
                        default=suppress, help="mission duration OS in hours")
    system.add_argument("--degradation-factor", type=float, metavar="DF",
                        default=suppress, help="service degradation factor df")
    formats = _flags()
    formats.add_argument(
        "--format", choices=["text", "json"], default="text",
        dest="output_format", help="output format (default text)",
    )
    findings = _flags(formats)
    findings.add_argument(
        "--strict", action="store_true",
        help="treat warnings as fatal: exit 2 when any warning fires",
    )

    def verb(name: str, summary: str, run, *parents) -> argparse.ArgumentParser:
        sub = verbs.add_parser(
            name, help=summary, description=summary, parents=[trace, *parents]
        )
        sub.set_defaults(run=run)
        return sub

    for name, summary in (
        ("table1", "DO-178B PFH requirements (Table 1)"),
        ("table2", "Example 3.1 task set and derived values (Table 2)"),
        ("table3", "converted MC task set (Table 3 / Example 4.1)"),
        ("table4", "FMS instance (Table 4)"),
    ):
        verb(name, summary, _run_table, output)
    verb("fig1", "FMS task-killing sweep (Fig. 1, with ASCII chart)",
         _run_fig1, output)
    verb("fig2", "FMS degradation sweep (Fig. 2, with ASCII chart)",
         _run_fig2, output)
    verb("fig3", "acceptance-ratio curves (Fig. 3a-d)", _run_fig3, output, grid)
    verb("all", "Tables 1-4 and Figs. 1-3", _run_all, output, grid)
    verb("analyze", "certification report for a user system",
         _run_analyze, system)
    plan = verb("plan", "partitioned multicore planning (docs/multicore.md)",
                _run_plan, system)
    plan.add_argument("--cores", type=int, required=True, metavar="M",
                      help="number of processors to partition onto")
    plan.add_argument(
        "--backend", metavar="NAME", default=suppress,
        help="uniprocessor schedulability backend (see GET /v1/backends "
             "or docs/api.md for the catalog)",
    )
    plan.add_argument(
        "--no-exact", dest="exact", action="store_false", default=suppress,
        help="heuristic portfolio only, skip the branch-and-bound optimizer "
             "(verdicts may then be inconclusive)",
    )
    plan.add_argument("--max-nodes", type=int, metavar="N", default=suppress,
                      help="node budget for the branch-and-bound search")
    verb("backends", "FT-S acceptance per MC scheduler backend",
         _run_backends, output, sampling)
    verb("sensitivity", "df / OS / P_HI sweeps and the overhead study",
         _run_sensitivity, output, sampling)
    verb("validate", "simulate every accepted random system",
         _run_validate, output, sampling)
    lint = verb("lint", "diagnose a task-set document (docs/lint.md)",
                _run_lint, findings)
    lint.add_argument("path", metavar="FILE", help="task-set JSON to check")
    selfcheck = verb("selfcheck", "AST self-analysis of the code (docs/lint.md)",
                     _run_selfcheck, findings)
    selfcheck.add_argument("path", nargs="?", metavar="DIR",
                           help="tree to analyse (default: src/repro)")
    campaign = verb(
        "campaign", "fault-tolerant sharded run (docs/robustness.md)",
        _run_campaign, output, grid,
    )
    # Which grid flags apply depends on EXPERIMENT, so the verb refuses
    # the others after parsing, with the same usage error.
    campaign.set_defaults(usage_error=campaign.error)
    campaign.add_argument(
        "experiment", metavar="EXPERIMENT",
        help="fig1, fig2, fig3, tables, validation or multicore; "
             "--panels and --failure-probabilities apply to fig3, "
             "--utilizations to fig3 and validation, --sets and --seed to "
             "each campaign that draws task sets; a flag EXPERIMENT does "
             "not read is refused",
    )
    campaign.add_argument(
        "--resume", action="store_true", default=suppress,
        help="continue from the checkpoint instead of restarting",
    )
    campaign.add_argument(
        "--chaos", dest="chaos_seed", type=int, metavar="SEED",
        default=suppress,
        help="inject worker crashes/hangs and a torn checkpoint from this "
             "chaos seed (self-test mode)",
    )
    campaign.add_argument(
        "--timeout", type=_POSITIVE_SECONDS, metavar="S", default=suppress,
        help="per-shard watchdog budget in seconds",
    )
    campaign.add_argument(
        "--jobs", type=_POSITIVE_INT, metavar="N", default=suppress,
        help="run up to N shard workers concurrently (1 = serial; results "
             "are byte-identical for every N)",
    )
    campaign.add_argument(
        "--max-retries", type=_NON_NEGATIVE_INT, metavar="K",
        default=suppress, help="re-executions allowed per failed shard",
    )
    campaign.add_argument(
        "--retry-delay", dest="base_delay", type=_NON_NEGATIVE_SECONDS,
        metavar="S", default=suppress,
        help="base backoff delay in seconds before a retry",
    )
    bench = verb("bench", "performance baseline (docs/performance.md)",
                 _run_bench, output)
    bench.add_argument(
        "--quick", action="store_true", default=suppress,
        help="smoke configuration (smaller budgets and problem sizes)",
    )
    bench.add_argument(
        "--check", dest="report", metavar="REPORT",
        help="validate an existing BENCH_*.json report against the schema "
             "and the committed floors instead of measuring (exit 0 valid, "
             "1 problems)",
    )
    bench.add_argument("--seed", type=int, default=suppress,
                       help="seed of the measured inputs")
    stats = verb("stats", "aggregate an obs trace (docs/observability.md)",
                 _run_stats, formats)
    stats.add_argument(
        "path", nargs="?", metavar="TRACE",
        help="trace file (default: this process's live registry)",
    )
    stats.add_argument(
        "--check", action="store_true",
        help="validate the trace against the schema instead of aggregating "
             "it (exit 0 valid, 2 problems)",
    )
    serve = verb("serve", "resident HTTP/JSON API (docs/api.md)", _run_serve)
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=8181,
        help="TCP port to bind (default 8181; 0 = ephemeral, printed on "
             "startup)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.trace is None:
        return args.run(args)
    from repro.obs import span, start_tracing, stop_tracing

    try:
        start_tracing(args.trace)
    except OSError as exc:
        return _fail(f"cannot write trace {args.trace}: {exc.strerror or exc}")
    try:
        with span("ftmc", experiment=args.verb):
            return args.run(args)
    finally:
        stop_tracing()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
