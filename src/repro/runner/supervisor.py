"""The campaign supervisor: worker pool, watchdogs, retries, checkpoints.

:func:`run_campaign` drives a sharded experiment to completion the way
the paper drives a fault-tolerant task set: every shard runs in an
isolated worker with a timeout watchdog; a crashed, hung, or raising
shard is re-executed with exponential backoff (bounded attempts, like an
``n_i`` re-execution profile); each completed shard is durably
checkpointed; and when a shard exhausts its budget the campaign
*degrades gracefully* — it finalises the shards that did complete and
reports exact coverage instead of crashing.

Shards execute on a bounded pool of up to ``jobs`` concurrent worker
processes (default :func:`default_jobs`; ``jobs=1`` reproduces the
serial scheduler exactly), one forked process per attempt
(:func:`~repro.runner.worker.start_attempt`).  The scheduler is a
single-threaded loop over per-shard state machines
(:class:`~repro.runner.shards.ShardRun`): each live shard owns its
attempt handle, its watchdog deadline, and its retry/backoff state, and
backoff is *non-blocking* — a per-shard "ready at" monotonic timestamp
instead of sleeping the supervisor, so one shard's backoff never stalls
the rest of the pool.

Determinism contract: checkpoint shard records may land in completion
order, but every shard's payload is a pure function of its spec, and
backoff jitter draws from a per-shard stream
(:func:`~repro.runner.shards.backoff_rng`) rather than a shared one —
so result and coverage files are byte-identical across ``jobs`` values
(timing fields aside), across ``--resume``, and under ``--chaos``.

Interruption contract: on SIGINT/SIGTERM the supervisor kills **all**
live workers, leaves the checkpoint in place, and raises
:class:`CampaignInterrupted` (CLI exit code ``128 + signum``: 130 for
SIGINT, 143 for SIGTERM).  ``--resume`` then skips every checkpointed
shard and — because payloads always round-trip through JSON — finalises
result files byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from multiprocessing.connection import wait
from typing import Any, Callable

from repro.io import atomic_write_json
from repro.obs import clock
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runner.campaigns import (
    CampaignConfigError,
    CampaignDefinition,
    _checked_plan,
    _normalised,
    get_campaign,
)
from repro.runner.chaos import ChaosInjector
from repro.runner.checkpoint import CampaignCheckpoint, CheckpointState
from repro.runner.retry import RetryPolicy
from repro.runner.shards import (
    COMPLETED,
    CampaignReport,
    ShardOutcome,
    ShardRun,
    ShardSpec,
    backoff_rng,
)
from repro.runner.worker import configured_delay, shard_worker, start_attempt

__all__ = [
    "run_campaign",
    "default_jobs",
    "CampaignInterrupted",
    "CampaignConfigError",
    "DEFAULT_TIMEOUT",
    "CHAOS_TIMEOUT",
    "CHAOS_RETRY",
]

#: Per-shard watchdog budget (seconds) when none is given.
DEFAULT_TIMEOUT = 120.0
#: Watchdog budget under chaos, where hangs are injected on purpose.
CHAOS_TIMEOUT = 5.0
#: Retry policy under chaos: injected failures are retried after a short
#: backoff.  Without chaos the default is ``RetryPolicy()``.
CHAOS_RETRY = RetryPolicy(base_delay=0.1)
#: Longest the scheduler waits for a live attempt before it sweeps again
#: (seconds): the cadence of signal checks.
_POLL_TICK = 0.02

EventHook = Callable[[str], None]


def default_jobs() -> int:
    """The default worker-pool width: ``min(os.cpu_count(), 4)``."""
    return max(1, min(os.cpu_count() or 1, 4))


class CampaignInterrupted(RuntimeError):
    """Raised when a signal stops the campaign (checkpoint retained)."""

    def __init__(self, signum: int) -> None:
        super().__init__(f"campaign interrupted by signal {signum}")
        self.signum = signum

    @property
    def exit_code(self) -> int:
        return 128 + self.signum


def _span_id(handle: Any) -> int | None:
    return handle.span_id if handle is not None else None


class _Supervisor:
    def __init__(
        self,
        campaign: CampaignDefinition,
        options: dict[str, Any],
        output_dir: str,
        timeout: float,
        retry: RetryPolicy,
        chaos: ChaosInjector | None,
        on_event: EventHook | None,
        shard_delay: float,
        jobs: int,
    ) -> None:
        self.campaign = campaign
        self.options = options
        self.output_dir = output_dir
        self.timeout = timeout
        self.retry = retry
        self.chaos = chaos
        self.shard_delay = shard_delay
        self.jobs = jobs
        self._on_event = on_event
        self._signum: int | None = None
        self._planned = 0
        self._started_count = 0
        self.checkpoint = CampaignCheckpoint(
            os.path.join(output_dir, f"{campaign.name}.checkpoint.jsonl")
        )

    # -- plumbing --------------------------------------------------------------

    def event(self, message: str) -> None:
        if self._on_event is not None:
            self._on_event(message)

    def _note_signal(self, signum: int, frame: Any) -> None:
        self._signum = signum

    def _check_interrupted(self) -> None:
        if self._signum is not None:
            raise CampaignInterrupted(self._signum)

    # -- the pool scheduler ----------------------------------------------------

    def run_shards(self, outcomes: list[ShardOutcome]) -> None:
        """Drive every non-resumed shard to completion, ``jobs`` at a time.

        Single-threaded scheduler over per-shard state machines: each
        iteration fills free pool slots with ready waiting shards (plan
        order), then sweeps the live shards — reaping finished attempts,
        enforcing watchdog deadlines, and starting the next attempt of
        any shard whose backoff ``ready_at`` has passed.  A live shard
        holds its slot across retries, so ``jobs=1`` reproduces the
        serial scheduler's exact ordering.  On interruption (or any
        supervisor-level error) every live attempt is killed before the
        exception propagates.
        """
        self._planned = len(outcomes)
        waiting = [
            ShardRun(outcome=o, rng=backoff_rng(o.spec))
            for o in outcomes
            if not o.resumed
        ]
        live: list[ShardRun] = []
        # pop() must yield the lowest free slot, so keep them descending.
        free_slots = list(range(self.jobs - 1, -1, -1))
        try:
            while waiting or live:
                self._check_interrupted()
                progressed = False
                while waiting and free_slots:
                    now = clock.monotonic()
                    index = next(
                        (
                            i
                            for i, r in enumerate(waiting)
                            if r.ready_at <= now
                        ),
                        None,
                    )
                    if index is None:
                        break
                    run = waiting.pop(index)
                    run.slot = free_slots.pop()
                    live.append(run)
                    self._start_attempt(run)
                    progressed = True
                now = clock.monotonic()
                for run in list(live):
                    if run.running:
                        progressed |= self._poll_running(run, live, free_slots)
                    elif now >= run.ready_at:
                        self._start_attempt(run)
                        progressed = True
                if not progressed:
                    self._wait(waiting, live, free_slots)
        except BaseException:
            self._kill_live(live)
            raise

    @staticmethod
    def _wait(
        waiting: list[ShardRun], live: list[ShardRun], free_slots: list[int]
    ) -> None:
        """Block until a running attempt has news or a timer falls due.

        Waits on what each running attempt's handle exposes (its result
        pipe or process sentinel), for at most :data:`_POLL_TICK` and
        never past the nearest watchdog deadline or backoff
        ``ready_at``, so a finished shard is reaped as soon as it
        reports instead of at the next fixed tick.
        """
        now = clock.monotonic()
        timeout = _POLL_TICK
        waitables: list[Any] = []
        for run in live:
            if run.running:
                waitables.extend(run.handle.waitables())
                timeout = min(timeout, run.deadline - now)
            else:
                timeout = min(timeout, run.ready_at - now)
        if free_slots:
            for run in waiting:
                timeout = min(timeout, run.ready_at - now)
        wait(waitables, max(0.0, timeout))

    def _start_attempt(self, run: ShardRun) -> None:
        """Launch the next worker attempt for a live shard."""
        spec = run.spec
        attempt = run.outcome.attempts + 1
        chaos_action = (
            self.chaos.worker_action(spec.id, attempt) if self.chaos else None
        )
        handle = start_attempt(
            shard_worker, self.campaign.name, spec.params, chaos_action,
            self.shard_delay,
        )
        run.outcome.attempts = attempt
        if not run.started:
            run.started_monotonic = clock.monotonic()
            self._started_count += 1
            suffix = f", slot {run.slot}" if self.jobs > 1 else ""
            self.event(
                f"shard {spec.id} ({self._started_count}/{self._planned}"
                f"{suffix})"
            )
            run.span = obs_trace.open_span("shard", id=spec.id, slot=run.slot)
        if chaos_action is not None:
            self.event(f"chaos: injecting {chaos_action} into shard {spec.id}")
        obs_metrics.inc("runner.attempts")
        run.attempt_span = obs_trace.open_span(
            "shard.attempt",
            parent=_span_id(run.span),
            id=spec.id,
            attempt=attempt,
            slot=run.slot,
        )
        run.handle = handle
        run.deadline = clock.monotonic() + self.timeout

    def _poll_running(
        self, run: ShardRun, live: list[ShardRun], free_slots: list[int]
    ) -> bool:
        """One watchdog/reap sweep over a running shard; True on progress."""
        handle = run.handle
        handle.poll()
        if not handle.finished():
            if clock.monotonic() > run.deadline:
                handle.cancel()
                obs_metrics.inc("runner.timeouts")
                obs_trace.event(
                    "shard.timeout",
                    span_id=_span_id(run.attempt_span),
                    id=run.spec.id,
                    budget_s=self.timeout,
                )
                self._close_attempt(run, error=True)
                self._attempt_failed(
                    run, live, free_slots,
                    f"timed out after {self.timeout:g}s",
                )
                return True
            return False
        ok, verdict = self._judge(handle.message, handle.exitcode)
        self._close_attempt(run)
        if ok:
            self._complete(run, live, free_slots, verdict)
        else:
            self._attempt_failed(run, live, free_slots, verdict)
        return True

    @staticmethod
    def _judge(message: str | None, exitcode: int | None) -> tuple[bool, Any]:
        """Grade a finished attempt from its pipe message and exit code.

        A received ok-payload wins over a nonzero exit code: a worker
        that delivered ``{"ok": true}`` and then died in interpreter
        teardown did the work, and discarding its result would burn a
        retry re-deriving a payload the supervisor already holds.
        """
        if message is not None:
            try:
                outcome = json.loads(message)
            except ValueError:
                outcome = None
            if isinstance(outcome, dict):
                if outcome.get("ok"):
                    return True, outcome["payload"]
                return False, f"shard raised: {outcome.get('error', 'unknown')}"
        if exitcode != 0:
            return False, f"worker crashed (exit {exitcode})"
        return False, "worker exited without a result"

    def _close_attempt(self, run: ShardRun, error: bool = False) -> None:
        """Detach the attempt handle and close the attempt span."""
        if run.handle is not None:
            run.handle.close()
            run.handle = None
        if run.attempt_span is not None:
            run.attempt_span.end(error=error)
            run.attempt_span = None

    def _complete(
        self, run: ShardRun, live: list[ShardRun], free_slots: list[int],
        payload: Any,
    ) -> None:
        spec = run.spec
        outcome = run.outcome
        outcome.status = COMPLETED
        outcome.payload = payload
        obs_metrics.inc("runner.shards.completed")
        self.checkpoint.append_shard(
            spec.id, spec.index, spec.seed, outcome.attempts, payload
        )
        if self.chaos and self.chaos.should_truncate_after(spec.id):
            if ChaosInjector.truncate_checkpoint(self.checkpoint.path):
                self.event(f"chaos: tore the checkpoint after shard {spec.id}")
        self._retire(run, live, free_slots)

    def _attempt_failed(
        self, run: ShardRun, live: list[ShardRun], free_slots: list[int],
        error: Any,
    ) -> None:
        spec = run.spec
        outcome = run.outcome
        outcome.errors.append(str(error))
        self.event(
            f"shard {spec.id} attempt {outcome.attempts}/{self.retry.attempts} "
            f"failed: {error}"
        )
        if outcome.attempts < self.retry.attempts:
            obs_metrics.inc("runner.retries")
            obs_trace.event(
                "shard.retry",
                span_id=_span_id(run.span),
                id=spec.id,
                attempt=outcome.attempts,
            )
            delay = self.retry.delay(outcome.attempts, run.rng)
            obs_trace.event(
                "shard.backoff",
                span_id=_span_id(run.span),
                id=spec.id,
                delay_s=delay,
            )
            # Non-blocking backoff: the shard stays live in its slot and
            # the scheduler simply will not restart it before ready_at.
            run.ready_at = clock.monotonic() + delay
            return
        obs_metrics.inc("runner.shards.failed")
        self.event(
            f"shard {spec.id} failed permanently after "
            f"{outcome.attempts} attempt(s); campaign degrades"
        )
        self._retire(run, live, free_slots)

    def _retire(
        self, run: ShardRun, live: list[ShardRun], free_slots: list[int]
    ) -> None:
        """Close out a finished shard and return its slot to the pool."""
        if run.started_monotonic is not None:
            run.outcome.duration_s = clock.monotonic() - run.started_monotonic
        if run.span is not None:
            run.span.end()
            run.span = None
        live.remove(run)
        free_slots.append(run.slot)  # type: ignore[arg-type]
        free_slots.sort(reverse=True)

    def _kill_live(self, live: list[ShardRun]) -> None:
        """Kill every live attempt (interrupt/error path)."""
        for run in live:
            if run.handle is not None:
                try:
                    run.handle.cancel()
                except Exception:
                    pass
                run.handle.close()
                run.handle = None

    # -- recovery and finalisation ---------------------------------------------

    def recover_torn_records(
        self, outcomes: list[ShardOutcome]
    ) -> CheckpointState:
        """Re-append completed shards whose on-disk record was torn."""
        state = self.checkpoint.load()
        for outcome in outcomes:
            if outcome.completed and outcome.spec.id not in state.shards:
                spec = outcome.spec
                self.checkpoint.append_shard(
                    spec.id, spec.index, spec.seed, outcome.attempts,
                    outcome.payload,
                )
                outcome.recovered = True
                self.event(
                    f"recovered: re-wrote torn checkpoint record for {spec.id}"
                )
        return state

    def finalize(self, report: CampaignReport) -> None:
        payloads = {
            o.spec.id: o.payload for o in report.outcomes if o.completed
        }
        for result in self.campaign.finalize(payloads, self.options):
            json_path = os.path.join(self.output_dir, f"{result.name}.json")
            csv_path = os.path.join(self.output_dir, f"{result.name}.csv")
            atomic_write_json(json_path, result.to_dict())
            result.to_csv(csv_path)
            report.result_files.extend([json_path, csv_path])
        coverage_path = os.path.join(
            self.output_dir, f"{self.campaign.name}.coverage.json"
        )
        atomic_write_json(coverage_path, report.coverage())
        report.coverage_path = coverage_path


def _load_resume_state(
    supervisor: _Supervisor, shards: list[ShardSpec], options: dict[str, Any]
) -> CheckpointState:
    """Validate and load a checkpoint for ``--resume``."""
    state = supervisor.checkpoint.load()
    if state.manifest is None:
        raise CampaignConfigError(
            f"cannot resume: no usable checkpoint at {supervisor.checkpoint.path}"
        )
    manifest = state.manifest
    if manifest.get("experiment") != supervisor.campaign.name:
        raise CampaignConfigError(
            "cannot resume: checkpoint belongs to campaign "
            f"{manifest.get('experiment')!r}, not {supervisor.campaign.name!r}"
        )
    if manifest.get("options") != _normalised(options):
        raise CampaignConfigError(
            "cannot resume: campaign options changed since the checkpoint "
            "was written (rerun without --resume to start over)"
        )
    planned = [
        {"id": s.id, "index": s.index, "seed": s.seed} for s in shards
    ]
    if manifest.get("shards") != _normalised(planned):
        raise CampaignConfigError(
            "cannot resume: the shard plan no longer matches the checkpoint"
        )
    return state


def run_campaign(
    experiment: str,
    options: dict[str, Any] | None = None,
    output_dir: str | None = None,
    resume: bool = False,
    chaos_seed: int | None = None,
    timeout: float | None = None,
    retry: RetryPolicy | None = None,
    on_event: EventHook | None = None,
    shard_delay: float | None = None,
    jobs: int | None = None,
) -> CampaignReport:
    """Run (or resume) a fault-tolerant experiment campaign.

    ``jobs`` bounds the worker pool (default :func:`default_jobs`;
    ``1`` preserves the serial scheduler exactly).  See the module
    docstring for the execution model and ``docs/robustness.md`` for
    the full contract.  Raises
    :class:`CampaignInterrupted` on SIGINT/SIGTERM and
    :class:`CampaignConfigError` on unusable configuration; any other
    shard-level failure degrades the campaign instead of raising.
    """
    campaign = get_campaign(experiment)
    if options is None:
        options = campaign.default_options()
    if output_dir is None:
        output_dir = os.path.join("results", "campaigns", experiment)
    if timeout is None:
        timeout = CHAOS_TIMEOUT if chaos_seed is not None else DEFAULT_TIMEOUT
    if retry is None:
        retry = CHAOS_RETRY if chaos_seed is not None else RetryPolicy()
    if shard_delay is None:
        shard_delay = configured_delay()
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise CampaignConfigError(f"jobs must be >= 1, got {jobs}")
    if not timeout > 0:  # NaN fails this too
        raise CampaignConfigError(f"timeout must be > 0 seconds, got {timeout}")

    shards = _checked_plan(campaign, options)
    ids = [s.id for s in shards]
    # Only a configuration that passed every check above leaves a directory.
    os.makedirs(output_dir, exist_ok=True)

    chaos = ChaosInjector(chaos_seed, ids) if chaos_seed is not None else None
    supervisor = _Supervisor(
        campaign, options, output_dir, timeout, retry, chaos, on_event,
        shard_delay, jobs,
    )

    resumed_records: dict[str, dict[str, Any]] = {}
    report = CampaignReport(
        experiment=campaign.name,
        output_dir=output_dir,
        checkpoint_path=supervisor.checkpoint.path,
        chaos_seed=chaos_seed,
    )
    if resume:
        resumed_records = _load_resume_state(supervisor, shards, options).shards
    else:
        supervisor.checkpoint.create(
            {
                "experiment": campaign.name,
                "options": _normalised(options),
                "shards": [
                    {"id": s.id, "index": s.index, "seed": s.seed}
                    for s in shards
                ],
                "created_unix": clock.wall_time(),
            }
        )

    # Install signal handlers (main thread only; tests may call us from
    # worker threads where signal.signal raises ValueError).
    previous_handlers: dict[int, Any] = {}
    in_main_thread = threading.current_thread() is threading.main_thread()
    if in_main_thread:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(
                signum, supervisor._note_signal
            )
    try:
        with obs_trace.span(
            "campaign",
            experiment=campaign.name,
            shards=len(shards),
            jobs=jobs,
        ):
            for spec in shards:
                outcome = ShardOutcome(spec=spec)
                report.outcomes.append(outcome)
                record = resumed_records.get(spec.id)
                if record is not None:
                    outcome.status = COMPLETED
                    outcome.resumed = True
                    outcome.payload = record["payload"]
                    outcome.attempts = int(record.get("attempts", 1))
            supervisor.run_shards(report.outcomes)
            final_state = supervisor.recover_torn_records(report.outcomes)
            report.corrupt_checkpoint_lines = final_state.corrupt_lines
            report.unknown_checkpoint_records = final_state.unknown_records
            if final_state.unknown_records:
                supervisor.event(
                    f"checkpoint: skipped {final_state.unknown_records} "
                    "unrecognised record(s) (written by another ftmc version?)"
                )
            supervisor.finalize(report)
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    return report
