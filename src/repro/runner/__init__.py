"""Fault-tolerant campaign runner (``ftmc campaign <experiment>``).

Applies the paper's own fault-tolerance recipe to the experiment
harness: deterministic seeded shards executed on a bounded worker pool
(``--jobs N``, byte-identical results for every N), per-shard
watchdogs, bounded retry with non-blocking exponential backoff (the
harness's re-execution profile),
crash-safe JSONL checkpointing with exact ``--resume``, graceful
degradation with explicit coverage accounting, and a chaos mode that
injects worker crashes, hangs and torn checkpoints to test the runner
itself.  Every shard attempt is one forked worker process
(:mod:`repro.runner.worker`).  See ``docs/robustness.md``.

The campaign definitions (:mod:`repro.runner.campaigns`) are the one
loop of each experiment: :func:`run_inline` runs one in the calling
process, which is how ``ftmc fig1``, ``ftmc fig3``, ``ftmc validate``
and the table verbs run, and :func:`run_campaign` shards it.
"""

import importlib

from repro.runner.campaigns import (
    CAMPAIGNS,
    CampaignConfigError,
    CampaignDefinition,
    build_options,
    campaign_names,
    get_campaign,
    run_inline,
)
from repro.runner.shards import (
    CampaignReport,
    ShardOutcome,
    ShardRun,
    ShardSpec,
    backoff_rng,
)

__all__ = [
    "CAMPAIGNS",
    "CampaignDefinition",
    "build_options",
    "campaign_names",
    "get_campaign",
    "run_inline",
    "ChaosInjector",
    "CampaignCheckpoint",
    "CheckpointState",
    "RetryPolicy",
    "CampaignReport",
    "ShardOutcome",
    "ShardRun",
    "ShardSpec",
    "backoff_rng",
    "CHAOS_RETRY",
    "CHAOS_TIMEOUT",
    "DEFAULT_TIMEOUT",
    "CampaignConfigError",
    "CampaignInterrupted",
    "default_jobs",
    "run_campaign",
]

#: Names resolved on first use, by their module: what only a sharded run
#: needs, such as the supervisor, which loads ``multiprocessing``, stays
#: out of the in-process verbs.
_LAZY = {
    "ChaosInjector": "chaos",
    "CampaignCheckpoint": "checkpoint",
    "CheckpointState": "checkpoint",
    "RetryPolicy": "retry",
    "CHAOS_RETRY": "supervisor",
    "CHAOS_TIMEOUT": "supervisor",
    "DEFAULT_TIMEOUT": "supervisor",
    "CampaignInterrupted": "supervisor",
    "default_jobs": "supervisor",
    "run_campaign": "supervisor",
}


def __getattr__(name: str):
    if name in _LAZY:
        module = importlib.import_module(f"repro.runner.{_LAZY[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
