"""Unit tests for the campaign runner building blocks.

Covers the value objects (`repro.runner.retry`, `repro.runner.shards`),
the JSONL checkpoint with its torn-write-tolerant loader, the chaos
fault planner, and the campaign definitions (sharding contracts).
The supervisor end-to-end behaviour lives in test_runner_supervisor.py;
process-level kill/resume integration in test_campaign_kill_resume.py.
"""

import json
import random

import pytest

from repro.runner.campaigns import (
    CAMPAIGNS,
    build_options,
    campaign_names,
    get_campaign,
)
from repro.runner.chaos import (
    CRASH,
    HANG,
    TRUNCATE,
    ChaosInjector,
)
from repro.runner.checkpoint import CampaignCheckpoint
from repro.runner.retry import RetryPolicy
from repro.runner.shards import (
    COMPLETED,
    CampaignReport,
    ShardOutcome,
    ShardSpec,
)
from repro.runner.worker import configured_delay


class TestRetryPolicy:
    def test_attempts_is_retries_plus_one(self):
        assert RetryPolicy(max_retries=0).attempts == 1
        assert RetryPolicy(max_retries=3).attempts == 4

    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(base_delay=1.0, factor=2.0, max_delay=30.0)
        assert policy.delay(1) == 1.0
        assert policy.delay(2) == 2.0
        assert policy.delay(3) == 4.0

    def test_delay_capped_at_max(self):
        policy = RetryPolicy(base_delay=1.0, factor=10.0, max_delay=5.0)
        assert policy.delay(4) == 5.0

    def test_jitter_bounded_and_deterministic(self):
        policy = RetryPolicy(base_delay=1.0, factor=1.0, jitter=0.25,
                             max_delay=30.0)
        delays = [policy.delay(1, random.Random(7)) for _ in range(5)]
        assert len(set(delays)) == 1  # same rng state, same delay
        for _ in range(200):
            d = policy.delay(1, random.Random(random.random()))
            assert 0.75 <= d <= 1.25

    def test_no_jitter_without_rng(self):
        policy = RetryPolicy(base_delay=2.0, jitter=0.25)
        assert policy.delay(1) == 2.0

    def test_jittered_delay_never_exceeds_max(self):
        # base 28 with jitter 0.25 ranges over [21, 35] before the cap:
        # the cap must bound the *jittered* value, not just the base.
        policy = RetryPolicy(base_delay=28.0, factor=2.0, max_delay=30.0,
                             jitter=0.25)
        delays = [policy.delay(1, random.Random(i)) for i in range(200)]
        assert all(21.0 <= d <= 30.0 for d in delays)
        assert max(delays) == 30.0  # some draws did hit the cap
        # attempt 2 pre-caps at max_delay; jitter must not push past it
        assert all(
            policy.delay(2, random.Random(i)) <= 30.0 for i in range(200)
        )

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"max_retries": -1}, "max_retries"),
            ({"base_delay": -0.1}, "base_delay"),
            ({"factor": 0.5}, "factor"),
            ({"base_delay": 10.0, "max_delay": 1.0}, "max_delay"),
            ({"jitter": 1.0}, "jitter"),
            ({"jitter": -0.1}, "jitter"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RetryPolicy(**kwargs)

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy().delay(0)


def _spec(shard_id="s1", index=0, seed=0):
    return ShardSpec(id=shard_id, index=index, seed=seed, params={})


class TestShardOutcome:
    def test_defaults_to_failed(self):
        outcome = ShardOutcome(spec=_spec())
        assert not outcome.completed
        assert not outcome.retried

    def test_retried_when_multiple_attempts_or_recovered(self):
        retried = ShardOutcome(spec=_spec(), status=COMPLETED, attempts=2)
        recovered = ShardOutcome(spec=_spec(), status=COMPLETED, attempts=1,
                                 recovered=True)
        clean = ShardOutcome(spec=_spec(), status=COMPLETED, attempts=1)
        assert retried.retried
        assert recovered.retried
        assert not clean.retried


class TestCampaignReport:
    @staticmethod
    def _report():
        report = CampaignReport(experiment="x", output_dir="o",
                                checkpoint_path="c")
        report.outcomes = [
            ShardOutcome(spec=_spec("ok"), status=COMPLETED, attempts=1),
            ShardOutcome(spec=_spec("flaky"), status=COMPLETED, attempts=3,
                         errors=["boom", "boom"]),
            ShardOutcome(spec=_spec("dead"), attempts=2,
                         errors=["boom", "boom"]),
        ]
        return report

    def test_exit_code_zero_when_all_complete(self):
        report = self._report()
        report.outcomes = report.outcomes[:2]
        assert report.exit_code == 0

    def test_exit_code_three_when_degraded(self):
        assert self._report().exit_code == 3

    def test_coverage_lists_retried_and_failed(self):
        coverage = self._report().coverage()
        assert coverage["shards"] == 3
        assert coverage["completed"] == 2
        assert coverage["failed"] == 1
        # every shard fault tolerance worked on, completed or not
        assert [s["id"] for s in coverage["retried_shards"]] == ["flaky", "dead"]
        assert coverage["retried_shards"][0]["attempts"] == 3
        assert [s["id"] for s in coverage["failed_shards"]] == ["dead"]
        json.dumps(coverage)  # must be serialisable as written

    def test_render_mentions_failures_and_degradation(self):
        text = self._report().render()
        assert "retried: flaky" in text
        assert "FAILED: dead" in text
        assert "DEGRADED" in text


class TestCheckpoint:
    def test_missing_file_loads_empty(self, tmp_path):
        state = CampaignCheckpoint(str(tmp_path / "none.jsonl")).load()
        assert state.manifest is None
        assert state.shards == {}
        assert state.corrupt_lines == 0

    def test_manifest_and_shards_round_trip(self, tmp_path):
        checkpoint = CampaignCheckpoint(str(tmp_path / "ck.jsonl"))
        checkpoint.create({"experiment": "x", "options": {"n": 2}})
        checkpoint.append_shard("a", 0, 7, 1, [1, 2.5, "x"])
        checkpoint.append_shard("b", 1, 7, 2, {"rows": []})
        state = checkpoint.load()
        assert state.manifest["experiment"] == "x"
        assert state.manifest["options"] == {"n": 2}
        assert state.payload("a") == [1, 2.5, "x"]
        assert state.shards["b"]["attempts"] == 2
        assert state.corrupt_lines == 0

    def test_duplicate_manifest_line_counted_corrupt(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        checkpoint = CampaignCheckpoint(str(path))
        checkpoint.create({"experiment": "x"})
        checkpoint.append_shard("a", 0, 0, 1, "kept")
        with open(path, "a") as handle:
            handle.write(
                json.dumps({"type": "manifest", "experiment": "impostor"})
                + "\n"
            )
        state = checkpoint.load()
        assert state.manifest["experiment"] == "x"  # first manifest wins
        assert state.payload("a") == "kept"
        assert state.corrupt_lines == 1

    def test_last_record_wins_for_duplicate_ids(self, tmp_path):
        checkpoint = CampaignCheckpoint(str(tmp_path / "ck.jsonl"))
        checkpoint.create({"experiment": "x"})
        checkpoint.append_shard("a", 0, 0, 1, "old")
        checkpoint.append_shard("a", 0, 0, 2, "new")
        assert checkpoint.load().payload("a") == "new"

    def test_torn_trailing_line_skipped_and_counted(self, tmp_path):
        import os

        path = tmp_path / "ck.jsonl"
        checkpoint = CampaignCheckpoint(str(path))
        checkpoint.create({"experiment": "x"})
        checkpoint.append_shard("a", 0, 0, 1, "kept")
        checkpoint.append_shard("b", 1, 0, 1, "torn")
        os.truncate(path, path.stat().st_size - 10)
        state = checkpoint.load()
        assert state.payload("a") == "kept"
        assert "b" not in state.shards
        assert state.corrupt_lines == 1

    def test_foreign_records_counted_corrupt(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        lines = [
            json.dumps({"type": "manifest", "experiment": "x"}),
            json.dumps([1, 2, 3]),            # not an object
            json.dumps({"type": "shard", "id": "a"}),  # missing payload
        ]
        from repro.io import atomic_write_text

        atomic_write_text(str(path), "\n".join(lines) + "\n")
        state = CampaignCheckpoint(str(path)).load()
        assert state.manifest is not None
        assert state.shards == {}
        assert state.corrupt_lines == 2
        assert state.unknown_records == 0

    def test_unknown_record_kinds_skipped_not_corrupt(self, tmp_path):
        """Another ftmc version's record kinds degrade to a count."""
        path = tmp_path / "ck.jsonl"
        lines = [
            json.dumps({"type": "manifest", "experiment": "x"}),
            json.dumps({"type": "mystery"}),
            json.dumps({"type": "shard-v2", "id": "a", "blob": 1}),
            json.dumps({"type": "shard", "id": "a", "payload": "kept",
                        "index": 0, "seed": 0, "attempts": 1}),
            json.dumps({"type": 7}),  # non-string kind is corruption
        ]
        from repro.io import atomic_write_text

        atomic_write_text(str(path), "\n".join(lines) + "\n")
        state = CampaignCheckpoint(str(path)).load()
        assert state.payload("a") == "kept"
        assert state.unknown_records == 2
        assert state.corrupt_lines == 1


class TestChaosInjector:
    IDS = [f"shard-{i}" for i in range(8)]

    def test_plan_is_deterministic(self):
        a = ChaosInjector(42, self.IDS).plan()
        b = ChaosInjector(42, self.IDS).plan()
        assert a == b

    def test_three_or_more_shards_cover_every_fault(self):
        for seed in range(5):
            plan = ChaosInjector(seed, self.IDS).plan()
            assert set(plan.values()) >= {CRASH, HANG, TRUNCATE}
            # exactly one truncation; the rest are worker faults
            assert list(plan.values()).count(TRUNCATE) == 1

    def test_seed_42_plan_is_pinned(self):
        # Each seed's plan is part of the chaos coverage bytes.
        assert ChaosInjector(42, self.IDS).plan() == {
            "shard-3": CRASH,
            "shard-4": HANG,
            "shard-6": TRUNCATE,
            "shard-1": HANG,
        }

    def test_faults_fire_only_on_first_attempt(self):
        injector = ChaosInjector(42, self.IDS)
        for shard_id, action in injector.plan().items():
            if action in (CRASH, HANG):
                assert injector.worker_action(shard_id, 1) == action
            assert injector.worker_action(shard_id, 2) is None

    def test_truncation_is_not_a_worker_action(self):
        injector = ChaosInjector(42, self.IDS)
        truncated = [s for s, a in injector.plan().items() if a == TRUNCATE]
        assert injector.worker_action(truncated[0], 1) is None
        assert injector.should_truncate_after(truncated[0])

    def test_extra_fault_rate_validated(self):
        with pytest.raises(ValueError, match="rate"):
            ChaosInjector(0, self.IDS, extra_fault_rate=1.5)

    def test_truncate_checkpoint_tears_last_line(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        checkpoint = CampaignCheckpoint(str(path))
        checkpoint.create({"experiment": "x"})
        checkpoint.append_shard("a", 0, 0, 1, {"rows": [1, 2, 3]})
        before = path.read_bytes()
        assert ChaosInjector.truncate_checkpoint(str(path))
        after = path.read_bytes()
        assert len(after) < len(before)
        state = checkpoint.load()
        assert "a" not in state.shards       # record torn beyond parsing
        assert state.manifest is not None    # manifest line untouched
        assert state.corrupt_lines == 1

    def test_truncate_refuses_manifest_only_file(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        checkpoint = CampaignCheckpoint(str(path))
        checkpoint.create({"experiment": "x"})
        before = path.read_bytes()
        assert not ChaosInjector.truncate_checkpoint(str(path))
        assert path.read_bytes() == before


#: Each ``build_options`` knob: a value, the option it sets (converted),
#: its flag, and the campaigns that read it; the others refuse it.
KNOBS = {
    "seed": ("3", "seed", 3, "--seed", {"fig3", "validation", "multicore"}),
    "sets": (7.0, "sets_per_point", 7, "--sets",
             {"fig3", "validation", "multicore"}),
    "panels": (("a", "c"), "panels", ["a", "c"], "--panels", {"fig3"}),
    "failure_probabilities": ((1e-4,), "failure_probabilities", [1e-4],
                              "--failure-probabilities", {"fig3"}),
    "utilizations": ([1, 0.5], "utilizations", [1.0, 0.5], "--utilizations",
                     {"fig3", "validation"}),
}


class TestCampaignDefinitions:
    def test_registry_names(self):
        assert campaign_names() == ["fig1", "fig2", "fig3", "tables",
                                    "validation", "multicore"]

    def test_unknown_campaign_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign"):
            get_campaign("fig9")

    @pytest.mark.parametrize("name", list(CAMPAIGNS))
    def test_plans_are_deterministic_unique_and_serialisable(self, name):
        campaign = get_campaign(name)
        options = campaign.default_options()
        shards = campaign.plan(options)
        assert shards, f"{name} planned no shards"
        ids = [s.id for s in shards]
        assert len(set(ids)) == len(ids)
        assert [s.index for s in shards] == sorted(s.index for s in shards)
        # params and options must survive the JSON checkpoint round trip
        json.dumps(options)
        for shard in shards:
            json.dumps(dict(shard.params))
        replay = campaign.plan(options)
        assert [(s.id, s.index, s.seed, dict(s.params)) for s in shards] == [
            (s.id, s.index, s.seed, dict(s.params)) for s in replay
        ]

    def test_fms_plan_one_shard_per_sweep_point(self):
        campaign = get_campaign("fig1")
        shards = campaign.plan(campaign.default_options())
        assert [s.id for s in shards] == [f"nprime-{k}" for k in range(1, 5)]

    def test_fms_finalize_tolerates_missing_shards(self):
        campaign = get_campaign("fig1")
        options = campaign.default_options()
        row = [2, 0.9, True, 1e-9, -9.0, True, False]
        results = campaign.finalize({"nprime-2": row}, options)
        assert len(results) == 1
        assert results[0].name == "fig1"
        assert results[0].rows == [tuple(row)]

    def test_tables_execute_finalize_round_trip(self):
        campaign = get_campaign("tables")
        options = {"tables": ["table1"]}
        [shard] = campaign.plan(options)
        payload = campaign.execute(dict(shard.params))
        [result] = campaign.finalize({shard.id: payload}, options)
        from repro.experiments.tables import table1

        direct = table1()
        assert result.name == direct.name
        assert list(result.columns) == list(direct.columns)
        assert [list(r) for r in result.rows] == [list(r) for r in direct.rows]
        assert result.notes == direct.notes

    def test_build_options_applies_generic_knobs(self):
        options = build_options("fig3", seed=3, sets=100, panels=["a"],
                                failure_probabilities=[1e-5],
                                utilizations=[0.5, 0.7])
        assert options["seed"] == 3
        assert options["sets_per_point"] == 100
        assert options["panels"] == ["a"]
        assert options["failure_probabilities"] == [1e-5]
        assert options["utilizations"] == [0.5, 0.7]

    def test_build_options_passes_validation_sets_through(self):
        assert build_options("validation", sets=500)["sets_per_point"] == 500

    def test_build_options_refuses_inapplicable_knobs(self):
        with pytest.raises(ValueError,
                           match="campaign 'tables' does not read --seed"):
            build_options("tables", seed=3, sets=100)

    @pytest.mark.parametrize("knob", list(KNOBS))
    @pytest.mark.parametrize("name", list(CAMPAIGNS))
    def test_build_options_reads_or_refuses_each_knob(self, name, knob):
        value, key, converted, flag, readers = KNOBS[knob]
        if name not in readers:
            with pytest.raises(ValueError,
                               match=f"campaign '{name}' does not read {flag}$"):
                build_options(name, **{knob: value})
            return
        options = build_options(name, **{knob: value})
        expected = dict(get_campaign(name).default_options(), **{key: converted})
        assert options == expected
        assert type(options[key]) is type(converted)


class TestWorkerDelay:
    def test_unset_is_zero(self, monkeypatch):
        monkeypatch.delenv("FTMC_SHARD_DELAY", raising=False)
        assert configured_delay() == 0.0

    def test_parses_float(self, monkeypatch):
        monkeypatch.setenv("FTMC_SHARD_DELAY", "0.25")
        assert configured_delay() == 0.25

    def test_garbage_and_negative_are_zero(self, monkeypatch):
        monkeypatch.setenv("FTMC_SHARD_DELAY", "soon")
        assert configured_delay() == 0.0
        monkeypatch.setenv("FTMC_SHARD_DELAY", "-3")
        assert configured_delay() == 0.0
