"""Tests for the simulation validation campaign experiment."""

import pytest

from repro.runner import build_options, run_inline


def campaign(mechanism="kill", **options):
    """The validation campaign in-process, on one mechanism."""
    [result] = run_inline(
        "validation",
        dict(build_options("validation"), mechanisms=[mechanism], **options),
    )
    return result


class TestValidationCampaign:
    @pytest.mark.parametrize("mechanism", ["kill", "degrade"])
    def test_every_accepted_system_validates(self, mechanism):
        """The core soundness claim: accepted == validated everywhere."""
        result = campaign(
            mechanism,
            utilizations=[0.6, 0.8],
            sets_per_point=8,
            runs_per_set=2,
            horizon=60_000.0,
        )
        for accepted, validated, misses in zip(
            result.column("accepted"),
            result.column("validated"),
            result.column("hi_misses"),
        ):
            assert validated == accepted
            assert misses == 0

    def test_some_systems_accepted(self):
        result = campaign(
            utilizations=[0.5], sets_per_point=10, runs_per_set=1,
            horizon=30_000.0,
        )
        assert result.column("accepted")[0] > 0

    def test_mode_switches_exercised(self):
        """At the inflated fault rate, some runs must actually switch —
        otherwise the campaign would not stress HI mode at all."""
        result = campaign(
            utilizations=[0.7, 0.9], sets_per_point=10, runs_per_set=3,
            horizon=120_000.0, probability_scale=2000.0,
        )
        assert sum(result.column("mode_switch_runs")) > 0

    def test_rejects_unknown_mechanism(self):
        with pytest.raises(ValueError, match="mechanism"):
            campaign("pause")

    def test_cli_validate_exit_code(self, capsys):
        from repro.cli import main

        assert main(["validate", "--sets", "4"]) == 0
        out = capsys.readouterr().out
        assert "validation-kill" in out
        assert "validation-degrade" in out
