"""Tests for the ``ftmc`` command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestParser:
    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])

    def test_defaults(self):
        """A flag left out is not passed on: the fig3 campaign keeps its
        own defaults, so the namespace holds none of them."""
        args = build_parser().parse_args(["fig3"])
        for name in ("sets_per_point", "seed", "panels",
                     "failure_probabilities", "utilizations"):
            assert name not in args
        assert args.output_dir is None
        assert args.trace is None

    def test_panel_selection(self):
        args = build_parser().parse_args(["fig3", "--panels", "a", "c"])
        assert args.panels == ["a", "c"]


#: Per verb, in the parser's order: a command line it accepts, then one
#: flag it does not read.
FOREIGN_FLAGS = {
    "table1": (["table1"], ["--port", "9"]),
    "table2": (["table2"], ["--sets", "5"]),
    "table3": (["table3"], ["--seed", "1"]),
    "table4": (["table4"], ["--system", "x.json"]),
    "fig1": (["fig1"], ["--system", "x.json"]),
    "fig2": (["fig2"], ["--chaos", "3"]),
    "fig3": (["fig3", "--sets", "1", "--panels", "a",
              "--failure-probabilities", "1e-3", "--utilizations", "0.5"],
             ["--backend", "nope"]),
    "all": (["all", "--sets", "1", "--panels", "a",
             "--failure-probabilities", "1e-3", "--utilizations", "0.5"],
            ["--jobs", "2"]),
    "analyze": (["analyze", "--system", "x.json"], ["--cores", "3"]),
    "plan": (["plan", "--system", "x.json", "--cores", "2"], ["--sets", "5"]),
    "backends": (["backends", "--sets", "1"], ["--panels", "a"]),
    "sensitivity": (["sensitivity", "--sets", "1"], ["--utilizations", "0.5"]),
    "validate": (["validate", "--sets", "1"], ["--resume"]),
    "lint": (["lint", "x.json"], ["--system", "x.json"]),
    "selfcheck": (["selfcheck"], ["--output-dir", "out"]),
    "campaign": (["campaign", "tables"], ["--port", "9"]),
    "bench": (["bench", "--check", "x.json"], ["--sets", "5"]),
    "stats": (["stats"], ["--jobs", "2"]),
    "serve": (["serve", "--port", "99999"], ["--sets", "5"]),
}
VERBS = list(FOREIGN_FLAGS)


def _one_error_line(err: str, prog: str) -> str:
    """The single ``error:`` line of an argparse usage error."""
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1, err
    assert errors[0].startswith(f"{prog}: error:"), err
    assert err.endswith(errors[0] + "\n")
    return errors[0]


class TestVerbParsers:
    def test_every_verb_has_a_parser(self):
        import argparse

        parser = build_parser()
        [verbs] = [a for a in parser._actions  # noqa: SLF001 - introspection
                   if isinstance(a, argparse._SubParsersAction)]
        assert list(verbs.choices) == VERBS

    @pytest.mark.parametrize("verb", VERBS)
    def test_foreign_flag_is_a_usage_error(self, verb, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv, flag = FOREIGN_FLAGS[verb]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, *flag])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: ftmc {verb} ")
        line = _one_error_line(err, f"ftmc {verb}")
        assert f"unrecognized arguments: {flag[0]}" in line
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("verb", VERBS)
    def test_help_exits_0(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: ftmc {verb} ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig3", "--sets", "0"],
            ["fig3", "--sets", "-3"],
            ["backends", "--sets", "0"],
            ["validate", "--sets", "0"],
            ["campaign", "fig3", "--sets", "0"],
            ["campaign", "fig1", "--jobs", "0"],
            ["campaign", "fig1", "--max-retries", "-1"],
            ["campaign", "fig1", "--timeout", "0"],
            ["campaign", "fig1", "--retry-delay", "-1"],
            ["fig3", "--sets", "many"],
        ],
        ids=" ".join,
    )
    def test_bad_counts_are_refused_as_parsed(self, argv, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        line = _one_error_line(capsys.readouterr().err, f"ftmc {argv[0]}")
        flag = next(arg for arg in argv if arg.startswith("--"))
        assert f"argument {flag}:" in line
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, module, function, expected",
        [
            (["backends"], "repro.experiments.backend_comparison",
             "run_backend_comparison", {}),
            (["backends", "--sets", "300"],
             "repro.experiments.backend_comparison",
             "run_backend_comparison", {"sets_per_point": 300}),
            (["sensitivity", "--sets", "300"],
             "repro.experiments.sensitivity", "sweep_p_hi",
             {"sets_per_point": 300}),
        ],
    )
    def test_only_given_flags_reach_the_library(self, argv, module, function,
                                                expected, monkeypatch, capsys):
        """No verb caps ``--sets`` or fills in a default of its own."""
        import importlib

        class Called(Exception):
            pass

        def record(**kwargs):
            raise Called(kwargs)

        monkeypatch.setattr(importlib.import_module(module), function, record)
        with pytest.raises(Called) as called:
            main(argv)
        assert called.value.args[0] == expected

    @pytest.mark.parametrize(
        "argv, experiment, given",
        [
            (["fig3"], "fig3", {}),
            (["fig3", "--sets", "700", "--seed", "4", "--panels", "b"],
             "fig3", {"sets_per_point": 700, "seed": 4, "panels": ["b"]}),
            (["fig3", "--failure-probabilities", "1e-4",
              "--utilizations", "0.5", "0.6"],
             "fig3", {"failure_probabilities": [1e-4],
                      "utilizations": [0.5, 0.6]}),
            (["validate"], "validation", {}),
            (["validate", "--sets", "60", "--seed", "2"],
             "validation", {"sets_per_point": 60, "seed": 2}),
        ],
    )
    def test_only_given_flags_reach_the_campaign(self, argv, experiment,
                                                 given, monkeypatch):
        """The in-process verbs run their campaign on its own options,
        with only the flags given changed."""
        import repro.runner.campaigns
        from repro.runner import get_campaign

        class Called(Exception):
            pass

        def record(*args):
            raise Called(*args)

        monkeypatch.setattr(repro.runner.campaigns, "run_inline", record)
        with pytest.raises(Called) as called:
            main(argv)
        options = dict(get_campaign(experiment).default_options(), **given)
        assert called.value.args == (experiment, options)

    def test_campaign_help_names_every_campaign(self, capsys):
        from repro.runner import campaign_names

        with pytest.raises(SystemExit):
            main(["campaign", "--help"])
        out = capsys.readouterr().out
        assert [name for name in campaign_names() if name not in out] == []

    @pytest.mark.parametrize(
        "name",
        ["fig1", "fig2", "fig3", "tables", "validation", "multicore"],
    )
    def test_campaign_runs_its_own_default_options(self, name, monkeypatch,
                                                   capsys):
        import repro.runner
        from repro.runner import get_campaign

        seen = {}

        class Report:
            exit_code = 0

            def render(self):
                return "done"

        def run_campaign(experiment, options, **kwargs):
            seen.update(options, _kwargs=kwargs)
            return Report()

        monkeypatch.setattr(repro.runner, "run_campaign", run_campaign)
        assert main(["campaign", name]) == 0
        kwargs = seen.pop("_kwargs")
        assert seen == get_campaign(name).default_options()
        # run_campaign's own defaults hold for everything not given.
        assert kwargs["retry"] is None
        assert set(kwargs) == {"output_dir", "retry", "on_event"}


class TestMain:
    @pytest.mark.parametrize("name", ["table1", "table2", "table3", "table4"])
    def test_tables_run(self, name, capsys):
        assert main([name]) == 0
        out = capsys.readouterr().out
        assert name in out

    def test_fig1_runs_with_chart(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "legend" in out

    def test_fig2_runs(self, capsys):
        assert main(["fig2"]) == 0
        assert "fig2" in capsys.readouterr().out

    def test_fig3_small_run(self, capsys):
        assert (
            main(
                [
                    "fig3",
                    "--panels", "a",
                    "--failure-probabilities", "1e-5",
                    "--utilizations", "0.5", "0.9",
                    "--sets", "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "acceptance ratio" in out

    def test_analyze_requires_system(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze"])
        assert exit_info.value.code == 2
        assert "required: --system" in capsys.readouterr().err

    def test_analyze_feasible_system(self, tmp_path, capsys, fms):
        from repro.io import save_taskset

        path = str(tmp_path / "fms.json")
        save_taskset(fms, path)
        assert main(["analyze", "--system", path]) == 0
        out = capsys.readouterr().out
        assert "CERTIFIABLE" in out
        assert "degradation" in out

    def test_analyze_infeasible_exit_code(self, tmp_path, capsys):
        import json

        doc = {
            "criticality": {"hi": "B", "lo": "D"},
            "tasks": [
                {"name": "hi", "period": 100, "wcet": 60,
                 "criticality": "HI", "failure_probability": 1e-9},
                {"name": "lo", "period": 100, "wcet": 60,
                 "criticality": "LO", "failure_probability": 1e-9},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--system", str(path)]) == 1
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_output_dir_writes_csv(self, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        assert main(["table1", "--output-dir", out_dir]) == 0
        assert os.path.exists(os.path.join(out_dir, "table1.csv"))
        with open(os.path.join(out_dir, "table1.csv")) as handle:
            header = handle.readline().strip()
        assert header == "level,pfh_requirement,safety_related"

    def test_bench_quick_smoke(self, tmp_path, capsys, monkeypatch):
        """``ftmc bench --quick`` renders, writes, and maps the guard to
        the exit code.  The measurement itself is covered by
        ``test_perf_bench``; here a canned report keeps the smoke fast."""
        import repro.perf

        report = {
            "schema": "ftmc-bench/1", "date": "2026-01-01", "quick": True,
            "seed": 0, "numpy": True, "budget_ms_per_subject": 1.0,
            "kernels": {"pdc": {"ns_per_op": 10.0, "ops": 3, "total_ms": 0.1}},
            "end_to_end": {},
            "speedups": {"dbf_mc_analyse": 5.0, "fig3_point": 3.0},
            "cache": {"entries": 0, "hits": 0, "misses": 0},
            "guard": {"passed": True, "failures": {}},
        }
        calls = []

        def run_benchmarks(**options):
            calls.append(options)
            return report

        monkeypatch.setattr(repro.perf, "run_benchmarks", run_benchmarks)
        out_dir = str(tmp_path / "bench")
        assert main(["bench", "--quick", "--output-dir", out_dir]) == 0
        assert calls == [{"quick": True}]  # the seed stays the library's
        out = capsys.readouterr().out
        assert "perf guard: PASS" in out
        assert os.path.exists(os.path.join(out_dir, "BENCH_2026-01-01.json"))

    def test_bench_guard_failure_exit_code(self, capsys, monkeypatch):
        import repro.perf

        report = {
            "schema": "ftmc-bench/1", "date": "2026-01-01", "quick": True,
            "seed": 0, "numpy": True, "budget_ms_per_subject": 1.0,
            "kernels": {}, "end_to_end": {},
            "speedups": {"dbf_mc_analyse": 1.1, "fig3_point": 3.0},
            "cache": {"entries": 0, "hits": 0, "misses": 0},
            "guard": {
                "passed": False,
                "failures": {
                    "dbf_mc_analyse": {"speedup": 1.1, "floor": 3.0}
                },
            },
        }
        monkeypatch.setattr(
            repro.perf, "run_benchmarks", lambda **options: report
        )
        assert main(["bench", "--quick"]) == 1
        assert "perf guard: FAIL" in capsys.readouterr().out

    @staticmethod
    def _minimal_report() -> dict:
        """A well-formed scalar-tier report (floors legitimately skipped)."""
        return {
            "schema": "ftmc-bench/1", "date": "2026-01-01", "quick": True,
            "seed": 0, "numpy": False, "budget_ms_per_subject": 1.0,
            "kernels": {"pdc": {"ns_per_op": 10.0, "ops": 3, "total_ms": 0.1}},
            "end_to_end": {
                "fig3_point": {"ns_per_op": 99.0, "ops": 1, "total_ms": 0.1},
            },
            "speedups": {},
            "cache": {"entries": 0, "hits": 0, "misses": 0},
            "guard": {"passed": None, "failures": {}},
        }

    def test_bench_check_accepts_valid_report(self, tmp_path, capsys):
        import json

        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(self._minimal_report()))
        assert main(["bench", "--check", str(path)]) == 0
        assert "all floors hold" in capsys.readouterr().out

    def test_bench_check_exits_1_on_malformed_rows(self, tmp_path, capsys):
        """Regression: a malformed baseline row must fail the check with
        exit 1 and a named problem — not a KeyError, not a silent pass."""
        import json

        report = self._minimal_report()
        del report["end_to_end"]["fig3_point"]["ns_per_op"]
        report["kernels"]["pdc"] = "not-a-row"
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(report))
        assert main(["bench", "--check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "end_to_end.fig3_point" in err
        assert "kernels.pdc" in err

    def test_bench_check_exits_1_on_floor_regression(self, tmp_path, capsys):
        import json

        from repro.perf import SPEEDUP_FLOORS

        report = self._minimal_report()
        report["numpy"] = True
        report["speedups"] = {name: floor + 1.0
                              for name, floor in SPEEDUP_FLOORS.items()}
        report["speedups"]["dbf_mc_analyse"] = 0.5
        # api/plan sections absent: their qps floors must be reported as
        # missing rather than crashing the validator.
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(report))
        assert main(["bench", "--check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "dbf_mc_analyse" in err and "below floor" in err

    def test_bench_check_requires_a_path(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--check"])
        assert exit_info.value.code == 2
        assert "argument --check: expected one argument" in (
            capsys.readouterr().err
        )

    def test_bench_check_rejects_unreadable_or_invalid(self, tmp_path, capsys):
        assert main(["bench", "--check", str(tmp_path / "missing.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{torn")
        assert main(["bench", "--check", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_backends_command(self, capsys):
        assert main(["backends", "--sets", "5"]) == 0
        out = capsys.readouterr().out
        assert "backend-comparison" in out
        assert "amc-max" in out

    def test_sensitivity_command(self, tmp_path, capsys):
        out_dir = str(tmp_path / "sens")
        assert main(["sensitivity", "--sets", "5",
                     "--output-dir", out_dir]) == 0
        out = capsys.readouterr().out
        assert "sweep-df" in out
        assert "sweep-os" in out
        assert "sweep-phi" in out
        assert os.path.exists(os.path.join(out_dir, "sweep-df.csv"))


GOOD_DOC = {
    "name": "pair",
    "criticality": {"hi": "B", "lo": "D"},
    "tasks": [
        {"name": "hi", "period": 100, "wcet": 10,
         "criticality": "HI", "failure_probability": 1e-4},
        {"name": "lo", "period": 50, "wcet": 5,
         "criticality": "LO", "failure_probability": 1e-4},
    ],
}


class TestAnalyzeErrorHandling:
    """Malformed input yields a one-line diagnostic, never a traceback."""

    def test_missing_file(self, tmp_path, capsys):
        assert main(["analyze", "--system", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ftmc: error: cannot read")
        assert "Traceback" not in err
        assert err.count("\n") == 1

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["analyze", "--system", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err
        assert "Traceback" not in err

    def test_semantically_invalid_document(self, tmp_path, capsys):
        doc = dict(GOOD_DOC, tasks=[dict(GOOD_DOC["tasks"][0], period=-1)])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--system", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ftmc: error:")
        assert "period" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--operation-hours", "inf"],
            ["--operation-hours", "nan"],
            ["--operation-hours", "0"],
            ["--operation-hours", "-1"],
            ["--degradation-factor", "1"],
        ],
        ids=" ".join,
    )
    def test_bad_numbers_are_one_line(self, tmp_path, capsys, flags):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(GOOD_DOC))
        assert main(["analyze", "--system", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ftmc: error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestLintCommand:
    def _write(self, tmp_path, doc) -> str:
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_requires_a_path(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint"])
        assert exit_info.value.code == 2
        assert "required: FILE" in capsys.readouterr().err

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        assert main(["lint", self._write(tmp_path, GOOD_DOC)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s), 0 info(s)" in out

    def test_seeded_defect_is_flagged(self, tmp_path, capsys):
        doc = dict(GOOD_DOC, tasks=[dict(GOOD_DOC["tasks"][0], wcet=-3),
                                    GOOD_DOC["tasks"][1]])
        assert main(["lint", self._write(tmp_path, doc)]) == 1
        out = capsys.readouterr().out
        assert "FTMC003" in out
        assert "WCET must be non-negative" in out

    def test_missing_file_is_a_diagnostic_not_a_traceback(self, tmp_path,
                                                          capsys):
        assert main(["lint", str(tmp_path / "absent.json")]) == 1
        captured = capsys.readouterr()
        assert "FTMC040" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_strict_escalates_warnings(self, tmp_path, capsys):
        doc = dict(GOOD_DOC, tasks=[
            dict(GOOD_DOC["tasks"][0], deadline=200),  # D > T warning
            GOOD_DOC["tasks"][1],
        ])
        path = self._write(tmp_path, doc)
        assert main(["lint", path]) == 0
        assert main(["lint", path, "--strict"]) == 2
        assert "FTMC005" in capsys.readouterr().out

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        assert main(["lint", self._write(tmp_path, GOOD_DOC),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"] == {"errors": 0, "warnings": 0, "infos": 0}
        assert payload["diagnostics"] == []

    def test_system_flag_is_refused(self, tmp_path, capsys):
        """``lint`` takes its file as a positional only."""
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "--system", self._write(tmp_path, GOOD_DOC)])
        assert exit_info.value.code == 2
        assert "usage: ftmc lint" in capsys.readouterr().err

    def test_golden_json_output(self, capsys, monkeypatch):
        """--format json output is byte-stable (golden file)."""
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "tests/data/lint_fixture.json",
                     "--format", "json"]) == 1
        out = capsys.readouterr().out
        with open(os.path.join(REPO_ROOT, "tests", "data",
                               "lint_fixture.expected.json")) as handle:
            expected = handle.read()
        assert out == expected


class TestSelfcheckCommand:
    def test_strict_mode_also_clean(self, capsys):
        assert main(["selfcheck", "--strict"]) == 0

    def test_explicit_target_directory(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("f = open(p, 'w')\n")
        assert main(["selfcheck", str(tmp_path)]) == 1
        assert "FTMCC05" in capsys.readouterr().out

    def test_nonexistent_target_fails_cleanly(self, tmp_path, capsys):
        assert main(["selfcheck", str(tmp_path / "missing")]) == 2
        assert "not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "options",
        [
            ["--fix"],
            ["--no-baseline"],
            ["--update-baseline"],
            ["--baseline", "x.json"],
            ["--profile", "tests"],
            ["--format", "sarif"],
        ],
    )
    def test_removed_options_are_refused(self, options, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["selfcheck", *options])
        assert exit_info.value.code == 2
        assert "usage: ftmc" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


#: Each grid flag with a value, the option it sets, and the campaigns
#: that read it; every other campaign refuses it.
CAMPAIGN_FLAGS = {
    "--sets": (["--sets", "3"], "sets_per_point", 3,
               {"fig3", "validation", "multicore"}),
    "--seed": (["--seed", "9"], "seed", 9, {"fig3", "validation", "multicore"}),
    "--panels": (["--panels", "b"], "panels", ["b"], {"fig3"}),
    "--failure-probabilities": (["--failure-probabilities", "1e-4"],
                                "failure_probabilities", [1e-4], {"fig3"}),
    "--utilizations": (["--utilizations", "0.5"], "utilizations", [0.5],
                       {"fig3", "validation"}),
}


class TestCampaignCommand:
    @pytest.mark.parametrize("flag", list(CAMPAIGN_FLAGS))
    @pytest.mark.parametrize(
        "experiment",
        ["fig1", "fig2", "fig3", "tables", "validation", "multicore"],
    )
    def test_flag_is_read_or_refused(self, experiment, flag, tmp_path,
                                     capsys, monkeypatch):
        """A flag the experiment reads sets its option; any other is a
        usage error, before a directory is made or a shard runs."""
        import repro.runner
        from repro.runner import get_campaign

        monkeypatch.chdir(tmp_path)
        argv, key, value, readers = CAMPAIGN_FLAGS[flag]
        seen = {}

        class Report:
            exit_code = 0

            def render(self):
                return "done"

        def run_campaign(target, options, **kwargs):
            seen.update(options)
            return Report()

        monkeypatch.setattr(repro.runner, "run_campaign", run_campaign)
        if experiment in readers:
            assert main(["campaign", experiment, *argv]) == 0
            expected = get_campaign(experiment).default_options()
            assert seen == dict(expected, **{key: value})
            return
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", experiment, *argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ftmc campaign ")
        line = _one_error_line(err, "ftmc campaign")
        assert f"campaign {experiment!r} does not read {flag}" in line
        assert seen == {}
        assert list(tmp_path.iterdir()) == []

    def test_parser_accepts_campaign_knobs(self):
        args = build_parser().parse_args(
            ["campaign", "fig1", "--chaos", "42", "--resume",
             "--timeout", "9", "--max-retries", "4", "--retry-delay", "0.2"]
        )
        assert args.verb == "campaign"
        assert args.experiment == "fig1"
        assert args.chaos_seed == 42
        assert args.resume is True
        assert args.timeout == 9.0
        assert args.max_retries == 4
        assert args.base_delay == 0.2

    def test_campaign_without_target_fails(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign"])
        assert exit_info.value.code == 2
        assert "required: EXPERIMENT" in capsys.readouterr().err

    def test_unknown_campaign_fails(self, capsys):
        assert main(["campaign", "fig9"]) == 2
        assert "unknown campaign" in capsys.readouterr().err

    def test_negative_max_retries_fails(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "fig1", "--max-retries", "-1"])
        assert exit_info.value.code == 2
        assert "argument --max-retries: must be >= 0" in (
            capsys.readouterr().err
        )

    def test_retry_knob_keeps_the_chaos_backoff(self, monkeypatch, capsys):
        """``--max-retries`` alone keeps run_campaign's policy otherwise."""
        import repro.runner
        from repro.runner import CHAOS_RETRY

        seen = {}

        class Report:
            exit_code = 0

            def render(self):
                return "done"

        def run_campaign(experiment, options, **kwargs):
            seen.update(kwargs)
            return Report()

        monkeypatch.setattr(repro.runner, "run_campaign", run_campaign)
        assert main(["campaign", "fig1", "--chaos", "7",
                     "--max-retries", "5"]) == 0
        assert seen["chaos_seed"] == 7
        assert seen["retry"].max_retries == 5
        assert seen["retry"].base_delay == CHAOS_RETRY.base_delay
        assert main(["campaign", "fig1", "--retry-delay", "40"]) == 0
        assert seen["retry"].base_delay == seen["retry"].max_delay == 40.0

    def test_tables_campaign_runs_end_to_end(self, tmp_path, capsys):
        assert main(
            ["campaign", "tables", "--output-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "4/4 shards completed" in out
        assert (tmp_path / "tables.coverage.json").exists()
        assert (tmp_path / "table1.json").exists()

    def test_resume_without_checkpoint_exits_2(self, tmp_path, capsys):
        assert main(
            ["campaign", "tables", "--output-dir", str(tmp_path), "--resume"]
        ) == 2
        assert "no usable checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "fig1", "--executors", "2"],
            ["campaign", "fig1", "--executor-restarts", "1"],
            ["campaign-worker"],
        ],
    )
    def test_removed_options_are_refused(self, argv, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage: ftmc" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no results/ directory


class TestPlanCommand:
    @pytest.fixture()
    def system(self, tmp_path, fms):
        from repro.io import save_taskset

        path = str(tmp_path / "fms.json")
        save_taskset(fms, path)
        return path

    def test_plan_requires_system(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["plan"])
        assert exit_info.value.code == 2
        assert "required: --system, --cores" in capsys.readouterr().err

    def test_plan_schedulable_prints_partition(self, system, capsys):
        assert main(["plan", "--system", system, "--cores", "2"]) == 0
        out = capsys.readouterr().out
        assert "SCHEDULABLE" in out
        assert "P0" in out and "P1" in out
        assert "strategy" in out

    def test_plan_positional_form_is_refused(self, system, capsys):
        """``plan`` reads its file from ``--system`` only."""
        with pytest.raises(SystemExit) as exit_info:
            main(["plan", system, "--cores", "2"])
        assert exit_info.value.code == 2
        assert "usage: ftmc plan" in capsys.readouterr().err

    def test_plan_infeasible_exit_code(self, system, capsys):
        assert main(["plan", "--system", system, "--cores", "1"]) == 1

    def test_plan_no_exact_notes_inconclusive(self, system, capsys):
        code = main(
            ["plan", "--system", system, "--cores", "1", "--no-exact"]
        )
        out = capsys.readouterr().out
        if code == 1 and "INCONCLUSIVE" not in out:
            pytest.fail("heuristic-only miss must be flagged inconclusive")

    def test_plan_unknown_backend(self, system, capsys):
        assert main(
            ["plan", "--system", system, "--cores", "2",
             "--backend", "pfair"]
        ) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_plan_bad_cores(self, system, capsys):
        assert main(["plan", "--system", system, "--cores", "0"]) == 2

    def test_plan_infinite_operation_hours(self, system, capsys):
        assert main(
            ["plan", "--system", system, "--cores", "2",
             "--operation-hours", "inf"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("ftmc: error:") and "Traceback" not in err

    def test_plan_missing_file(self, tmp_path, capsys):
        assert main(
            ["plan", "--system", str(tmp_path / "ghost.json"), "--cores", "2"]
        ) == 2

    def test_plan_degradation_factor_needs_a_degrade_backend(self, system,
                                                            capsys):
        """As on ``/v1/plan``: a kill backend refuses the factor."""
        assert main(
            ["plan", "--system", system, "--cores", "2",
             "--degradation-factor", "3"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("ftmc: error:") and err.count("\n") == 1
        assert "does not take a degradation factor" in err

    def test_campaign_multicore_listed(self, capsys):
        assert main(["campaign", "fig9"]) == 2
        assert "multicore" in capsys.readouterr().err
