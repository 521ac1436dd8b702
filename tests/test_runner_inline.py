"""``run_inline``: each campaign definition run in the calling process.

The in-process verbs (``ftmc table1``..``table4``, ``fig1``, ``fig2``,
``fig3``, ``all``, ``validate``) and ``ftmc campaign`` share one
campaign definition per experiment, so both must write the same result
bytes; and the in-process verbs must not pay for the supervisor's
imports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.runner import (
    CampaignConfigError,
    build_options,
    campaign_names,
    run_campaign,
    run_inline,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

#: Small options per experiment (``None``: its own default options).
SMALL = {
    "fig1": None,
    "fig2": None,
    "fig3": dict(build_options("fig3", sets=2, panels=["a", "d"],
                               failure_probabilities=[1e-3],
                               utilizations=[0.7, 0.9])),
    "tables": None,
    "validation": dict(build_options("validation", sets=2),
                       utilizations=[0.6], runs_per_set=1, horizon=30_000.0),
    "multicore": dict(build_options("multicore", sets=2), cores=[1, 2],
                      max_nodes=1000),
}


def test_small_options_cover_every_campaign():
    assert list(SMALL) == campaign_names()


@pytest.mark.parametrize("name", list(SMALL))
def test_inline_results_equal_the_campaign_files(name, tmp_path):
    report = run_campaign(name, options=SMALL[name], output_dir=str(tmp_path),
                          jobs=1, timeout=300.0)
    assert report.exit_code == 0
    results = run_inline(name, SMALL[name])
    written = sorted(
        p.name for p in tmp_path.iterdir()
        if p.suffix in (".json", ".csv") and ".coverage." not in p.name
    )
    assert written == sorted(
        f"{r.name}{suffix}" for r in results for suffix in (".json", ".csv")
    )
    for result in results:
        assert json.dumps(result.to_dict(), indent=2) + "\n" == (
            tmp_path / f"{result.name}.json"
        ).read_text()
        assert result.to_csv() == (tmp_path / f"{result.name}.csv").read_text()


def test_repeated_shard_ids_are_refused():
    with pytest.raises(CampaignConfigError, match="duplicate shard ids"):
        run_inline("tables", {"tables": ["table1", "table1"]})


def test_fig3_verb_refuses_a_repeated_grid_point(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["fig3", "--sets", "1", "--utilizations", "0.5", "0.5",
                 "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "ftmc: error: campaign 'fig3' has duplicate shard ids\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["table1"],
        ["fig1"],
        ["fig3", "--sets", "1", "--panels", "a",
         "--failure-probabilities", "1e-3", "--utilizations", "0.5"],
        ["all", "--sets", "1", "--panels", "a",
         "--failure-probabilities", "1e-3", "--utilizations", "0.5"],
        ["validate", "--sets", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_in_process_verbs_load_no_supervisor(argv):
    """Forks, the supervisor and the planner stay out of these verbs."""
    script = (
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in ('multiprocessing', "
        "'repro.runner.supervisor', 'repro.planner') if m in sys.modules)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    assert json.loads(done.stdout) == [0, []]
