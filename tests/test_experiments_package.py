"""``repro.experiments`` resolves its re-exports on first use.

Importing one experiment module must not load the others: perfbench's
fig3-sweep and api-mix import ``repro.experiments.fig3``, and
``overhead_study`` loads all of :mod:`repro.sim`.  Each probe runs in a
fresh interpreter, where ``sys.modules`` holds only what it imported.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro.experiments

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _probe(script: str) -> object:
    """Run ``script`` in a fresh interpreter; its last stdout line, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_fig3_loads_no_other_experiment_and_no_simulator():
    loaded = _probe(
        "import json, sys\n"
        "import repro.experiments.fig3\n"
        "print(json.dumps(sorted(m for m in ("
        "'repro.sim', 'repro.experiments.overhead_study', "
        "'repro.experiments.sensitivity', "
        "'repro.experiments.backend_comparison') if m in sys.modules)))\n"
    )
    assert loaded == []


def test_a_fig3_shard_imports_nothing_after_the_campaigns():
    """A campaign's forked workers then import nothing per shard."""
    added = _probe(
        "import json, sys\n"
        "from repro.runner.campaigns import get_campaign\n"
        "campaign = get_campaign('fig3')\n"
        "options = dict(campaign.default_options(), sets_per_point=2)\n"
        "spec = campaign.plan(options)[0]\n"
        "before = set(sys.modules)\n"
        "campaign.execute(dict(spec.params))\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    assert added == []


@pytest.mark.parametrize("name", repro.experiments.__all__)
def test_every_export_is_its_home_modules_object(name):
    home = importlib.import_module(
        f"repro.experiments.{repro.experiments._HOMES[name]}"
    )
    exported = getattr(repro.experiments, name)
    assert exported is getattr(home, name)
    if callable(exported):  # defined there, not imported from elsewhere
        assert exported.__module__ == home.__name__


def test_examples_import_form_and_unknown_names():
    from repro.experiments import render_fig1, render_fig3_panel
    from repro.experiments.fig1 import render_fig1 as fig1_home
    from repro.experiments.fig3 import render_fig3_panel as fig3_home

    assert (render_fig1, render_fig3_panel) == (fig1_home, fig3_home)
    assert set(repro.experiments.__all__) == set(repro.experiments._HOMES)
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.experiments.no_such_name  # noqa: B018
