"""The committed ``results/`` CSVs regenerate, and the paper's claims hold on them.

Each regeneration case runs ``ftmc <artifact> --output-dir`` in-process
and compares the CSV it writes with the committed one, so a change that
moves an artifact byte fails here unless it updates ``results/`` too.
Only the artifacts that regenerate in well under a second are pinned
here; CI regenerates the Fig. 3 series.  :class:`TestFmsSweepClaims` and
:class:`TestFig3Claims` check EXPERIMENTS.md's claims against the
committed Fig. 1/2 rows and Fig. 3 series.
"""

import csv
import math
import os

import pytest

from repro.cli import main

RESULTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results"
)


@pytest.mark.parametrize(
    "artifact", ["fig1", "fig2", "table1", "table2", "table3", "table4"]
)
def test_committed_csv_regenerates(artifact, tmp_path, capsys):
    assert main([artifact, "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    with open(os.path.join(RESULTS, f"{artifact}.csv"), "rb") as handle:
        committed = handle.read()
    assert (tmp_path / f"{artifact}.csv").read_bytes() == committed


def _fms_sweep(artifact: str) -> dict[int, dict[str, str]]:
    """The committed Fig. 1 or Fig. 2 rows, keyed by ``n'``."""
    with open(os.path.join(RESULTS, f"{artifact}.csv"), newline="") as handle:
        return {int(row["n_prime"]): row for row in csv.DictReader(handle)}


def _sweep_column(artifact: str, name: str) -> list[str]:
    rows = _fms_sweep(artifact)
    return [rows[n_prime][name] for n_prime in sorted(rows)]


class TestFmsSweepClaims:
    """EXPERIMENTS.md's Fig. 1 (killing) and Fig. 2 (degradation) claims.

    :func:`test_committed_csv_regenerates` pins these rows; their ``safe``
    column is line 4's verdict on the FMS at each ``n'``.
    """

    @pytest.mark.parametrize("artifact", ["fig1", "fig2"])
    def test_u_mc_rises_with_n_prime(self, artifact):
        u_mc = [float(value) for value in _sweep_column(artifact, "u_mc")]
        assert all(a < b or a == b == math.inf for a, b in zip(u_mc, u_mc[1:]))

    @pytest.mark.parametrize("artifact", ["fig1", "fig2"])
    def test_schedulable_iff_n_prime_at_most_two(self, artifact):
        rows = _fms_sweep(artifact)
        assert {n: row["schedulable"] == "True" for n, row in rows.items()} == {
            1: True, 2: True, 3: False, 4: False,
        }

    @pytest.mark.parametrize("artifact", ["fig1", "fig2"])
    def test_pfh_lo_falls_with_n_prime(self, artifact):
        pfh = [float(value) for value in _sweep_column(artifact, "pfh_lo")]
        assert all(a > b for a, b in zip(pfh, pfh[1:]))

    def test_killing_safe_iff_n_prime_at_least_three(self):
        rows = _fms_sweep("fig1")
        assert {n: row["safe"] == "True" for n, row in rows.items()} == {
            1: False, 2: False, 3: True, 4: True,
        }

    def test_every_degradation_point_safe(self):
        assert set(_sweep_column("fig2", "safe")) == {"True"}

    @pytest.mark.parametrize(
        "artifact, low, high", [("fig1", -1.0, 0.0), ("fig2", -12.0, -10.0)]
    )
    def test_order_of_magnitude_at_n_prime_two(self, artifact, low, high):
        """Paper: 1e-1 under killing, 1e-11 under degradation."""
        assert low <= float(_fms_sweep(artifact)[2]["log10_pfh_lo"]) <= high

    def test_degradation_more_than_eight_orders_safer(self):
        """The ~10-order gap of Section 5.1 (9.7 measured)."""
        kill, degrade = (
            float(_fms_sweep(artifact)[2]["log10_pfh_lo"])
            for artifact in ("fig1", "fig2")
        )
        assert kill - degrade > 8.0


#: ``results/fig3<panel>-f<f>.csv`` spells f = 1e-3 and 1e-5 as Python
#: prints them.
FIG3_F = ("0.001", "1e-05")


def _fig3(panel: str, f: str) -> dict[str, list[float]]:
    """One committed Fig. 3 series, column by column."""
    path = os.path.join(RESULTS, f"fig3{panel}-f{f}.csv")
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return {name: [float(row[name]) for row in rows] for name in rows[0]}


def _gaps(series: dict[str, list[float]]) -> list[float]:
    return [
        with_ - without
        for with_, without in zip(
            series["acceptance_with"], series["acceptance_without"]
        )
    ]


class TestFig3Claims:
    """EXPERIMENTS.md's Fig. 3 claims, read from the committed series.

    CI regenerates those series byte for byte (``ftmc fig3 --sets 200``),
    so no sweep runs here.
    """

    @pytest.mark.parametrize("f", FIG3_F)
    def test_grid_and_sample_size(self, f):
        grid = _fig3("a", f)["utilization"]
        for panel in "abcd":
            series = _fig3(panel, f)
            assert series["utilization"] == grid
            assert series["sets"] == [200] * len(grid)

    @pytest.mark.parametrize("f", FIG3_F)
    @pytest.mark.parametrize("panel", "abcd")
    def test_adaptation_never_lowers_acceptance(self, panel, f):
        assert min(_gaps(_fig3(panel, f))) >= 0

    @pytest.mark.parametrize("f", FIG3_F)
    @pytest.mark.parametrize("panel", "ac")
    def test_adaptation_helps_when_lo_has_no_ceiling(self, panel, f):
        """(3a/3c): killing and degradation widen the region, LO in {D, E}."""
        assert max(_gaps(_fig3(panel, f))) > 0

    @pytest.mark.parametrize("f", FIG3_F)
    def test_killing_never_helps_when_lo_is_level_c(self, f):
        """(3b): the gap is zero at every utilization."""
        assert all(gap == 0 for gap in _gaps(_fig3("b", f)))

    @pytest.mark.parametrize("f", FIG3_F)
    def test_degradation_helps_at_least_as_much_as_killing(self, f):
        """(3d vs 3b), point by point, LO = C."""
        for kill, degrade in zip(_gaps(_fig3("b", f)), _gaps(_fig3("d", f))):
            assert degrade >= kill

    @pytest.mark.parametrize("f", FIG3_F)
    @pytest.mark.parametrize("pair", ["ac", "bd"])
    def test_panels_with_one_lo_level_share_their_baseline(self, pair, f):
        first, second = (_fig3(panel, f) for panel in pair)
        assert first["acceptance_without"] == second["acceptance_without"]

    @pytest.mark.parametrize("panel", "abcd")
    def test_safer_hardware_never_lowers_acceptance(self, panel):
        """f = 1e-5 accepts at least as much as f = 1e-3, in both columns."""
        coarse, fine = (_fig3(panel, f) for f in FIG3_F)
        for column in ("acceptance_without", "acceptance_with"):
            assert all(x >= y for x, y in zip(fine[column], coarse[column]))

    @pytest.mark.parametrize("panel, gap", [("a", 0.52), ("c", 0.265)])
    def test_largest_gap_at_low_failure_probability(self, panel, gap):
        """The "killing up to +0.52, degradation up to +0.265" of the text,
        both at U = 0.85."""
        series = _fig3(panel, "1e-05")
        gaps = _gaps(series)
        assert max(gaps) == pytest.approx(gap, abs=1e-9)
        assert series["utilization"][gaps.index(max(gaps))] == 0.85
