"""The multicore sweep experiment and its campaign wiring."""

from __future__ import annotations

from repro.experiments.multicore_sweep import (
    MULTICORE_COLUMNS,
    multicore_point,
    render_multicore,
)
from repro.runner import build_options, run_campaign, run_inline


def fast_options():
    options = build_options("multicore", sets=4)
    options["cores"] = [1, 2]
    return options


FILES = ("multicore.json", "multicore.csv")


class TestMulticorePoint:
    def test_deterministic_across_calls(self):
        first = multicore_point(2, 1, 0.7, 4, "edf-vd", 2000, 0)
        second = multicore_point(2, 1, 0.7, 4, "edf-vd", 2000, 0)
        assert first == second

    def test_planned_dominates_heuristic(self):
        for m in (1, 2, 3):
            row = multicore_point(m, m - 1, 0.8, 6, "edf-vd", 2000, 0)
            _, heuristic, planned, rescues, _, sets = row
            assert planned >= heuristic
            assert rescues == round((planned - heuristic) * sets)

    def test_row_shape(self):
        row = multicore_point(1, 0, 0.5, 3, "edf-vd", 1000, 1)
        assert len(row) == len(MULTICORE_COLUMNS)
        assert row[0] == 1
        assert row[5] == 3


class TestMulticoreSweep:
    def test_sweep_and_render(self):
        [result] = run_inline(
            "multicore",
            dict(build_options("multicore", sets=3), cores=[1, 2],
                 max_nodes=1000),
        )
        assert result.name == "multicore"
        assert list(result.column("m")) == [1, 2]
        chart = render_multicore(result)
        assert "acceptance" in chart


class TestMulticoreCampaign:
    def _run(self, tmp_path, subdir, **kwargs):
        return run_campaign(
            "multicore",
            options=fast_options(),
            output_dir=str(tmp_path / subdir),
            timeout=120.0,
            **kwargs,
        )

    def test_jobs_byte_identical_to_serial(self, tmp_path):
        self._run(tmp_path, "serial")
        self._run(tmp_path, "pool", jobs=2)
        for name in FILES:
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "pool" / name
            ).read_bytes()

    def test_resume_byte_identical(self, tmp_path):
        self._run(tmp_path, "out")
        originals = {
            name: (tmp_path / "out" / name).read_bytes() for name in FILES
        }
        report = self._run(tmp_path, "out", resume=True)
        assert report.exit_code == 0
        for name, original in originals.items():
            assert (tmp_path / "out" / name).read_bytes() == original
