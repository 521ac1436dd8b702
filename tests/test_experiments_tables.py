"""Tests for the table reproduction drivers and the results container."""

import math

import pytest

from repro.experiments.results import ExperimentResult
from repro.experiments.tables import (
    table1,
    table2_example31,
    table3_example41,
    table4_fms,
)


class TestExperimentResult:
    def test_add_row_validates_arity(self):
        result = ExperimentResult("x", "d", ["a", "b"])
        result.add_row(1, 2)
        with pytest.raises(ValueError, match="columns"):
            result.add_row(1)

    def test_column_extraction(self):
        result = ExperimentResult("x", "d", ["a", "b"])
        result.add_row(1, 10)
        result.add_row(2, 20)
        assert result.column("b") == [10, 20]

    def test_csv_round_trip(self, tmp_path):
        result = ExperimentResult("x", "d", ["a", "b"])
        result.add_row(1, 2.5)
        path = tmp_path / "out.csv"
        text = result.to_csv(str(path))
        assert path.read_text() == text
        lines = text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"

    def test_render_contains_everything(self):
        result = ExperimentResult("x", "my description", ["col"])
        result.add_row(3.14159)
        result.extend_notes(["important"])
        text = result.render()
        assert "my description" in text
        assert "3.14159" in text
        assert "note: important" in text

    def test_render_empty(self):
        result = ExperimentResult("x", "d", ["a"])
        assert "a" in result.render()


class TestTable1:
    def test_five_levels(self):
        result = table1()
        assert len(result.rows) == 5
        assert result.column("level") == ["A", "B", "C", "D", "E"]

    def test_ceiling_values(self):
        result = table1()
        ceilings = dict(zip(result.column("level"), result.column("pfh_requirement")))
        assert ceilings["A"] == 1e-9
        assert ceilings["B"] == 1e-7
        assert ceilings["C"] == 1e-5
        assert math.isinf(ceilings["D"])
        assert math.isinf(ceilings["E"])


class TestTable2:
    def test_paper_values_in_notes(self):
        result = table2_example31()
        notes = " ".join(result.notes)
        assert "n_HI=3" in notes
        assert "2.040e-10" in notes
        assert "1.08595" in notes

    def test_rows_match_table2(self):
        result = table2_example31()
        assert result.column("T=D") == [60.0, 25.0, 40.0, 90.0, 70.0]
        assert result.column("C") == [5.0, 4.0, 7.0, 6.0, 8.0]
        assert result.column("chi") == ["HI", "HI", "LO", "LO", "LO"]


class TestTable3:
    def test_converted_budgets(self):
        result = table3_example41()
        assert result.column("C(HI)") == [15.0, 12.0, 7.0, 6.0, 8.0]
        assert result.column("C(LO)") == [10.0, 8.0, 7.0, 6.0, 8.0]

    def test_schedulable_note(self):
        notes = " ".join(table3_example41().notes)
        assert "schedulable: True" in notes


class TestTable4:
    def test_eleven_rows(self):
        result = table4_fms()
        assert len(result.rows) == 11

    def test_levels_and_ranges(self):
        result = table4_fms()
        levels = result.column("chi(DO-178B)")
        assert levels.count("B") == 7
        assert levels.count("C") == 4
        ranges = result.column("C_range")
        assert ranges[:7] == ["(0, 20]"] * 7
        assert ranges[7:] == ["(0, 200]"] * 4
