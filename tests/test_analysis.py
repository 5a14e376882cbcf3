"""Tests for the ASCII table helpers."""

from repro.analysis.tables import format_series, format_table, rows_to_table


class TestTables:
    def test_format_table_alignment(self):
        out = format_table(["name", "n"], [["alpha", 1], ["b", 20]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "-----" in lines[1]
        assert len(lines) == 4

    def test_format_table_floats_rounded(self):
        out = format_table(["x"], [[1.23456]])
        assert "1.23" in out
        assert "1.2345" not in out

    def test_format_series(self):
        out = format_series("Figure 3", "nodes", "msgs", [(100, 5.0), (200, 6.0)])
        assert "Figure 3" in out
        assert "100" in out and "5.00" in out

    def test_rows_to_table_selects_columns(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        out = rows_to_table(rows, ["c", "a"])
        header = out.splitlines()[0]
        assert header.index("c") < header.index("a")
        assert "b" not in header
