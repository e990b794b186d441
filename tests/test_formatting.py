"""Tests for the CLI's plain-text table helpers."""

from repro.formatting import format_seconds, format_table


def test_format_seconds_scales():
    assert format_seconds(0.0000005).endswith("us")
    assert format_seconds(0.005).endswith("ms")
    assert format_seconds(2.5) == "2.500s"


def test_format_table_alignment():
    table = format_table(["name", "n"], [["abc", 1], ["x", 22]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert len(set(len(line) for line in lines)) == 1  # aligned
