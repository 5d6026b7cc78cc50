"""tests/golden_distances.py: it runs to its end on the registry, and its
reference run with L' from mpmath keeps every rhs within 1e-12 |lhs|."""

import pytest

pytest.importorskip("mpmath")

from golden_distances import main  # noqa: E402  (after the mpmath check)


def test_runs_and_finds_no_record_moved_past_the_golden_bound(capsys):
    assert main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["moved", "old", "new", "record"]
    assert lines[-1] == "0 records moved by more than 1e-14 |lhs|"
