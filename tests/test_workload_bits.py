"""tests/workload_bits.py: one digest line per benchmark workload."""

import re

import pytest

pytest.importorskip("mpmath")  # bench/workloads.py checks its ops with it

from tblab import clear_caches  # noqa: E402
from workload_bits import main  # noqa: E402  (after the mpmath check)


def test_prints_each_workloads_op_count_and_digest(capsys):
    clear_caches()
    assert main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["closed-form", "500"], ["voronoi", "10"], ["lvalue-scan", "852"]]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[2]) for line in lines)
    # warm caches give the same bits as cold ones
    assert main([]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_flags_are_refused(capsys):
    assert main(["--seed", "1"]) == 2
    assert "takes no arguments" in capsys.readouterr().err
