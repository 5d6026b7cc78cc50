"""tests/workload_bits.py: one digest line per benchmark workload."""

import re

import pytest

pytest.importorskip("mpmath")  # bench/workloads.py checks its ops with it

import numpy as np  # noqa: E402

from tblab import clear_caches, series  # noqa: E402
from tblab.bessel import K_ASYM_CUT  # noqa: E402
from workload_bits import main  # noqa: E402  (after the mpmath check)


def test_prints_each_workloads_op_count_and_digest(capsys, monkeypatch):
    # the cold run forms each K of the quadrature regime, lam sqrt(n) <
    # K_ASYM_CUT, once: the kernel store trims its entries to those K
    # before it drops any
    quadrature, k_range = [], series._k_range

    def record(nu, lam, lo, hi):
        ns = np.arange(lo + 1, hi + 1)
        quadrature.extend((nu, lam, n) for n in ns[lam * np.sqrt(ns) < K_ASYM_CUT].tolist())
        return k_range(nu, lam, lo, hi)

    monkeypatch.setattr(series, "_k_range", record)
    clear_caches()
    assert main([]) == 0
    assert len(quadrature) == len(set(quadrature)) == 50539
    monkeypatch.undo()
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
