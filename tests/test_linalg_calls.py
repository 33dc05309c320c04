"""Tests for tools/linalg_calls.py, the factorization counts that CI prints."""

import re

import numpy as np
import pytest

from conftest import linalg_calls_tool


def test_counts_each_kind_and_splits_the_svd():
    m = np.eye(3)
    with linalg_calls_tool.counted_linalg() as counts:
        np.linalg.svd(m)
        np.linalg.svd(m, compute_uv=False)
        np.linalg.svd(m, False, False)
        np.linalg.eigh(m)
        np.linalg.norm(m)
    assert dict(counts) == {"svd": 1, "svdvals": 2, "eigh": 1}


def test_restores_numpy_linalg_after_a_raise():
    before = {name: getattr(np.linalg, name) for name in (*linalg_calls_tool.KINDS, "svd")}
    with pytest.raises(ZeroDivisionError):
        with linalg_calls_tool.counted_linalg():
            1 / 0
    assert {name: getattr(np.linalg, name) for name in before} == before


def test_main_prints_each_run_with_its_total(capsys, monkeypatch, tmp_path):
    # the input is found from the tool's own place, not the working directory
    monkeypatch.chdir(tmp_path)
    assert linalg_calls_tool.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "analyze tests/data/q_n8.json (exit 0)", "run_battery(12, 2, 7)"]
    for line in lines:
        total, kinds = re.fullmatch(r".*: (\d+) numpy.linalg calls \((.*)\)", line).groups()
        assert int(total) == sum(int(kind.split()[1]) for kind in kinds.split(", "))
