"""Smoke test of the benchmark itself: a short run of every workload,
untraced and traced, must verify every op and print every metric that
BENCHMARK.json declares, by name and with its unit.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=HERE.parent,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    assert lines[-2].startswith("perfbench-audit ")
    return json.loads(lines[-1]), json.loads(lines[-2].split(" ", 1)[1])


def _check(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], (int, float)), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    result, audit = _run(workload, 0)
    _check(result, SPEC["end_to_end"])
    for name in SPEC["end_to_end"]:
        assert result["metrics"][name["name"]]["value"] > 0, name["name"]
    assert audit["run_chunks"] and audit["setup_chunks"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    result, audit = _run(workload, 1)
    _check(result, SPEC["per_layer"])
    assert (HERE.parent / audit["spans_file"]).is_file()
    figures = audit["attribution"]
    assert figures["top_parses"] == figures["statements"] > 0
    assert 0.95 <= figures["op_coverage"] <= 1.0


def test_failed_op_exits_nonzero(monkeypatch, capsys):
    """A run whose output check fails still prints its result line but
    exits 1."""
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run
    import workloads

    monkeypatch.setattr(
        workloads.FederationRead, "final_failures", lambda self, world: 1
    )
    status = run.main(["--workload", "federation_read", "--seed", "3",
                       "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False and result["failed"] == 1
