"""Tests of the benchmark itself: the BENCHMARK.json schema, a tiny run of
every workload in both modes, failure recording, and the refusal to run
without sources.

    python3 -m pytest -q specbench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_schema():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "specbench/run.py"]
    assert spec["paths"] == ["specbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in spec[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == run.END_TO_END_UNITS
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("higher", "lower") and 0 < m["bound"] <= 0.25
        assert UNIT.match(m["unit"])
    assert e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    layers = {m["name"]: m for m in spec["per_layer"]}
    assert {n: m["unit"] for n, m in layers.items()} == run.LAYER_UNITS
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("higher", "lower")
    assert len(json.dumps(spec)) <= 64 * 1024


def test_raising_operation_is_a_failed_operation():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    ledger = workloads.Ledger()
    assert ledger.attempt("ok", lambda: 7) == 7
    assert ledger.attempt("divide", lambda: 1 / 0) is None
    assert ledger.attempted == 1
    assert ledger.failures == ["divide raised ZeroDivisionError('division by zero')"]


def _run(cwd: str, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "specbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
    if trace:
        assert result["metrics"]["rng.draws_per_step"]["value"] == 9
    else:
        assert all(v["value"] != 0 for v in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "specbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(str(tmp_path), "verify", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
