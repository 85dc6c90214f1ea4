"""Smoke test of the benchmark itself, at a tiny corpus size.

    python3 -m pytest minebench/test_smoke.py -q

Every workload in BENCHMARK.json runs untraced and traced; each run must
exit 0, report every metric BENCHMARK.json names with its unit, and fail no
call. A checkout without the source tree must be refused with no result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_N = "60"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "minebench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    p = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--n", TINY_N)
    assert p.returncode == 0, p.stderr[-4000:]
    *_, record_line, result_line = p.stdout.strip().splitlines()
    record, result = json.loads(record_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert record["error_rate"] == 0
    assert record["corpus"]["n"] == int(TINY_N)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_refuses_without_source_tree():
    bare = ROOT / ".minebench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
