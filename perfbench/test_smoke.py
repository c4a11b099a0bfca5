"""Smoke test of the benchmark at toy sizes: result schema and metric names, no timings.

Run from the repository root: ``python3 -m pytest -q perfbench/test_smoke.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ENV_KEYS = {"nproc", "cpu_model", "python", "numpy", "scipy", "git_sha", "git_dirty",
            "loadavg_start", "loadavg_end"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_reports_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 2
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in last["metrics"].values())

    result = json.loads((HERE / "out" / f"{workload}-seed1-trace{trace}-toy.json").read_text())
    assert set(result["environment"]) == ENV_KEYS
    if trace:
        assert result["absent"] == []
        assert (HERE / "out" / result["spans"]).is_file()


def test_missing_target_is_reported_absent_not_fatal():
    import dypo.policy
    from dypo.gradcheck import grad_check_suite

    targets = [t for t in tracer.TARGETS if t.split(":")[1] not in tracer.GRAD_HELPERS]
    targets.append("dypo.policy:grad_helper_deleted_by_a_refactor")
    original_score = dypo.policy.score
    tr = tracer.Tracer(0, targets=targets)
    tr.install()
    try:
        grad_check_suite(seed=0, n_instances=1)
    finally:
        tr.restore()
    values, absent = tracer.layer_values(tr)
    assert dypo.policy.score is original_score
    assert "grad_helper_deleted_by_a_refactor" in tr.absent
    assert {"policy.grad_algebra.calls", "policy.grad_algebra.self_s"} <= set(absent)
    assert values["policy.grad_algebra.calls"] == 0.0
    assert "policy.score.calls" not in absent and values["policy.score.calls"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
