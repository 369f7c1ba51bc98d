"""Tests of the benchmark itself, on reduced inputs.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench_run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# the two canonical_form refusals (boolean-32, chain-3x3x3) of this commit
REFUSALS_PER_SAMPLE = {"analyze-large": 0, "canon-symmetric": 2, "sweep-7": 0}
OVERLAPPING = {"trace.run_s", "catalog.leaf_verify_s", "catalog.dedup_s"}


def smoke_run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke(workload: str, trace: int) -> tuple[dict, dict]:
    proc = smoke_run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_run.WORKLOADS)
    assert sorted(bench_run.WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    detail, result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert all(detail["end_to_end"][k]["samples"] >= 1 for k in want)
    samples = detail["samples"]["plain"]
    assert result["failed"] == REFUSALS_PER_SAMPLE[workload] * samples
    assert detail["fail_frac"]["value"] == result["failed"] / result["attempted"]
    assert detail["env"]["seed"] == 3 and detail["env"]["nproc"] >= 1


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_traced_smoke_run_emits_every_layer_metric_and_adds_up(workload):
    detail, result = smoke(workload, 1)
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    layers = detail["layers"]
    self_times = [v for k, v in layers.items() if k.endswith("_s") and k not in OVERLAPPING]
    assert sum(self_times) == pytest.approx(layers["trace.run_s"], rel=1e-9)
    assert layers["trace.residual_s"] >= 0
    spans = json.loads((ROOT / detail["spans_file"]).read_text())
    assert spans["spans"] and "first caller" in spans["note"]


def _drop_a_sharp_element(real):
    def planted(alg):
        report = real(alg)
        return dataclasses.replace(report, sharp=report.sharp[1:])
    return planted


PLANTS = {
    "analyze-large": ("structure_report", _drop_a_sharp_element),
    "canon-symmetric": ("canonical_form", lambda real: lambda alg: b"efa 1\n"),
    "sweep-7": ("enumerate_all", lambda real: lambda *a, **k: list(real(*a, **k))[1:]),
}


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_planted_wrong_answer_raises_fail_frac(workload, monkeypatch):
    clean = worker.measure(workloads.WORKLOADS[workload](5, "smoke"), trace=False)
    assert clean["wrong"] == 0
    name, plant = PLANTS[workload]
    monkeypatch.setattr(workloads, name, plant(getattr(workloads, name)))
    planted = worker.measure(workloads.WORKLOADS[workload](5, "smoke"), trace=False)
    assert planted["wrong"] > 0
    assert planted["failed"] / planted["attempted"] > clean["failed"] / clean["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = smoke_run(tmp_path, "sweep-7", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_relabelled_reports_map_back_to_the_closed_forms():
    for name in ("chain-5", "boolean-8"):
        alg, perm = workloads.relabel(workloads.ALGEBRAS[name][0](), random.Random(1))
        report = workloads.structure_report(alg).to_json_dict()
        assert workloads.normalize_report(report, perm) == workloads.reference_report(name)
