"""Tests of the benchmark itself, so it cannot rot.

Run from the root of a checkout: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import generate  # noqa: E402
from absgate import decide, parse_policy, parse_suite  # noqa: E402

SPEC = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))
STAGES = ("input_assessment", "exclusions", "clinical_rules", "stewardship", "output")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ("0", "1"))
@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_smoke_run_checks_outputs_and_reports_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "reference", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_inputs_come_from_the_seed_alone(workload):
    first = generate.build(workload, 3, smoke=True)
    assert generate.build(workload, 3, smoke=True) == first
    if workload != "reference":
        assert generate.build(workload, 4, smoke=True).policy_text != first.policy_text


def _stage_mix(work: generate.Workload) -> Counter:
    policy, _ = parse_policy(work.policy_text)
    suite, _ = parse_suite(work.suite_text)
    return Counter(decide(policy, case)[1].stages[-1].stage.value for case in suite.cases)


@pytest.mark.parametrize("seed", (1, 2))
def test_full_size_workloads_have_the_stated_stage_mix(seed):
    heavy = _stage_mix(generate.build("rule_heavy", seed))
    assert set(heavy) == set(STAGES)
    assert heavy["stewardship"] + heavy["output"] >= 0.9 * sum(heavy.values())
    intake = _stage_mix(generate.build("intake_screen", seed))
    assert set(intake) == set(STAGES)
    assert intake["input_assessment"] + intake["exclusions"] >= 0.8 * sum(intake.values())


def test_benchmark_json_matches_the_spec():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared["command"] == ["python3", "bench/run.py"]
    assert declared["paths"] == ["bench"]
    assert declared["workloads"] == [{"name": w["name"], "why": w["why"]} for w in SPEC["workloads"]]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]] == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]
    ]
    assert declared["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")} for m in SPEC["per_layer"]]
    names = {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["per_layer"]:
        for moved, workload in metric["moves"] + metric.get("unchanged", []):
            assert moved in names and workload in generate.WORKLOADS
