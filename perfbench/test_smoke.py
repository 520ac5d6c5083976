"""Smoke test of the benchmark at tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py

Each workload runs once untraced and once traced, at the default seed,
through the same command line the benchmark is driven with.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.fixture(scope="module",
                params=[w["name"] for w in SPEC["workloads"]])
def runs(request):
    """``(untraced, traced)`` runs, each a ``(detail, result)`` pair."""
    return _run(request.param, 0), _run(request.param, 1)


def test_every_metric_is_emitted_with_its_unit(runs):
    (_, untraced), (_, traced) = runs
    for specs, result in ((SPEC["end_to_end"], untraced),
                          (SPEC["per_layer"], traced)):
        assert set(result["metrics"]) == {m["name"] for m in specs}
        for spec in specs:
            metric = result["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert isinstance(metric["value"], (int, float))


def test_digests_match_the_golden_ones(runs):
    for detail, result in runs:
        assert result["correct"], detail["errors"]
        assert result["failed"] == 0
        assert detail["golden"] is not None
        assert {p["digest"] for p in detail["passes"]} == {detail["golden"]}


def test_traced_and_untraced_runs_model_the_same(runs):
    (untraced_detail, untraced), (traced_detail, _) = runs
    assert traced_detail["modeled_traced"] == traced_detail["modeled"]
    assert traced_detail["modeled"] == untraced_detail["modeled"]
    for name, value in untraced_detail["modeled"].items():
        assert untraced["metrics"][name]["value"] == value
