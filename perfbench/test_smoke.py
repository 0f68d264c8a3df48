"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs untraced and traced; each must print every metric that
``BENCHMARK.json`` names, with its unit, and pass its own correctness
checks.  A record corrupted after the program produced it must be counted
as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.common import E2E_METRICS, LAYER_METRICS  # noqa: E402
from perfbench.offline import MIN_PASSES  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402
from perfbench.workloads import run_workload  # noqa: E402

TINY = {"setup_budget_s": 0.0}
TINY_SECONDS = 0.5
TINY_TINYGPT_STEPS = 5


def tiny_run(workload: str, trace: bool, **options):
    if workload == "synth-tinygpt":
        options["tinygpt_steps"] = TINY_TINYGPT_STEPS
    return run_workload(workload, 3, TINY_SECONDS, trace, **TINY, **options)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = LAYER_METRICS if trace else E2E_METRICS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt(values):
    # Far outside every fine-grained field's physical domain.
    name = next(n for n in values if n.startswith("I"))
    values[name] = 10**9


def test_corrupted_offline_record_counts_as_failed():
    def tamper(batch):
        _corrupt(batch.outcomes[0].values)

    result = tiny_run("impute-mined", False, tamper=tamper)
    assert result["correct"] is False
    # The audit (undegraded violation), the serial replay and the comparison
    # with each later pass of the same batch all catch it.
    assert result["failed"] == 2 + (MIN_PASSES - 1)


def test_corrupted_served_record_counts_as_failed():
    def tamper(replies):
        _corrupt(replies[0].body["records"][0])

    result = tiny_run("serve-pool-http", False, tamper=tamper)
    assert result["correct"] is False
    assert result["failed"] == 2


def test_command_refuses_to_run_without_program_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text()
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
