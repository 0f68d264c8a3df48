"""The serving bench harness: one small run of each bench entry point.

``benchmarks/bench_serving.py`` is a thin driver over these three
functions, and ``bench_compare.py`` gates their rows, so each must
complete every request, carry the identity keys the gate matches rows
on, and keep its parity and crash-split bookkeeping consistent.
"""

import importlib.util
import pathlib

from repro.serve import (
    run_mixed_tenant_bench,
    run_pool_scaling_bench,
    run_serving_bench,
)

REPO = pathlib.Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "bench_compare", REPO / "benchmarks" / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

REQUESTS = 24


def test_serving_bench_completes_every_request():
    report = run_serving_bench(
        offered_loads=(200.0,), lane_counts=(2,), requests=REQUESTS, seed=3
    )
    assert "comparisons" not in report
    (row,) = report["configs"]
    assert None not in bench_compare._serving_key(row)
    assert row["completed"] == REQUESTS
    assert row["failed"] == row["rejected"] == row["expired"] == 0
    assert row["throughput_rps"] > 0
    assert row["p50_ms"] <= row["p99_ms"] <= row["max_ms"]


def test_pool_bench_rows_and_kill_phases():
    report = run_pool_scaling_bench(
        worker_counts=(2,),
        lanes_per_worker=1,
        offered_loads=(100.0,),
        requests=REQUESTS,
        seed=3,
        kill_worker_at=0.05,
    )
    (row,) = report["configs"]
    assert None not in bench_compare._pool_key(row)
    assert row["completed"] == REQUESTS
    assert row["failed"] == row["units_lost"] == 0
    assert report["saturation"][0]["saturation_rps"] == row["throughput_rps"]

    scenario = report["kill_scenario"]
    assert scenario["killed_pid"] is not None
    assert scenario["worker_crashes"] >= 1
    phases = scenario["phases"]
    assert sorted(phases) == ["after", "before", "during"]
    assert sum(phase["requests"] for phase in phases.values()) == REQUESTS
    assert scenario["failed"] == 0


def test_mixed_tenant_bench_keeps_byte_parity():
    tenants = ("paper-R1-R3", "domain-bounds:synthesize")
    report = run_mixed_tenant_bench(
        tenants=tenants, offered_load=200.0, lanes=2, requests=REQUESTS,
        seed=3,
    )
    assert report["byte_parity"] is True
    assert report["completed"] == REQUESTS
    assert [row["tenant"] for row in report["per_tenant"]] == list(tenants)
    assert [row["kind"] for row in report["per_tenant"]] == [
        "impute", "synthesize"
    ]
    for row in report["per_tenant"]:
        assert row["byte_parity"] is True
        assert row["completed"] == row["requests"] == REQUESTS // 2
