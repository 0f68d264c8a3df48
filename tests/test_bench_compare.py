"""The perf-regression gate: tolerance bands and exit-code semantics."""

import copy
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO / "benchmarks" / "bench_compare.py"

_spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


SERVING = {
    "workload": "cyclic-impute-8",
    "requests": 60,
    "seed": 7,
    "configs": [{
        "lanes": 4, "policy": "wave", "offered_rps": 100.0, "requests": 60,
        "completed": 60, "failed": 0, "expired": 0,
        "throughput_rps": 100.0, "p50_ms": 2.0, "p99_ms": 8.0,
        "mean_ms": 3.0,
    }],
    "worker_pool": {
        "configs": [{
            "workers": 2, "lanes_per_worker": 2, "offered_rps": 100.0,
            "requests": 60, "failed": 0, "units_lost": 0,
            "throughput_rps": 90.0, "p50_ms": 20.0, "p99_ms": 50.0,
            "mean_ms": 25.0,
        }],
    },
}

STREAM = {
    "config": {"records": 100, "seed": 7},
    "throughput": {
        "emitted": 100, "emitted_per_sec": 200.0,
        "lag_p50_ms": 3.0, "lag_p99_ms": 40.0,
    },
    "checks": {"replay_parity": True, "boundary_violations": 0,
               "observational_deviations": 0},
    "memory": {"bounded": True},
}

DECODE = {
    "records": 8,
    "windows": {
        "16": {
            "modes": {"incremental": {"lm_tokens_per_sec": 4000.0,
                                      "records_per_sec": 40.0}},
            "parity": "byte-identical",
        },
    },
    "lanes": {
        "records": 32,
        "rows": {
            "1": {"lm_tokens_per_sec": 3000.0, "records_per_sec": 14.0},
            "8": {"lm_tokens_per_sec": 12000.0, "records_per_sec": 26.0},
        },
        "parity": "byte-identical",
    },
}


def _run(baseline, candidate, tmp_path, *extra):
    base = tmp_path / "base.json"
    cand = tmp_path / "cand.json"
    base.write_text(json.dumps(baseline))
    cand.write_text(json.dumps(candidate))
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--baseline", str(base),
         "--candidate", str(cand), *extra],
        capture_output=True, text=True,
    )


class TestExitCodes:
    def test_identity_serving_passes(self, tmp_path):
        proc = _run(SERVING, SERVING, tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "no regressions" in proc.stdout

    def test_identity_stream_passes(self, tmp_path):
        assert _run(STREAM, STREAM, tmp_path).returncode == 0

    def test_committed_snapshots_pass_against_themselves(self):
        for name in ("BENCH_serving.json", "BENCH_stream.json",
                     "BENCH_decode.json"):
            proc = subprocess.run(
                [sys.executable, str(SCRIPT),
                 "--baseline", str(REPO / name),
                 "--candidate", str(REPO / name)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, f"{name}: {proc.stdout}"

    def test_degraded_latency_fails(self, tmp_path):
        degraded = copy.deepcopy(SERVING)
        degraded["configs"][0]["p99_ms"] = 30.0
        proc = _run(SERVING, degraded, tmp_path)
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout and "p99_ms" in proc.stdout

    def test_degraded_throughput_fails(self, tmp_path):
        degraded = copy.deepcopy(STREAM)
        degraded["throughput"]["emitted_per_sec"] = 100.0
        assert _run(STREAM, degraded, tmp_path).returncode == 1

    def test_flipped_parity_fails(self, tmp_path):
        degraded = copy.deepcopy(STREAM)
        degraded["checks"]["replay_parity"] = False
        proc = _run(STREAM, degraded, tmp_path)
        assert proc.returncode == 1
        assert "replay_parity" in proc.stdout

    def test_degraded_lanes_throughput_fails(self, tmp_path):
        assert _run(DECODE, DECODE, tmp_path).returncode == 0
        degraded = copy.deepcopy(DECODE)
        degraded["lanes"]["rows"]["8"]["lm_tokens_per_sec"] = 6000.0
        proc = _run(DECODE, degraded, tmp_path)
        assert proc.returncode == 1
        assert "decode(lanes=8) lm_tokens_per_sec" in proc.stdout

    def test_flipped_lanes_parity_fails_without_a_band(self):
        degraded = copy.deepcopy(DECODE)
        degraded["lanes"]["parity"] = "diverged"
        findings = bench_compare.compare(DECODE, degraded, tolerance=10.0)
        assert [f.where for f in findings if f.regression] == [
            "decode(lanes)"
        ]

    def test_lost_units_fail(self, tmp_path):
        degraded = copy.deepcopy(SERVING)
        degraded["worker_pool"]["configs"][0]["units_lost"] = 1
        assert _run(SERVING, degraded, tmp_path).returncode == 1

    def test_mismatched_kinds_are_an_error(self, tmp_path):
        proc = _run(SERVING, STREAM, tmp_path)
        assert proc.returncode != 0
        assert "cannot compare" in proc.stderr

    def test_unreadable_candidate_is_an_error(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(SERVING))
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--baseline", str(base),
             "--candidate", str(tmp_path / "missing.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0


class TestToleranceBands:
    def test_noise_floor_forgives_small_absolute_growth(self):
        base = copy.deepcopy(SERVING)
        cand = copy.deepcopy(SERVING)
        # +1 ms on a 2 ms p50 is 50% relative but under the 2 ms floor.
        cand["configs"][0]["p50_ms"] = 3.0
        findings = bench_compare.compare(base, cand)
        assert not any(f.regression for f in findings)

    def test_relative_band_forgives_proportional_growth(self):
        base = copy.deepcopy(SERVING)
        cand = copy.deepcopy(SERVING)
        cand["worker_pool"]["configs"][0]["p99_ms"] = 60.0  # +20% < 25%
        findings = bench_compare.compare(base, cand)
        assert not any(f.regression for f in findings)

    def test_both_bands_exceeded_is_a_regression(self):
        base = copy.deepcopy(SERVING)
        cand = copy.deepcopy(SERVING)
        cand["worker_pool"]["configs"][0]["p99_ms"] = 75.0  # +50% and +25ms
        findings = bench_compare.compare(base, cand)
        assert any(
            f.regression and f.metric == "p99_ms" for f in findings
        )

    def test_tighter_tolerance_flag_trips_the_gate(self, tmp_path):
        cand = copy.deepcopy(SERVING)
        cand["worker_pool"]["configs"][0]["p99_ms"] = 60.0
        assert _run(SERVING, cand, tmp_path).returncode == 0
        assert _run(
            SERVING, cand, tmp_path, "--tolerance", "0.1"
        ).returncode == 1

    def test_missing_candidate_config_reports_but_passes(self):
        base = copy.deepcopy(SERVING)
        base["configs"].append(dict(
            base["configs"][0], offered_rps=300.0
        ))
        findings = bench_compare.compare(base, SERVING)
        missing = [f for f in findings if f.candidate == "missing"]
        assert missing and not any(f.regression for f in missing)

    def test_no_overlap_at_all_is_an_error(self):
        base = copy.deepcopy(SERVING)
        base["configs"][0]["lanes"] = 99
        base["worker_pool"]["configs"][0]["workers"] = 99
        with pytest.raises(SystemExit, match="no candidate config"):
            bench_compare.compare(base, SERVING)
