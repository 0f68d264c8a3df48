"""Perf-regression gate over committed benchmark snapshots.

Diffs a fresh ``bench_serving.py`` / ``bench_stream.py`` /
``bench_scaling.py --decode-mode`` JSON report against the committed
baseline (``BENCH_serving.json``, ``BENCH_stream.json``, or
``BENCH_decode.json``) with tolerance bands, and exits nonzero when the
candidate regresses.  This is what CI runs so a perf regression fails
the build instead of silently rewriting the snapshot:

    python benchmarks/bench_compare.py \
        --baseline BENCH_serving.json --candidate /tmp/serving.json

Rules of the gate:

- **Lower-better latency metrics** (``p50_ms``/``p99_ms``/``mean_ms``,
  stream ``lag_p50_ms``/``lag_p99_ms``) may grow by at most
  ``--tolerance`` relative *and* must exceed an absolute noise floor
  (``--floor-ms``) before they count -- sub-millisecond jitter on a
  2 ms p50 is not a regression.
- **Higher-better rates** (``throughput_rps``, ``emitted_per_sec``,
  decode ``lm_tokens_per_sec``/``records_per_sec`` per window and per
  lane count) may shrink by at most ``--tolerance`` relative.
- **Boolean / counter checks** have no band: ``replay_parity`` and
  ``bounded`` must not flip false, ``boundary_violations`` and
  ``units_lost``/``failed`` must not increase.

Serving configs are matched by their identity keys (lanes, offered
rps, request count); baseline rows with no candidate match are
reported but do not fail the gate (the candidate may run a trimmed
sweep), while a candidate that matches *nothing* is a usage error.

Comparing a file against itself always exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Relative growth allowed on lower-better metrics (and shrink on
#: higher-better ones) before the gate trips.
DEFAULT_TOLERANCE = 0.25

#: Absolute slack, in milliseconds, under which latency deltas are
#: treated as scheduler noise regardless of the relative band.
DEFAULT_FLOOR_MS = 2.0

SERVING_LOWER_BETTER_MS = ("p50_ms", "p99_ms", "mean_ms")
SERVING_HIGHER_BETTER = ("throughput_rps",)
SERVING_NON_INCREASING = ("failed", "expired")
POOL_NON_INCREASING = ("failed", "units_lost")
STREAM_LOWER_BETTER_MS = ("lag_p50_ms", "lag_p99_ms")
STREAM_HIGHER_BETTER = ("emitted_per_sec",)
DECODE_HIGHER_BETTER = ("lm_tokens_per_sec", "records_per_sec")
DECODE_SPEEDUPS = ("lm_speedup", "e2e_speedup")


class Finding:
    """One compared metric: where it lives, both values, and a verdict."""

    def __init__(self, where: str, metric: str, baseline, candidate,
                 regression: bool, note: str = ""):
        self.where = where
        self.metric = metric
        self.baseline = baseline
        self.candidate = candidate
        self.regression = regression
        self.note = note

    def row(self) -> str:
        verdict = "REGRESSION" if self.regression else "ok"
        note = f"  ({self.note})" if self.note else ""
        return (f"  [{verdict:>10}] {self.where} {self.metric}: "
                f"{self.baseline} -> {self.candidate}{note}")


def _num(value) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _check_lower_ms(findings: List[Finding], where: str, metric: str,
                    base: Mapping, cand: Mapping,
                    tolerance: float, floor_ms: float) -> None:
    b, c = _num(base.get(metric)), _num(cand.get(metric))
    if b is None or c is None:
        return
    grew = c - b
    regressed = grew > floor_ms and c > b * (1.0 + tolerance)
    findings.append(Finding(where, metric, b, c, regressed))


def _check_higher(findings: List[Finding], where: str, metric: str,
                  base: Mapping, cand: Mapping, tolerance: float) -> None:
    b, c = _num(base.get(metric)), _num(cand.get(metric))
    if b is None or c is None:
        return
    regressed = c < b * (1.0 - tolerance)
    findings.append(Finding(where, metric, b, c, regressed))


def _check_non_increasing(findings: List[Finding], where: str, metric: str,
                          base: Mapping, cand: Mapping) -> None:
    b, c = _num(base.get(metric)), _num(cand.get(metric))
    if b is None or c is None:
        return
    findings.append(Finding(where, metric, b, c, c > b,
                            note="must not increase"))


def _check_bool(findings: List[Finding], where: str, metric: str,
                base: Mapping, cand: Mapping) -> None:
    b, c = base.get(metric), cand.get(metric)
    if not isinstance(b, bool) or not isinstance(c, bool):
        return
    findings.append(Finding(where, metric, b, c, b and not c,
                            note="must not flip false"))


def _serving_key(row: Mapping) -> Tuple:
    return (row.get("lanes"), row.get("offered_rps"), row.get("requests"))


def _pool_key(row: Mapping) -> Tuple:
    return (row.get("workers"), row.get("lanes_per_worker"),
            row.get("offered_rps"), row.get("requests"))


def _match_rows(findings: List[Finding], label: str,
                base_rows: Sequence[Mapping], cand_rows: Sequence[Mapping],
                key_fn, lower_ms: Sequence[str], higher: Sequence[str],
                non_increasing: Sequence[str],
                tolerance: float, floor_ms: float) -> int:
    cand_by_key: Dict[Tuple, Mapping] = {key_fn(r): r for r in cand_rows}
    matched = 0
    for base in base_rows:
        key = key_fn(base)
        cand = cand_by_key.get(key)
        where = f"{label}{key}"
        if cand is None:
            findings.append(Finding(where, "<config>", "present", "missing",
                                    False, note="not run by candidate"))
            continue
        matched += 1
        for metric in lower_ms:
            _check_lower_ms(findings, where, metric, base, cand,
                            tolerance, floor_ms)
        for metric in higher:
            _check_higher(findings, where, metric, base, cand, tolerance)
        for metric in non_increasing:
            _check_non_increasing(findings, where, metric, base, cand)
    return matched


def compare_serving(base: Mapping, cand: Mapping, tolerance: float,
                    floor_ms: float) -> List[Finding]:
    findings: List[Finding] = []
    matched = _match_rows(
        findings, "serving", base.get("configs", []),
        cand.get("configs", []), _serving_key,
        SERVING_LOWER_BETTER_MS, SERVING_HIGHER_BETTER,
        SERVING_NON_INCREASING, tolerance, floor_ms)
    base_pool = base.get("worker_pool") or {}
    cand_pool = cand.get("worker_pool") or {}
    matched += _match_rows(
        findings, "pool", base_pool.get("configs", []),
        cand_pool.get("configs", []), _pool_key,
        SERVING_LOWER_BETTER_MS, SERVING_HIGHER_BETTER,
        POOL_NON_INCREASING, tolerance, floor_ms)
    if not matched:
        raise SystemExit(
            "bench_compare: no candidate config matches any baseline "
            "config -- wrong file pair?")
    return findings


def compare_stream(base: Mapping, cand: Mapping, tolerance: float,
                   floor_ms: float) -> List[Finding]:
    findings: List[Finding] = []
    b_tp, c_tp = base.get("throughput", {}), cand.get("throughput", {})
    for metric in STREAM_LOWER_BETTER_MS:
        _check_lower_ms(findings, "stream", metric, b_tp, c_tp,
                        tolerance, floor_ms)
    for metric in STREAM_HIGHER_BETTER:
        _check_higher(findings, "stream", metric, b_tp, c_tp, tolerance)
    b_checks, c_checks = base.get("checks", {}), cand.get("checks", {})
    _check_bool(findings, "checks", "replay_parity", b_checks, c_checks)
    _check_non_increasing(findings, "checks", "boundary_violations",
                          b_checks, c_checks)
    _check_non_increasing(findings, "checks", "observational_deviations",
                          b_checks, c_checks)
    b_mem, c_mem = base.get("memory", {}), cand.get("memory", {})
    _check_bool(findings, "memory", "bounded", b_mem, c_mem)
    if not findings:
        raise SystemExit(
            "bench_compare: stream reports share no comparable metrics")
    return findings


def compare_decode(base: Mapping, cand: Mapping, tolerance: float,
                   floor_ms: float) -> List[Finding]:
    """Decode report: BENCH_decode.json shape.

    ``windows`` rows carry the KV-cache story (tokens/s and rec/s per
    decode mode, speedups); the ``lanes`` section the batched-decode
    curve (tokens/s and rec/s per lane count).  Byte parity never gets
    a band: a parity flip is a correctness bug wearing a perf
    costume.
    """
    findings: List[Finding] = []
    matched = 0
    cand_windows = cand.get("windows", {})
    for window, base_row in base.get("windows", {}).items():
        cand_row = cand_windows.get(window)
        where = f"decode(window={window})"
        if cand_row is None:
            findings.append(Finding(where, "<config>", "present", "missing",
                                    False, note="not run by candidate"))
            continue
        matched += 1
        for mode, base_mode in base_row.get("modes", {}).items():
            cand_mode = cand_row.get("modes", {}).get(mode, {})
            for metric in DECODE_HIGHER_BETTER:
                _check_higher(findings, f"{where}[{mode}]", metric,
                              base_mode, cand_mode, tolerance)
        for metric in DECODE_SPEEDUPS:
            _check_higher(findings, where, metric, base_row, cand_row,
                          tolerance)
        b_par = base_row.get("parity") == "byte-identical"
        c_par = cand_row.get("parity") == "byte-identical"
        findings.append(Finding(where, "parity", base_row.get("parity"),
                                cand_row.get("parity"), b_par and not c_par,
                                note="must stay byte-identical"))
    base_lanes, cand_lanes = base.get("lanes") or {}, cand.get("lanes") or {}
    cand_counts = cand_lanes.get("rows", {})
    for count, base_row in base_lanes.get("rows", {}).items():
        cand_row = cand_counts.get(count)
        where = f"decode(lanes={count})"
        if cand_row is None:
            findings.append(Finding(where, "<config>", "present", "missing",
                                    False, note="not run by candidate"))
            continue
        matched += 1
        for metric in DECODE_HIGHER_BETTER:
            _check_higher(findings, where, metric, base_row, cand_row,
                          tolerance)
    if base_lanes and cand_lanes:
        b_par = base_lanes.get("parity") == "byte-identical"
        c_par = cand_lanes.get("parity") == "byte-identical"
        findings.append(Finding("decode(lanes)", "parity",
                                base_lanes.get("parity"),
                                cand_lanes.get("parity"), b_par and not c_par,
                                note="must stay byte-identical"))
    if not matched:
        raise SystemExit(
            "bench_compare: no candidate window/lane count matches any "
            "baseline row -- wrong file pair?")
    return findings


def compare(base: Mapping, cand: Mapping,
            tolerance: float = DEFAULT_TOLERANCE,
            floor_ms: float = DEFAULT_FLOOR_MS) -> List[Finding]:
    """Dispatch on report shape; both files must be the same kind."""

    def kind(report: Mapping) -> Optional[str]:
        if "configs" in report:
            return "serving"
        if "windows" in report:
            return "decode"
        if "throughput" in report:
            return "stream"
        return None

    base_kind, cand_kind = kind(base), kind(cand)
    if base_kind is None or cand_kind is None or base_kind != cand_kind:
        raise SystemExit(
            f"bench_compare: cannot compare a {base_kind or 'unknown'} "
            f"baseline against a {cand_kind or 'unknown'} candidate")
    if base_kind == "serving":
        return compare_serving(base, cand, tolerance, floor_ms)
    if base_kind == "decode":
        return compare_decode(base, cand, tolerance, floor_ms)
    return compare_stream(base, cand, tolerance, floor_ms)


def _load(path: str) -> Mapping:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bench_compare: cannot read {path}: {exc}")
    if not isinstance(data, dict):
        raise SystemExit(f"bench_compare: {path} is not a JSON object")
    return data


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff a benchmark report against a committed baseline "
                    "and fail on regression.")
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_*.json snapshot")
    parser.add_argument("--candidate", required=True,
                        help="freshly generated report to gate")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="relative band on latency/throughput metrics "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--floor-ms", type=float, default=DEFAULT_FLOOR_MS,
                        help="absolute latency slack treated as noise "
                             f"(default {DEFAULT_FLOOR_MS} ms)")
    args = parser.parse_args(argv)
    if args.tolerance < 0 or args.floor_ms < 0:
        parser.error("--tolerance and --floor-ms must be non-negative")

    findings = compare(_load(args.baseline), _load(args.candidate),
                       tolerance=args.tolerance, floor_ms=args.floor_ms)
    regressions = [f for f in findings if f.regression]
    print(f"bench_compare: {args.candidate} vs {args.baseline} "
          f"({len(findings)} checks, tolerance {args.tolerance:g}, "
          f"floor {args.floor_ms:g} ms)")
    for finding in findings:
        print(finding.row())
    if regressions:
        print(f"bench_compare: FAIL -- {len(regressions)} regression(s)")
        return 1
    print("bench_compare: ok -- no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
