"""Serving benchmark: open-loop Poisson load against the scheduler.

Measures end-to-end request latency (queueing included) and throughput at
fixed offered loads and lane counts, every configuration at one load
replaying the same arrival schedule and per-request seeds.  Runs the
in-process harness from :mod:`repro.serve.harness`; no HTTP, no pytest,
no third-party deps::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        --loads 300 600 --requests 150 --out BENCH_serving.json

With ``--workers`` the same harness also drives the supervised
multi-process pool: throughput scaling across worker counts plus, with
``--kill-worker-at T``, a crash scenario that SIGKILLs one worker T
seconds in and reports the before/during/after latency and error split::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        --workers 1 2 4 --kill-worker-at 0.25

With ``--tenants`` an extra run stripes the schedule across tenant specs
(builtin pack names, ``NAME`` for imputation or ``NAME:synthesize``;
default ``paper-R1-R3 domain-bounds domain-bounds:synthesize``) and
reports per-tenant latency plus byte parity against single-tenant
replays of the same seeds::

    PYTHONPATH=src python benchmarks/bench_serving.py --tenants

The report is written before the exit status is decided; the script
exits 1 when any row has a failed request or the mixed-tenant run breaks
byte parity, so CI catches either.
"""

import argparse
import json
import sys
from pathlib import Path

from repro.cli import _positive_int
from repro.serve import (
    format_pool_report,
    format_report,
    format_tenant_report,
    run_mixed_tenant_bench,
    run_pool_scaling_bench,
    run_serving_bench,
)
from repro.serve.harness import DEFAULT_TENANTS


def _failures(report) -> list:
    """Why the report fails its gate (empty when it passes)."""
    pool = report.get("worker_pool") or {}
    rows = report["configs"] + pool.get("configs", [])
    if pool.get("kill_scenario"):
        rows.append(pool["kill_scenario"])
    problems = [
        f"{row['failed']} failed request(s) at {row['offered_rps']} rps"
        for row in rows
        if row["failed"]
    ]
    mixed = report.get("mixed_tenant")
    if mixed is not None and not mixed["byte_parity"]:
        problems.append("mixed-tenant byte parity broken")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=Path("BENCH_serving.json")
    )
    parser.add_argument(
        "--loads", type=float, nargs="+", default=[300.0, 600.0],
        help="offered loads in requests/sec (one run per load)",
    )
    parser.add_argument("--lanes", type=_positive_int, nargs="+", default=[4])
    parser.add_argument(
        "--requests", type=_positive_int, default=150,
        help="requests replayed per configuration",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--timeout-ms", type=float, default=None,
        help="optional per-request deadline in milliseconds",
    )
    parser.add_argument(
        "--workers", type=_positive_int, nargs="+", default=None,
        help="also bench the multi-process worker pool at these worker "
        "counts (rps scaling / saturation table)",
    )
    parser.add_argument(
        "--kill-worker-at", type=float, default=None,
        help="with --workers: SIGKILL one worker this many seconds into "
        "an extra run and report the before/during/after latency split",
    )
    parser.add_argument(
        "--tenants", type=str, nargs="*", default=None,
        help="also run a mixed-tenant scenario striping requests across "
        "these tenant specs -- NAME (imputation) or NAME:synthesize -- "
        f"(no names = {' + '.join(DEFAULT_TENANTS)}); reports per-tenant "
        "latency and byte parity",
    )
    args = parser.parse_args()
    report = run_serving_bench(
        offered_loads=args.loads,
        lane_counts=args.lanes,
        requests=args.requests,
        seed=args.seed,
        timeout_ms=args.timeout_ms,
    )
    print(format_report(report))
    if args.workers:
        pool_report = run_pool_scaling_bench(
            worker_counts=args.workers,
            offered_loads=args.loads,
            requests=args.requests,
            seed=args.seed,
            timeout_ms=args.timeout_ms,
            kill_worker_at=args.kill_worker_at,
        )
        report["worker_pool"] = pool_report
        print()
        print(format_pool_report(pool_report))
    if args.tenants is not None:
        tenant_report = run_mixed_tenant_bench(
            tenants=tuple(args.tenants) or DEFAULT_TENANTS,
            offered_load=max(args.loads),
            lanes=max(args.lanes),
            requests=min(args.requests, 120),
            seed=args.seed,
            timeout_ms=args.timeout_ms,
        )
        report["mixed_tenant"] = tenant_report
        print()
        print(format_tenant_report(tenant_report))
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    problems = _failures(report)
    for problem in problems:
        print(f"bench_serving: FAIL -- {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
