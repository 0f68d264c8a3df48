"""Streaming benchmark harness: sustained enforcement over one stream.

Drives a :class:`~repro.stream.session.StreamSession` with the
seed-deterministic :class:`~repro.data.workload.TelemetryStream`
generator and reports the acceptance metrics of the streaming
subsystem: emission throughput, watermark lag percentiles, bounded
memory high-water marks, KV-cache row residency, replay byte parity,
and a temporal-rule audit of every enforced window boundary.

No HTTP and no pytest -- ``benchmarks/bench_stream.py`` is a thin
argparse wrapper over :func:`run_stream_bench`.
"""

import time
from typing import Dict, List, Optional, Sequence

from ..core import EnforcerConfig, JitEnforcer
from ..data import TelemetryStream, StreamParams, build_dataset, fine_field
from ..lm import NgramLM
from ..rules import RuleSet, domain_bound_rules, paper_rules
from .binder import (
    WindowBinder,
    combine_rule_sets,
    mine_stream_rules,
    stream_bounds,
)
from .session import EnforcerExecutor, StreamConfig, StreamSession

__all__ = ["run_stream_bench", "format_stream_report"]


def _build_enforcer(dataset, model, rules, seed: int) -> JitEnforcer:
    return JitEnforcer(
        model,
        rules,
        dataset.config,
        EnforcerConfig(seed=seed),
        fallback_rules=[domain_bound_rules(dataset.config)],
        bounds=stream_bounds(dataset.config),
    )


def _run_session(
    dataset,
    model,
    rules,
    events: Sequence[Dict[str, object]],
    stream_config: StreamConfig,
    seed: int,
):
    """One full pass; returns (per-ingest lines, close lines, stats, kv)."""
    executor = EnforcerExecutor(
        _build_enforcer(dataset, model, rules, seed), seed=seed
    )
    session = StreamSession(
        stream_config, executor, telemetry_config=dataset.config
    )
    ingest_lines: List[str] = []
    emissions = []
    for event in events:
        out = session.ingest(event)
        emissions.extend(out)
        ingest_lines.extend(e.encode() for e in out)
    emissions.extend(session.close())
    return ingest_lines, emissions, session.stats(), executor


def run_stream_bench(
    records: int = 10_000,
    seed: int = 7,
    stream_seed: int = 5,
    window: int = 2,
    lateness: float = 2.0,
    late_policy: str = "patch",
    late_horizon: int = 64,
    temporal_rules: int = 32,
    parity_records: int = 300,
    late_fraction: float = 0.08,
) -> Dict[str, object]:
    """Sustained single-stream enforcement at ``records`` events.

    ``temporal_rules`` caps the mined cross-record set carried into the
    enforcement pack (the full mined set is reported alongside so the
    cap is never silent).  ``parity_records`` replays a fresh session
    over the stream prefix and byte-compares its emissions against the
    sustained run -- the streaming determinism contract at bench scale.
    """
    dataset = build_dataset(
        num_train_racks=4, num_test_racks=1, windows_per_rack=40, seed=seed
    )
    model = NgramLM(order=6).fit(dataset.train_texts())
    mined = mine_stream_rules(
        [rack.windows for rack in dataset.train_racks], dataset.config
    )
    temporal = RuleSet(name="bench-temporal")
    for rule in list(mined)[:temporal_rules]:
        temporal.add(rule)
    rules = combine_rule_sets(paper_rules(dataset.config), temporal)

    events = TelemetryStream(
        StreamParams(seed=stream_seed, late_fraction=late_fraction),
        config=dataset.config,
    ).events(records)

    stream_config = StreamConfig(
        window=window,
        lateness=lateness,
        late_policy=late_policy,
        late_horizon=late_horizon,
        seed=seed,
    )

    start = time.perf_counter()
    ingest_lines, emissions, stats, executor = _run_session(
        dataset, model, rules, events, stream_config, seed
    )
    wall = time.perf_counter() - start

    # Replay parity over the stream prefix: emissions depend only on the
    # past, so a fresh session fed the same prefix must reproduce the
    # sustained run's bytes for those ingests exactly.
    prefix = events[: min(parity_records, records)]
    prefix_lines, _, _, _ = _run_session(
        dataset, model, rules, prefix, stream_config, seed
    )
    replay_parity = prefix_lines == ingest_lines[: len(prefix_lines)] and (
        len(prefix_lines) > 0
    )

    # Boundary audit: every pair of consecutively-sequenced emitted
    # records had its carryover bound at generation time, so the mined
    # temporal rules must hold across it.  Split the set by what the
    # enforcer can actually decide: a rule touching at least one
    # current-record fine variable is *enforceable* (the decoder steers
    # it), while a rule over coarse counters alone is *observational* --
    # the stream's measured inputs either satisfy the training envelope
    # or they don't, and enforcement cannot rewrite observations.
    fine_names = {fine_field(t) for t in range(dataset.config.window)}
    enforceable = RuleSet(name="audit-enforceable")
    observational = RuleSet(name="audit-observational")
    for rule in temporal:
        if any(name in fine_names for name in rule.variables()):
            enforceable.add(rule)
        else:
            observational.add(rule)
    binder = WindowBinder(dataset.config, depth=2)
    ordered = [e for e in emissions if e.kind == "record"]
    fallback_records = sum(1 for e in ordered if e.tier > 0)
    violations = 0
    observed_deviations = 0
    runs: List[List] = []
    current: List = []
    for emission in ordered:
        # A fallback-tier record (primary pack infeasible against the
        # observed inputs) was generated without the temporal rules in
        # force, so its join to the predecessor is not auditable -- it
        # starts a new run, like a gap does.
        if current and (
            emission.seq != current[-1].seq + 1 or emission.tier > 0
        ):
            runs.append(current)
            current = []
        current.append(emission)
    if current:
        runs.append(current)
    for run in runs:
        records_run = [e.record for e in run]
        violations += binder.boundary_violations(records_run, enforceable)
        observed_deviations += binder.boundary_violations(
            records_run, observational
        )

    archive_bound = late_horizon + window
    bounded = (
        stats["max_pending_seen"] <= stream_config.max_pending
        and stats["max_archive_seen"] <= archive_bound
    )
    kv: Optional[Dict[str, float]] = executor.kv_stats()
    report: Dict[str, object] = {
        "config": {
            "records": records,
            "seed": seed,
            "stream_seed": stream_seed,
            "window": window,
            "lateness": lateness,
            "late_policy": late_policy,
            "late_horizon": late_horizon,
            "late_fraction": late_fraction,
            "rules_total": len(rules),
            "temporal_mined": len(mined),
            "temporal_used": len(temporal),
            "parity_records": len(prefix),
        },
        "throughput": {
            "wall_seconds": round(wall, 3),
            "emitted": stats["emitted"],
            "emitted_per_sec": stats["emitted_per_sec"],
            "lag_p50_ms": stats["lag_p50_ms"],
            "lag_p99_ms": stats["lag_p99_ms"],
        },
        "stream": {
            key: stats[key]
            for key in (
                "gaps",
                "duplicates",
                "late_dropped",
                "late_patched",
                "late_beyond_horizon",
                "reemitted",
                "carryover_hits",
                "watermark",
                "watermark_skew",
            )
        },
        "memory": {
            "max_pending_seen": stats["max_pending_seen"],
            "max_archive_seen": stats["max_archive_seen"],
            "archive_bound": archive_bound,
            "pending_bound": stream_config.max_pending,
            "oracle_cache_evictions": executor.cache_evictions,
            "bounded": bounded,
        },
        "checks": {
            "replay_parity": replay_parity,
            "boundary_violations": violations,
            "observational_deviations": observed_deviations,
            "enforceable_rules": len(enforceable),
            "observational_rules": len(observational),
            "fallback_records": fallback_records,
            "boundary_runs": len(runs),
        },
    }
    if kv is not None:
        report["kv"] = {key: kv[key] for key in sorted(kv)}
    return report


def format_stream_report(report: Dict[str, object]) -> str:
    config = report["config"]
    throughput = report["throughput"]
    stream = report["stream"]
    memory = report["memory"]
    checks = report["checks"]
    lines = [
        "stream bench: {records} records, window={window}, "
        "policy={late_policy}, {rules_total} rules "
        "({temporal_used}/{temporal_mined} temporal)".format(**config),
        (
            "  throughput  {emitted} emitted in {wall_seconds}s "
            "({emitted_per_sec}/s)  lag p50={lag_p50_ms}ms "
            "p99={lag_p99_ms}ms".format(**throughput)
        ),
        (
            "  stream      gaps={gaps} dup={duplicates} "
            "late(drop/patch/beyond)={late_dropped}/{late_patched}/"
            "{late_beyond_horizon} reemit={reemitted} "
            "carryover={carryover_hits}".format(**stream)
        ),
        (
            "  memory      pending<= {max_pending_seen}/{pending_bound}  "
            "archive<= {max_archive_seen}/{archive_bound}  "
            "evictions={oracle_cache_evictions}  bounded={bounded}".format(
                **memory
            )
        ),
        (
            "  checks      replay_parity={replay_parity}  "
            "boundary_violations={boundary_violations} over "
            "{boundary_runs} runs ({enforceable_rules} enforceable "
            "rules, {fallback_records} fallback records; "
            "{observational_deviations} input deviations from "
            "{observational_rules} observational rules)".format(**checks)
        ),
    ]
    kv = report.get("kv")
    if kv:
        pairs = " ".join(f"{key}={kv[key]}" for key in sorted(kv))
        lines.append(f"  kv          {pairs}")
    return "\n".join(lines)
