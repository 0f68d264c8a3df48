"""Open-loop Poisson load harness for the serving scheduler.

Replays a fixed arrival schedule (exponential inter-arrival gaps, i.e. a
Poisson process at the offered rate) against an in-process
:class:`~repro.serve.scheduler.ContinuousBatchingScheduler` and measures
end-to-end request latency -- queueing included, which is the entire
point: open-loop load does not slow down when the server does, so the
latency distribution honestly reflects saturation.

Every (lanes, offered-load) point runs once per admission policy with the
*same* arrival schedule and the same per-request seeds, so the
``wave``-vs-``continuous`` comparison is paired: identical records at
identical times; only the admission discipline differs.  Process-wide
memos are cleared before every run so no configuration inherits another's
warm caches.

The report feeds ``BENCH_serving.json`` (see ``benchmarks/bench_serving.py``
and ``python -m repro.cli bench-serving``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import EnforcerConfig, JitEnforcer
from ..core import session as _session_module
from ..core.transition import DigitTransitionSystem
from ..data import build_dataset
from ..errors import QueueFull, WorkerPoolUnavailable
from ..lm import NgramLM
from ..rules import domain_bound_rules, paper_rules
from .scheduler import ContinuousBatchingScheduler
from .types import DONE, EXPIRED, RequestSpec, ServeRequest

__all__ = [
    "run_serving_bench",
    "run_pool_scaling_bench",
    "run_mixed_tenant_bench",
    "format_report",
    "format_pool_report",
    "format_tenant_report",
]


def _clear_process_memos(model) -> None:
    """Reset cross-configuration memos so runs are comparable."""
    cache = getattr(model, "_dist_cache", None)
    if cache is not None:
        cache.clear()
    DigitTransitionSystem._MEMO.clear()
    _session_module._MASK_MEMO.clear()


def _percentile(sorted_values: List[float], q: float) -> float:
    rank = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values))))
    return sorted_values[rank]


def _build_setting(seed: int):
    dataset = build_dataset(
        num_train_racks=4, num_test_racks=1, windows_per_rack=40, seed=seed
    )
    model = NgramLM(order=6).fit(dataset.train_texts())
    rules = paper_rules(dataset.config)
    fallback = [domain_bound_rules(dataset.config)]
    prompts = [w.coarse() for w in dataset.test_windows()[:8]]
    return dataset, model, rules, fallback, prompts


def _run_one(
    model,
    rules,
    fallback,
    config,
    prompts,
    arrivals: Sequence[float],
    lanes: int,
    policy: str,
    queue_depth: int,
    timeout_ms: Optional[float],
) -> Dict[str, object]:
    """One measured run: replay ``arrivals`` and collect the distribution."""
    _clear_process_memos(model)
    enforcer = JitEnforcer(
        model, rules, config, EnforcerConfig(seed=29), fallback_rules=fallback
    )
    scheduler = ContinuousBatchingScheduler(
        enforcer, lanes=lanes, queue_depth=queue_depth, admit_policy=policy
    )
    handles: List[Optional[ServeRequest]] = []
    rejected = 0
    with scheduler:
        start = time.monotonic()
        for index, offset in enumerate(arrivals):
            delay = start + offset - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            spec = RequestSpec(
                "impute",
                coarse=prompts[index % len(prompts)],
                seed=1000 + index,
                timeout_ms=timeout_ms,
            )
            try:
                handles.append(scheduler.submit(spec))
            except QueueFull:
                rejected += 1
                handles.append(None)
        for handle in handles:
            if handle is not None:
                handle.wait(timeout=120)
        metrics = scheduler.metrics()
    latencies = sorted(
        handle.latency_ms
        for handle in handles
        if handle is not None and handle.status == DONE
    )
    completed = len(latencies)
    expired = sum(
        1 for h in handles if h is not None and h.status == EXPIRED
    )
    finish_times = [
        h.finished_at
        for h in handles
        if h is not None and h.finished_at is not None
    ]
    makespan = (max(finish_times) - start) if finish_times else 0.0
    entry: Dict[str, object] = {
        "lanes": lanes,
        "policy": policy,
        "offered_rps": None,  # filled by the caller
        "requests": len(arrivals),
        "completed": completed,
        "rejected": rejected,
        "expired": expired,
        "failed": len(arrivals) - completed - rejected - expired,
        "throughput_rps": round(completed / makespan, 2) if makespan else 0.0,
        "lane_occupancy": metrics["lm"]["lane_occupancy"],
        "cache_hit_rate": metrics["oracle_cache"]["hit_rate"],
    }
    if latencies:
        entry.update(
            p50_ms=round(_percentile(latencies, 0.50), 2),
            p99_ms=round(_percentile(latencies, 0.99), 2),
            mean_ms=round(sum(latencies) / completed, 2),
            max_ms=round(latencies[-1], 2),
        )
    return entry


def run_serving_bench(
    offered_loads: Sequence[float] = (300.0, 600.0),
    lane_counts: Sequence[int] = (4,),
    policies: Sequence[str] = ("wave", "continuous"),
    requests: int = 150,
    seed: int = 7,
    timeout_ms: Optional[float] = None,
) -> Dict[str, object]:
    """Throughput vs latency across offered loads, lane counts, policies.

    Returns a JSON-able report with one entry per configuration plus a
    paired wave-vs-continuous p99 comparison per (lanes, load) point.
    """
    dataset, model, rules, fallback, prompts = _build_setting(seed)

    # Warm pass outside timing: touch every code path once.
    warm = JitEnforcer(
        model, rules, dataset.config, EnforcerConfig(seed=3),
        fallback_rules=fallback,
    )
    for prompt in prompts[:4]:
        warm.impute_record(prompt)

    rng = np.random.default_rng(seed)
    schedules = {
        rate: np.cumsum(rng.exponential(1.0 / rate, size=requests)).tolist()
        for rate in offered_loads
    }

    configs: List[Dict[str, object]] = []
    comparisons: List[Dict[str, object]] = []
    for lanes in lane_counts:
        for rate in offered_loads:
            by_policy: Dict[str, Dict[str, object]] = {}
            for policy in policies:
                entry = _run_one(
                    model,
                    rules,
                    fallback,
                    dataset.config,
                    prompts,
                    schedules[rate],
                    lanes=lanes,
                    policy=policy,
                    queue_depth=max(64, requests),
                    timeout_ms=timeout_ms,
                )
                entry["offered_rps"] = rate
                configs.append(entry)
                by_policy[policy] = entry
            if "wave" in by_policy and "continuous" in by_policy:
                wave_p99 = by_policy["wave"].get("p99_ms")
                cont_p99 = by_policy["continuous"].get("p99_ms")
                comparisons.append(
                    {
                        "lanes": lanes,
                        "offered_rps": rate,
                        "wave_p99_ms": wave_p99,
                        "continuous_p99_ms": cont_p99,
                        "continuous_wins_p99": (
                            wave_p99 is not None
                            and cont_p99 is not None
                            and cont_p99 < wave_p99
                        ),
                    }
                )
    return {
        "workload": f"cyclic-impute-{len(prompts)}",
        "requests": requests,
        "seed": seed,
        "timeout_ms": timeout_ms,
        "configs": configs,
        "comparisons": comparisons,
    }


def _parse_tenant(spec: str) -> Tuple[str, str]:
    """``NAME`` or ``NAME:synthesize`` -> ``(pack name, request kind)``."""
    name, _, kind = spec.partition(":")
    kind = kind or "impute"
    if not name or kind not in ("impute", "synthesize"):
        raise ValueError(
            f"tenant spec {spec!r} must be NAME or NAME:synthesize"
        )
    return name, kind


def run_mixed_tenant_bench(
    tenants: Sequence[str] = ("paper-R1-R3", "domain-bounds"),
    offered_load: float = 300.0,
    lanes: int = 4,
    requests: int = 120,
    seed: int = 7,
    timeout_ms: Optional[float] = None,
) -> Dict[str, object]:
    """Mixed-tenant serving: per-tenant latency plus byte-parity proof.

    One Poisson arrival schedule is striped round-robin across ``tenants``
    (each request resolving its pack by name through a
    :func:`~repro.rules.registry.builtin_registry`) and replayed twice:
    once mixed, then once per tenant in isolation with the *same* arrival
    offsets and per-request seeds.  ``byte_parity`` per tenant asserts the
    determinism contract end to end: sharing lanes with other tenants must
    not change a single record byte.

    A tenant is ``"name"`` (imputation traffic, the default) or
    ``"name:synthesize"`` (open-ended generation under that pack), so one
    schedule can mix the two request kinds the way a real multi-tenant
    deployment does.  Tenants naming the same pack share its quota and
    metrics bucket; the report rows stay separate per spec.
    """
    from ..rules import builtin_registry

    dataset, model, rules, fallback, prompts = _build_setting(seed)
    registry = builtin_registry(dataset.config)
    parsed = [_parse_tenant(tenant) for tenant in tenants]
    for name, _ in parsed:
        registry.resolve(name)  # fail fast on a bad tenant name

    warm = JitEnforcer(
        model, rules, dataset.config, EnforcerConfig(seed=3),
        fallback_rules=fallback,
    )
    for prompt in prompts[:4]:
        warm.impute_record(prompt)

    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(
        rng.exponential(1.0 / offered_load, size=requests)
    ).tolist()
    assignment = [tenants[i % len(tenants)] for i in range(requests)]

    def replay(only: Optional[str]) -> Dict[int, Optional[ServeRequest]]:
        """One run over the schedule, restricted to ``only`` if given."""
        _clear_process_memos(model)
        enforcer = JitEnforcer(
            model, rules, dataset.config, EnforcerConfig(seed=29),
            fallback_rules=fallback,
        )
        scheduler = ContinuousBatchingScheduler(
            enforcer,
            lanes=lanes,
            queue_depth=max(64, requests),
            rule_registry=registry,
        )
        handles: Dict[int, Optional[ServeRequest]] = {}
        with scheduler:
            start = time.monotonic()
            for index, offset in enumerate(arrivals):
                if only is not None and assignment[index] != only:
                    continue
                delay = start + offset - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                name, kind = _parse_tenant(assignment[index])
                spec = RequestSpec(
                    kind,
                    coarse=(
                        prompts[index % len(prompts)]
                        if kind == "impute"
                        else None
                    ),
                    seed=1000 + index,
                    timeout_ms=timeout_ms,
                    rule_set=name,
                )
                try:
                    handles[index] = scheduler.submit(spec)
                except QueueFull:
                    handles[index] = None
            for handle in handles.values():
                if handle is not None:
                    handle.wait(timeout=120)
            replay.metrics = scheduler.metrics()
            replay.makespan = (
                max(
                    (h.finished_at for h in handles.values()
                     if h is not None and h.finished_at is not None),
                    default=start,
                ) - start
            )
        return handles

    mixed = replay(only=None)
    mixed_metrics = replay.metrics
    makespan = replay.makespan

    def records_of(handle: Optional[ServeRequest]):
        if handle is None or handle.status != DONE:
            return None
        return handle.result().records

    per_tenant: List[Dict[str, object]] = []
    for tenant in tenants:
        solo = replay(only=tenant)
        indices = [i for i in sorted(mixed) if assignment[i] == tenant]
        parity = all(
            records_of(mixed[i]) == records_of(solo[i])
            for i in indices
            if records_of(mixed[i]) is not None
            and records_of(solo[i]) is not None
        )
        latencies = sorted(
            mixed[i].latency_ms
            for i in indices
            if mixed[i] is not None and mixed[i].status == DONE
        )
        name, kind = _parse_tenant(tenant)
        row: Dict[str, object] = {
            "tenant": tenant,
            "pack": name,
            "kind": kind,
            "requests": len(indices),
            "completed": len(latencies),
            "byte_parity": parity,
            # Scheduler metrics are keyed by pack name, so tenants sharing
            # a pack (impute + synthesize) see one combined bucket here.
            "metrics": mixed_metrics["tenants"].get(name),
        }
        if latencies:
            row.update(
                p50_ms=round(_percentile(latencies, 0.50), 2),
                p99_ms=round(_percentile(latencies, 0.99), 2),
                mean_ms=round(sum(latencies) / len(latencies), 2),
            )
        per_tenant.append(row)

    completed = sum(row["completed"] for row in per_tenant)
    return {
        "workload": f"cyclic-impute-{len(prompts)}",
        "tenants": list(tenants),
        "offered_rps": offered_load,
        "lanes": lanes,
        "requests": requests,
        "seed": seed,
        "timeout_ms": timeout_ms,
        "completed": completed,
        "throughput_rps": round(completed / makespan, 2) if makespan else 0.0,
        "byte_parity": all(row["byte_parity"] for row in per_tenant),
        "per_tenant": per_tenant,
    }


def format_tenant_report(report: Dict[str, object]) -> str:
    """Human-readable table of a :func:`run_mixed_tenant_bench` report."""
    lines = [
        f"Mixed-tenant bench: {report['workload']}, "
        f"{report['requests']} requests at {report['offered_rps']:.0f} rps "
        f"striped over {len(report['tenants'])} tenants, "
        f"{report['lanes']} lanes",
        "",
        f"{'tenant':>16s} {'kind':>11s} {'reqs':>5s} {'done':>5s} "
        f"{'p50 ms':>8s} {'p99 ms':>8s} {'parity':>7s}",
    ]
    for row in report["per_tenant"]:
        lines.append(
            f"{row.get('pack', row['tenant']):>16s} "
            f"{row.get('kind', 'impute'):>11s} {row['requests']:>5d} "
            f"{row['completed']:>5d} "
            f"{row.get('p50_ms', float('nan')):>8.1f} "
            f"{row.get('p99_ms', float('nan')):>8.1f} "
            f"{'OK' if row['byte_parity'] else 'FAIL':>7s}"
        )
    lines.append("")
    lines.append(
        f"throughput {report['throughput_rps']:.1f} rps, byte parity "
        f"{'OK' if report['byte_parity'] else 'FAIL'} "
        "(mixed vs single-tenant records, same seeds)"
    )
    return "\n".join(lines)


def _run_pool_one(
    model,
    rules,
    fallback,
    config,
    prompts,
    arrivals: Sequence[float],
    workers: int,
    lanes_per_worker: int,
    queue_depth: int,
    timeout_ms: Optional[float],
    kill_at: Optional[float] = None,
    kill_slot: int = 0,
) -> Dict[str, object]:
    """One measured worker-pool run, optionally with a timed worker kill.

    ``kill_at`` seconds into the replay the ``kill_slot``-th worker gets
    SIGKILLed -- the p99/error split before/during/after quantifies what a
    crash costs clients while the supervisor replays and restarts.
    """
    from ..testing.faults import kill_worker
    from .supervisor import WorkerPool

    _clear_process_memos(model)

    def factory() -> JitEnforcer:
        return JitEnforcer(
            model, rules, config, EnforcerConfig(seed=29),
            fallback_rules=fallback,
        )

    pool = WorkerPool(
        factory,
        workers=workers,
        lanes_per_worker=lanes_per_worker,
        queue_depth=queue_depth,
        liveness_timeout=1.5,
        backoff_base=0.1,
    )
    if kill_at is not None and arrivals:
        # The kill check runs inside the arrival loop, so an offset past
        # the last arrival would never fire.  Clamp it to mid-schedule --
        # the reported kill_at_s is the offset that actually happened.
        kill_at = min(kill_at, max(arrivals) * 0.5)
    handles: List[Optional[ServeRequest]] = []
    offsets: List[float] = []
    rejected = shed = 0
    killed_pid = None
    with pool:
        # Wait for every worker's enforcer to come up so timing starts at
        # steady state, not mid-fork.
        ready_deadline = time.monotonic() + 120
        while time.monotonic() < ready_deadline:
            if pool.health()["workers_healthy"] >= workers:
                break
            time.sleep(0.02)
        start = time.monotonic()
        for index, offset in enumerate(arrivals):
            delay = start + offset - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            now_offset = time.monotonic() - start
            if kill_at is not None and killed_pid is None and (
                now_offset >= kill_at
            ):
                pid = pool.worker_pids()[kill_slot % workers]
                if pid is not None:
                    kill_worker(pid)
                    killed_pid = pid
            spec = RequestSpec(
                "impute",
                coarse=prompts[index % len(prompts)],
                seed=1000 + index,
                timeout_ms=timeout_ms,
            )
            offsets.append(now_offset)
            try:
                handles.append(pool.submit(spec))
            except QueueFull:
                rejected += 1
                handles.append(None)
            except WorkerPoolUnavailable:
                shed += 1
                handles.append(None)
        for handle in handles:
            if handle is not None:
                handle.wait(timeout=120)
        metrics = pool.metrics()
    latencies = sorted(
        handle.latency_ms
        for handle in handles
        if handle is not None and handle.status == DONE
    )
    completed = len(latencies)
    finish_times = [
        h.finished_at
        for h in handles
        if h is not None and h.finished_at is not None
    ]
    makespan = (max(finish_times) - start) if finish_times else 0.0
    supervision = metrics["supervision"]
    entry: Dict[str, object] = {
        "workers": workers,
        "lanes_per_worker": lanes_per_worker,
        "offered_rps": None,  # filled by the caller
        "requests": len(arrivals),
        "completed": completed,
        "rejected": rejected,
        "shed": shed,
        "failed": sum(
            1
            for h in handles
            if h is not None and h.done and h.status != DONE
        ),
        "throughput_rps": round(completed / makespan, 2) if makespan else 0.0,
        "worker_crashes": supervision["worker_crashes"],
        "worker_restarts": supervision["worker_restarts"],
        "units_retried": supervision["units_retried"],
        "units_lost": supervision["units_lost"],
    }
    if latencies:
        entry.update(
            p50_ms=round(_percentile(latencies, 0.50), 2),
            p99_ms=round(_percentile(latencies, 0.99), 2),
            mean_ms=round(sum(latencies) / completed, 2),
            max_ms=round(latencies[-1], 2),
        )
    if kill_at is not None:
        entry["kill_at_s"] = round(kill_at, 4)
        entry["killed_pid"] = killed_pid
        # On short schedules a fixed 2 s recovery window would swallow
        # every post-kill arrival into "during"; give "after" the second
        # half of the remaining schedule.
        span = max(arrivals) if arrivals else 0.0
        window = min(2.0, max(0.05, (span - kill_at) / 2))
        entry["phases"] = _phase_split(
            handles, offsets, kill_at, recovery_window=window
        )
    return entry


def _phase_split(
    handles: List[Optional[ServeRequest]],
    offsets: List[float],
    kill_at: float,
    recovery_window: float = 2.0,
) -> Dict[str, Dict[str, object]]:
    """Latency/error split by submit time: before / during / after a kill.

    ``during`` covers ``recovery_window`` seconds after the kill -- the
    interval where crash replay and worker restart are actually happening;
    ``after`` shows the pool back at steady state.
    """
    phases: Dict[str, Dict[str, List[float]]] = {
        "before": {"latencies": [], "errors": 0, "total": 0},
        "during": {"latencies": [], "errors": 0, "total": 0},
        "after": {"latencies": [], "errors": 0, "total": 0},
    }
    for handle, offset in zip(handles, offsets):
        if offset < kill_at:
            phase = phases["before"]
        elif offset < kill_at + recovery_window:
            phase = phases["during"]
        else:
            phase = phases["after"]
        phase["total"] += 1
        if handle is None or (handle.done and handle.status != DONE):
            phase["errors"] += 1
        elif handle.status == DONE:
            phase["latencies"].append(handle.latency_ms)
    out: Dict[str, Dict[str, object]] = {}
    for name, phase in phases.items():
        latencies = sorted(phase["latencies"])
        total = phase["total"]
        out[name] = {
            "requests": total,
            "errors": phase["errors"],
            "error_rate": round(phase["errors"] / total, 4) if total else 0.0,
            "p50_ms": round(_percentile(latencies, 0.50), 2)
            if latencies
            else None,
            "p99_ms": round(_percentile(latencies, 0.99), 2)
            if latencies
            else None,
        }
    return out


def run_pool_scaling_bench(
    worker_counts: Sequence[int] = (1, 2, 4),
    lanes_per_worker: int = 2,
    offered_loads: Sequence[float] = (100.0, 300.0),
    requests: int = 80,
    seed: int = 7,
    timeout_ms: Optional[float] = None,
    kill_worker_at: Optional[float] = None,
) -> Dict[str, object]:
    """Worker-pool throughput scaling, plus an optional crash scenario.

    Every (workers, load) point replays the same Poisson arrival schedule;
    the ``saturation`` table reports each worker count's best sustained
    throughput across the offered loads -- the rps knee where adding load
    stops adding completions.  With ``kill_worker_at`` an extra run kills
    one worker that many seconds in and reports the before/during/after
    p99 and error-rate split.
    """
    dataset, model, rules, fallback, prompts = _build_setting(seed)

    warm = JitEnforcer(
        model, rules, dataset.config, EnforcerConfig(seed=3),
        fallback_rules=fallback,
    )
    for prompt in prompts[:4]:
        warm.impute_record(prompt)

    rng = np.random.default_rng(seed)
    schedules = {
        rate: np.cumsum(rng.exponential(1.0 / rate, size=requests)).tolist()
        for rate in offered_loads
    }

    configs: List[Dict[str, object]] = []
    saturation: List[Dict[str, object]] = []
    for workers in worker_counts:
        best_rps = 0.0
        best_load = None
        for rate in offered_loads:
            entry = _run_pool_one(
                model, rules, fallback, dataset.config, prompts,
                schedules[rate],
                workers=workers,
                lanes_per_worker=lanes_per_worker,
                queue_depth=max(64, requests),
                timeout_ms=timeout_ms,
            )
            entry["offered_rps"] = rate
            configs.append(entry)
            if entry["throughput_rps"] > best_rps:
                best_rps = entry["throughput_rps"]
                best_load = rate
        saturation.append({
            "workers": workers,
            "lanes_per_worker": lanes_per_worker,
            "saturation_rps": best_rps,
            "at_offered_rps": best_load,
        })

    kill_scenario: Optional[Dict[str, object]] = None
    if kill_worker_at is not None:
        workers = max(worker_counts)
        rate = max(offered_loads)
        kill_scenario = _run_pool_one(
            model, rules, fallback, dataset.config, prompts,
            schedules[rate],
            workers=workers,
            lanes_per_worker=lanes_per_worker,
            queue_depth=max(64, requests),
            timeout_ms=timeout_ms,
            kill_at=kill_worker_at,
        )
        kill_scenario["offered_rps"] = rate

    return {
        "workload": f"cyclic-impute-{len(prompts)}",
        "requests": requests,
        "seed": seed,
        "timeout_ms": timeout_ms,
        "lanes_per_worker": lanes_per_worker,
        "configs": configs,
        "saturation": saturation,
        "kill_scenario": kill_scenario,
    }


def format_pool_report(report: Dict[str, object]) -> str:
    """Human-readable table of a :func:`run_pool_scaling_bench` report."""
    lines = [
        f"Worker-pool bench: {report['workload']}, "
        f"{report['requests']} open-loop Poisson requests per config, "
        f"{report['lanes_per_worker']} lanes/worker",
        "",
        f"{'workers':>7s} {'load rps':>9s} {'done':>5s} {'rej':>4s} "
        f"{'thr rps':>8s} {'p50 ms':>8s} {'p99 ms':>8s} {'crash':>6s} "
        f"{'retry':>6s}",
    ]
    for entry in report["configs"]:
        lines.append(
            f"{entry['workers']:>7d} {entry['offered_rps']:>9.1f} "
            f"{entry['completed']:>5d} {entry['rejected']:>4d} "
            f"{entry['throughput_rps']:>8.1f} "
            f"{entry.get('p50_ms', float('nan')):>8.1f} "
            f"{entry.get('p99_ms', float('nan')):>8.1f} "
            f"{entry['worker_crashes']:>6d} {entry['units_retried']:>6d}"
        )
    lines.append("")
    for row in report["saturation"]:
        lines.append(
            f"workers={row['workers']}: saturation "
            f"{row['saturation_rps']:.1f} rps "
            f"(at {row['at_offered_rps']:.0f} rps offered)"
        )
    scenario = report.get("kill_scenario")
    if scenario:
        lines.append("")
        lines.append(
            f"kill scenario: workers={scenario['workers']} "
            f"load={scenario['offered_rps']:.0f}rps "
            f"kill at {scenario['kill_at_s']}s (pid {scenario['killed_pid']}) "
            f"crashes={scenario['worker_crashes']} "
            f"retried={scenario['units_retried']} "
            f"lost={scenario['units_lost']}"
        )
        for name in ("before", "during", "after"):
            phase = scenario["phases"][name]
            lines.append(
                f"  {name:>6s}: {phase['requests']} reqs, "
                f"error_rate={phase['error_rate']:.3f}, "
                f"p50={phase['p50_ms']} ms, p99={phase['p99_ms']} ms"
            )
    return "\n".join(lines)


def format_report(report: Dict[str, object]) -> str:
    """Human-readable table of a :func:`run_serving_bench` report."""
    lines = [
        f"Serving bench: {report['workload']}, "
        f"{report['requests']} open-loop Poisson requests per config",
        "",
        f"{'lanes':>5s} {'load rps':>9s} {'policy':>11s} {'done':>5s} "
        f"{'rej':>4s} {'thr rps':>8s} {'p50 ms':>8s} {'p99 ms':>8s} "
        f"{'occup':>6s}",
    ]
    for entry in report["configs"]:
        lines.append(
            f"{entry['lanes']:>5d} {entry['offered_rps']:>9.1f} "
            f"{entry['policy']:>11s} {entry['completed']:>5d} "
            f"{entry['rejected']:>4d} {entry['throughput_rps']:>8.1f} "
            f"{entry.get('p50_ms', float('nan')):>8.1f} "
            f"{entry.get('p99_ms', float('nan')):>8.1f} "
            f"{entry['lane_occupancy']:>6.2f}"
        )
    if report["comparisons"]:
        lines.append("")
        for cmp in report["comparisons"]:
            verdict = "WIN" if cmp["continuous_wins_p99"] else "loss"
            lines.append(
                f"continuous vs wave @ lanes={cmp['lanes']} "
                f"load={cmp['offered_rps']:.0f}rps: "
                f"p99 {cmp['continuous_p99_ms']} vs {cmp['wave_p99_ms']} ms "
                f"[{verdict}]"
            )
    return "\n".join(lines)
