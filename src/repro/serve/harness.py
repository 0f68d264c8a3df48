"""Open-loop Poisson load harness for the scheduler and the worker pool.

Replays a fixed arrival schedule (exponential inter-arrival gaps, i.e. a
Poisson process at the offered rate) against an in-process
:class:`~repro.serve.scheduler.ContinuousBatchingScheduler` or a
:class:`~repro.serve.supervisor.WorkerPool` and measures end-to-end
request latency -- queueing included, which is the entire point:
open-loop load does not slow down when the server does, so the latency
distribution honestly reflects saturation.

Every configuration at one offered load replays the *same* arrival
schedule with the same per-request seeds, and process-wide memos are
cleared before every run so no configuration inherits another's warm
caches.

The report feeds ``BENCH_serving.json`` through
``benchmarks/bench_serving.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core import EnforcerConfig, JitEnforcer
from ..core import session as _session_module
from ..core.transition import DigitTransitionSystem
from ..data import TelemetryConfig, build_dataset
from ..errors import QueueFull, WorkerPoolUnavailable
from ..lm import NgramLM
from ..rules import domain_bound_rules, paper_rules
from .scheduler import ContinuousBatchingScheduler, _percentile
from .types import DONE, EXPIRED, RequestSpec, ServeRequest

__all__ = [
    "DEFAULT_TENANTS",
    "run_serving_bench",
    "run_pool_scaling_bench",
    "run_mixed_tenant_bench",
    "format_report",
    "format_pool_report",
    "format_tenant_report",
]

#: The mixed-tenant run's default tenants: two imputation packs plus
#: synthesis traffic under one of them.
DEFAULT_TENANTS = ("paper-R1-R3", "domain-bounds", "domain-bounds:synthesize")


def _clear_process_memos(model) -> None:
    """Reset cross-configuration memos so runs are comparable."""
    cache = getattr(model, "_dist_cache", None)
    if cache is not None:
        cache.clear()
    DigitTransitionSystem._MEMO.clear()
    _session_module._MASK_MEMO.clear()


@dataclass(frozen=True)
class _Setting:
    """The bench's fixed model, rule packs and prompt cycle."""

    config: TelemetryConfig
    model: NgramLM
    rules: list
    fallback: list
    prompts: list

    def enforcer(self, seed: int = 29) -> JitEnforcer:
        return JitEnforcer(
            self.model, self.rules, self.config, EnforcerConfig(seed=seed),
            fallback_rules=self.fallback,
        )

    def spec(
        self,
        index: int,
        timeout_ms: Optional[float],
        kind: str = "impute",
        rule_set: Optional[str] = None,
    ) -> RequestSpec:
        """Request ``index`` of a schedule: seed ``1000 + index``, the
        prompts cycled for imputation."""
        return RequestSpec(
            kind,
            coarse=(
                self.prompts[index % len(self.prompts)]
                if kind == "impute"
                else None
            ),
            seed=1000 + index,
            timeout_ms=timeout_ms,
            rule_set=rule_set,
        )


def _build_setting(seed: int) -> _Setting:
    """Build the setting, then run a warm pass outside any timing."""
    dataset = build_dataset(
        num_train_racks=4, num_test_racks=1, windows_per_rack=40, seed=seed
    )
    setting = _Setting(
        config=dataset.config,
        model=NgramLM(order=6).fit(dataset.train_texts()),
        rules=paper_rules(dataset.config),
        fallback=[domain_bound_rules(dataset.config)],
        prompts=[w.coarse() for w in dataset.test_windows()[:8]],
    )
    warm = setting.enforcer(seed=3)
    for prompt in setting.prompts[:4]:
        warm.impute_record(prompt)
    return setting


def _schedules(
    offered_loads: Iterable[float], requests: int, seed: int
) -> Dict[float, List[float]]:
    """One Poisson arrival schedule (offsets in seconds) per offered load."""
    rng = np.random.default_rng(seed)
    return {
        rate: np.cumsum(rng.exponential(1.0 / rate, size=requests)).tolist()
        for rate in offered_loads
    }


@dataclass
class _Replay:
    """One replay's handles and submit offsets, keyed by arrival index."""

    start: float
    handles: Dict[int, Optional[ServeRequest]]
    offsets: Dict[int, float]
    rejected: int
    shed: int

    def throughput_rps(self) -> float:
        """Completed requests per second from start to the last finish."""
        handles = [h for h in self.handles.values() if h is not None]
        finished = [
            h.finished_at for h in handles if h.finished_at is not None
        ]
        completed = sum(1 for h in handles if h.status == DONE)
        makespan = (max(finished) - self.start) if finished else 0.0
        return round(completed / makespan, 2) if makespan else 0.0


def _replay(
    submit: Callable[[RequestSpec], ServeRequest],
    arrivals: Sequence[float],
    spec_for: Callable[[int], Optional[RequestSpec]],
    on_arrival: Optional[Callable[[float], None]] = None,
) -> _Replay:
    """Submit ``spec_for(i)`` at arrival offset ``i``, then wait on all.

    ``spec_for`` returning ``None`` skips that arrival; ``on_arrival``
    sees each submit's offset from the start, just before the submit.
    A refused submit (queue full, or every worker down) is counted and
    leaves a ``None`` handle.
    """
    handles: Dict[int, Optional[ServeRequest]] = {}
    offsets: Dict[int, float] = {}
    rejected = shed = 0
    start = time.monotonic()
    for index, offset in enumerate(arrivals):
        spec = spec_for(index)
        if spec is None:
            continue
        delay = start + offset - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        offsets[index] = time.monotonic() - start
        if on_arrival is not None:
            on_arrival(offsets[index])
        try:
            handles[index] = submit(spec)
        except QueueFull:
            rejected += 1
            handles[index] = None
        except WorkerPoolUnavailable:
            shed += 1
            handles[index] = None
    for handle in handles.values():
        if handle is not None:
            handle.wait(timeout=120)
    return _Replay(start, handles, offsets, rejected, shed)


def _latency(handles: Iterable[Optional[ServeRequest]]) -> Dict[str, object]:
    """``completed`` plus the completed requests' p50/p99/mean/max in ms."""
    latencies = sorted(
        h.latency_ms for h in handles if h is not None and h.status == DONE
    )
    summary: Dict[str, object] = {"completed": len(latencies)}
    if latencies:
        summary.update(
            p50_ms=round(_percentile(latencies, 0.50), 2),
            p99_ms=round(_percentile(latencies, 0.99), 2),
            mean_ms=round(sum(latencies) / len(latencies), 2),
            max_ms=round(latencies[-1], 2),
        )
    return summary


def run_serving_bench(
    offered_loads: Sequence[float] = (300.0, 600.0),
    lane_counts: Sequence[int] = (4,),
    requests: int = 150,
    seed: int = 7,
    timeout_ms: Optional[float] = None,
) -> Dict[str, object]:
    """Throughput vs latency across offered loads and lane counts.

    Returns a JSON-able report with one entry per (lanes, load) point.
    """
    setting = _build_setting(seed)
    schedules = _schedules(offered_loads, requests, seed)
    configs: List[Dict[str, object]] = []
    for lanes in lane_counts:
        for rate in offered_loads:
            _clear_process_memos(setting.model)
            with ContinuousBatchingScheduler(
                setting.enforcer(), lanes=lanes, queue_depth=max(64, requests)
            ) as scheduler:
                run = _replay(
                    scheduler.submit,
                    schedules[rate],
                    lambda index: setting.spec(index, timeout_ms),
                )
                metrics = scheduler.metrics()
            latency = _latency(run.handles.values())
            expired = sum(
                1
                for h in run.handles.values()
                if h is not None and h.status == EXPIRED
            )
            configs.append({
                "lanes": lanes,
                "offered_rps": rate,
                "requests": requests,
                **latency,
                "rejected": run.rejected,
                "expired": expired,
                "failed": (
                    requests - latency["completed"] - run.rejected - expired
                ),
                "throughput_rps": run.throughput_rps(),
                "lane_occupancy": metrics["lm"]["lane_occupancy"],
                "cache_hit_rate": metrics["oracle_cache"]["hit_rate"],
            })
    return {
        "workload": f"cyclic-impute-{len(setting.prompts)}",
        "requests": requests,
        "seed": seed,
        "timeout_ms": timeout_ms,
        "configs": configs,
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
    tenants: Sequence[str] = DEFAULT_TENANTS,
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

    A tenant is ``"name"`` (imputation traffic) or ``"name:synthesize"``
    (open-ended generation under that pack), so one schedule can mix the
    two request kinds the way a real multi-tenant deployment does.
    Tenants naming the same pack share its quota and metrics bucket; the
    report rows stay separate per spec.
    """
    from ..rules import builtin_registry

    setting = _build_setting(seed)
    registry = builtin_registry(setting.config)
    for tenant in tenants:
        registry.resolve(_parse_tenant(tenant)[0])  # fail fast on a bad name
    arrivals = _schedules([offered_load], requests, seed)[offered_load]
    assignment = [tenants[i % len(tenants)] for i in range(requests)]

    def replay(only: Optional[str]) -> Tuple[_Replay, Dict[str, object]]:
        """One run over the schedule, restricted to ``only`` if given."""

        def spec_for(index: int) -> Optional[RequestSpec]:
            if only is not None and assignment[index] != only:
                return None
            name, kind = _parse_tenant(assignment[index])
            return setting.spec(index, timeout_ms, kind=kind, rule_set=name)

        _clear_process_memos(setting.model)
        with ContinuousBatchingScheduler(
            setting.enforcer(),
            lanes=lanes,
            queue_depth=max(64, requests),
            rule_registry=registry,
        ) as scheduler:
            run = _replay(scheduler.submit, arrivals, spec_for)
            return run, scheduler.metrics()

    mixed, mixed_metrics = replay(only=None)

    def records_of(handle: Optional[ServeRequest]):
        if handle is None or handle.status != DONE:
            return None
        return handle.result().records

    per_tenant: List[Dict[str, object]] = []
    for tenant in tenants:
        solo, _ = replay(only=tenant)
        indices = [i for i in mixed.handles if assignment[i] == tenant]
        parity = all(
            records_of(mixed.handles[i]) == records_of(solo.handles[i])
            for i in indices
            if records_of(mixed.handles[i]) is not None
            and records_of(solo.handles[i]) is not None
        )
        name, kind = _parse_tenant(tenant)
        per_tenant.append({
            "tenant": tenant,
            "pack": name,
            "kind": kind,
            "requests": len(indices),
            **_latency(mixed.handles[i] for i in indices),
            "byte_parity": parity,
            # Scheduler metrics are keyed by pack name, so tenants sharing
            # a pack (impute + synthesize) see one combined bucket here.
            "metrics": mixed_metrics["tenants"].get(name),
        })

    return {
        "workload": f"cyclic-impute-{len(setting.prompts)}",
        "tenants": list(tenants),
        "offered_rps": offered_load,
        "lanes": lanes,
        "requests": requests,
        "seed": seed,
        "timeout_ms": timeout_ms,
        "completed": sum(row["completed"] for row in per_tenant),
        "throughput_rps": mixed.throughput_rps(),
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
    setting: _Setting,
    offered_rps: float,
    arrivals: Sequence[float],
    workers: int,
    lanes_per_worker: int,
    timeout_ms: Optional[float],
    kill_at: Optional[float] = None,
) -> Dict[str, object]:
    """One measured worker-pool run, optionally with a timed worker kill.

    ``kill_at`` seconds into the replay the first worker gets SIGKILLed --
    the p99/error split before/during/after quantifies what a crash costs
    clients while the supervisor replays and restarts.
    """
    from ..testing.faults import kill_worker
    from .chaos import _wait_for_healthy
    from .supervisor import WorkerPool

    _clear_process_memos(setting.model)
    pool = WorkerPool(
        setting.enforcer,
        workers=workers,
        lanes_per_worker=lanes_per_worker,
        queue_depth=max(64, len(arrivals)),
        liveness_timeout=1.5,
        backoff_base=0.1,
    )
    if kill_at is not None and arrivals:
        # The kill check runs at each arrival, so an offset past the last
        # arrival would never fire.  Clamp it to mid-schedule -- the
        # reported kill_at_s is the offset that actually happened.
        kill_at = min(kill_at, max(arrivals) * 0.5)
    killed: List[int] = []

    def kill_once(offset: float) -> None:
        if not killed and offset >= kill_at:
            pid = pool.worker_pids()[0]
            if pid is not None:
                kill_worker(pid)
                killed.append(pid)

    with pool:
        # Timing starts at steady state, not mid-fork.
        _wait_for_healthy(pool, workers, timeout=120)
        run = _replay(
            pool.submit,
            arrivals,
            lambda index: setting.spec(index, timeout_ms),
            on_arrival=kill_once if kill_at is not None else None,
        )
        supervision = pool.metrics()["supervision"]
    handles = run.handles.values()
    entry: Dict[str, object] = {
        "workers": workers,
        "lanes_per_worker": lanes_per_worker,
        "offered_rps": offered_rps,
        "requests": len(arrivals),
        **_latency(handles),
        "rejected": run.rejected,
        "shed": run.shed,
        "failed": sum(
            1 for h in handles if h is not None and h.done and h.status != DONE
        ),
        "throughput_rps": run.throughput_rps(),
        "worker_crashes": supervision["worker_crashes"],
        "worker_restarts": supervision["worker_restarts"],
        "units_retried": supervision["units_retried"],
        "units_lost": supervision["units_lost"],
    }
    if kill_at is not None:
        entry["kill_at_s"] = round(kill_at, 4)
        entry["killed_pid"] = killed[0] if killed else None
        # On short schedules a fixed 2 s recovery window would swallow
        # every post-kill arrival into "during"; give "after" the second
        # half of the remaining schedule.
        span = max(arrivals) if arrivals else 0.0
        window = min(2.0, max(0.05, (span - kill_at) / 2))
        entry["phases"] = _phase_split(run, kill_at, recovery_window=window)
    return entry


def _phase_split(
    run: _Replay, kill_at: float, recovery_window: float = 2.0
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
    for index, handle in run.handles.items():
        offset = run.offsets[index]
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
    setting = _build_setting(seed)
    schedules = _schedules(offered_loads, requests, seed)

    configs: List[Dict[str, object]] = []
    saturation: List[Dict[str, object]] = []
    for workers in worker_counts:
        best_rps = 0.0
        best_load = None
        for rate in offered_loads:
            entry = _run_pool_one(
                setting, rate, schedules[rate],
                workers=workers,
                lanes_per_worker=lanes_per_worker,
                timeout_ms=timeout_ms,
            )
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
        rate = max(offered_loads)
        kill_scenario = _run_pool_one(
            setting, rate, schedules[rate],
            workers=max(worker_counts),
            lanes_per_worker=lanes_per_worker,
            timeout_ms=timeout_ms,
            kill_at=kill_worker_at,
        )

    return {
        "workload": f"cyclic-impute-{len(setting.prompts)}",
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
        f"{'lanes':>5s} {'load rps':>9s} {'done':>5s} {'rej':>4s} "
        f"{'thr rps':>8s} {'p50 ms':>8s} {'p99 ms':>8s} {'occup':>6s}",
    ]
    for entry in report["configs"]:
        lines.append(
            f"{entry['lanes']:>5d} {entry['offered_rps']:>9.1f} "
            f"{entry['completed']:>5d} {entry['rejected']:>4d} "
            f"{entry['throughput_rps']:>8.1f} "
            f"{entry.get('p50_ms', float('nan')):>8.1f} "
            f"{entry.get('p99_ms', float('nan')):>8.1f} "
            f"{entry['lane_occupancy']:>6.2f}"
        )
    return "\n".join(lines)
