"""Continuous-batching scheduler: lock-step lanes without wave barriers.

The offline :class:`~repro.core.engine.EnforcementEngine` fixes its whole
workload up front and returns when everything drains -- fine for batch
jobs, fatal for serving, where a request arriving just after a wave starts
would wait for the *entire* wave.  This scheduler generalizes the engine's
round-robin refill into an always-on loop over the same
:class:`~repro.core.engine.LanePool`:

1. admit queued requests into free lanes *mid-flight* (a lane frees the
   moment its session finishes, and takes new work on the very next step);
2. run one :meth:`~repro.core.engine.LanePool.step` over every live lane
   (ONE batched LM call, each row fed back -- the engine's lock-step);
3. harvest finished sessions, loop.

All enforcement work runs on a single scheduler thread -- sessions,
solvers, and the LM are never shared across threads, so the core needs no
locking.  Submitting threads only touch the thread-safe admission queue
and per-request handles.  (An asyncio front end would still have to push
this CPU-bound lock-step off the event loop; a dedicated thread driven by
a condition variable is the same design without the indirection.)

Determinism: record ``i`` of a request seeded ``s`` samples from
``record_rng(s, i)`` and oracle answers are state-keyed, so a request's
bytes are independent of lane placement, batch-mates, and server load --
identical to the serial path given the same seed.
"""

from __future__ import annotations

import logging
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.enforcer import JitEnforcer, _enforcer_samples, record_rng
from ..core.engine import LanePool
from ..core.session import EnforcementSession
from ..errors import (
    DeadlineExceeded,
    RequestCancelled,
    ServerClosed,
    UnknownRuleSet,
)
from ..obs import (
    DEFAULT_LATENCY_BUCKETS_MS,
    OBS,
    MetricsRegistry,
    Sample,
    SLOConfig,
    SLOTracker,
    format_kv,
)
from ..obs.prometheus import render
from ..rules.registry import RuleSetHandle, RuleSetRegistry
from .queue import AdmissionQueue
from .types import RequestSpec, ServeRequest, ServeResult

__all__ = ["ContinuousBatchingScheduler"]

logger = logging.getLogger(__name__)

Plan = Tuple[Dict[str, int], str, List[str]]


@dataclass
class _Unit:
    """One record's worth of work for one request."""

    request: ServeRequest
    index: int  # absolute record index (pins the rng stream)
    plan: Plan


# A lane slot is empty (None) or holds (unit, session, pending prefix ids).
_Slot = Optional[Tuple[_Unit, EnforcementSession, List[int]]]


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    rank = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values))))
    return sorted_values[rank]


def _safe_copy(mapping: Mapping) -> Dict:
    """Copy a dict that another thread may be growing (retry on resize)."""
    for _ in range(8):
        try:
            return dict(mapping)
        except RuntimeError:  # pragma: no cover -- needs a racing writer
            continue
    return {}  # pragma: no cover


def _serve_samples(scheduler: "ContinuousBatchingScheduler") -> List[Sample]:
    """Render the scheduler's live state as registry samples.

    Registered as a weakly-owned collector: the scheduler's counters reach
    every Prometheus scrape with no hot-path double counting, and vanish
    from exposition when the scheduler is garbage collected.  Request
    counters fold in the admission queue's reaped/rejected tallies so the
    exposed totals match :meth:`ContinuousBatchingScheduler.metrics`.
    """
    queue = scheduler.queue
    busy = sum(1 for slot in scheduler._slots if slot is not None)
    uptime = (
        time.monotonic() - scheduler._started_at
        if scheduler._started_at
        else 0.0
    )
    samples = [
        Sample.counter("repro_serve_requests_submitted_total",
                       scheduler.submitted,
                       help="Requests accepted into the admission queue"),
        Sample.counter("repro_serve_requests_completed_total",
                       scheduler.completed,
                       help="Requests finished successfully"),
        Sample.counter("repro_serve_requests_failed_total", scheduler.failed,
                       help="Requests failed by an enforcement error"),
        Sample.counter("repro_serve_requests_cancelled_total",
                       scheduler.cancelled + queue.reaped_cancelled,
                       help="Requests cancelled by the client"),
        Sample.counter("repro_serve_requests_expired_total",
                       scheduler.expired + queue.reaped_expired,
                       help="Requests that blew their deadline"),
        Sample.counter("repro_serve_requests_rejected_total", queue.rejected,
                       help="Requests rejected by queue backpressure"),
        Sample.counter("repro_serve_records_completed_total",
                       scheduler.records_completed,
                       help="Records emitted across all requests"),
        Sample.counter("repro_serve_lm_calls_total", scheduler.lm_calls,
                       help="Batched model invocations"),
        Sample.counter("repro_serve_lm_rows_total", scheduler.lm_rows,
                       help="Total rows across batched model invocations"),
        Sample.gauge("repro_serve_queue_depth", len(queue),
                     help="Requests currently waiting for a lane"),
        Sample.gauge("repro_serve_lanes", scheduler.lanes,
                     help="Configured concurrent lanes"),
        Sample.gauge("repro_serve_lanes_busy", busy,
                     help="Lanes with a resident session"),
        Sample.gauge("repro_serve_uptime_seconds", uptime,
                     help="Seconds since the scheduler thread started"),
    ]
    for tenant, row in sorted(scheduler.tenant_stats().items()):
        labels = {"tenant": tenant}
        samples.append(Sample.counter(
            "repro_serve_tenant_requests_completed_total", row["completed"],
            labels=labels, help="Requests finished per rule-pack tenant",
        ))
        samples.append(Sample.counter(
            "repro_serve_tenant_requests_failed_total", row["failed"],
            labels=labels, help="Requests failed per rule-pack tenant",
        ))
        samples.append(Sample.counter(
            "repro_serve_tenant_records_completed_total", row["records"],
            labels=labels, help="Records emitted per rule-pack tenant",
        ))
    for resource, total in scheduler.pool.solver_work().items():
        samples.append(Sample.counter(
            "repro_serve_solver_work_total", total,
            labels={"resource": resource},
            help="Deterministic solver work across the lane pool",
        ))
    cache = scheduler.pool.cache_stats()
    for key in ("hits", "misses", "evictions"):
        samples.append(Sample.counter(
            f"repro_serve_oracle_cache_{key}_total", cache[key],
            help=f"Shared oracle cache {key}",
        ))
    samples.append(Sample.gauge(
        "repro_serve_oracle_cache_entries", cache["entries"],
        help="Shared oracle cache resident entries",
    ))
    return samples


class ContinuousBatchingScheduler:
    """Always-on enforcement service over a pool of engine lanes.

    ``lanes`` concurrent sessions run in lock-step; ``queue_depth`` bounds
    admission (overflow raises :class:`~repro.errors.QueueFull`).  Requests
    carry priorities, per-request seeds, and optional deadlines; a request
    that blows its deadline or is cancelled aborts at its next suspension
    checkpoint without touching batch-mates.  ``stop(drain=True)`` finishes
    everything admitted before shutting down.
    """

    def __init__(
        self,
        enforcer: JitEnforcer,
        lanes: int = 4,
        queue_depth: int = 64,
        latency_window: int = 4096,
        idle_wait: float = 0.02,
        registry: Optional[MetricsRegistry] = None,
        rule_registry: Optional[RuleSetRegistry] = None,
        tenant_quotas: Optional[Mapping[str, int]] = None,
        tenant_priorities: Optional[Mapping[str, int]] = None,
        latency_buckets: Optional[Sequence[float]] = None,
        slo: Optional[SLOConfig] = None,
    ):
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        self.enforcer = enforcer
        self.lanes = lanes
        self.pool = LanePool(enforcer, lanes)
        self.queue = AdmissionQueue(
            queue_depth,
            tenant_quotas=tenant_quotas,
            tenant_priorities=tenant_priorities,
        )
        # -- multi-tenant rule sets -------------------------------------------
        # Requests resolve their pack at submission; registry mutations
        # (promote/retire) are queued here and applied on the scheduler
        # thread so cache eviction never races the enforcement loop.
        self.rule_registry = rule_registry
        self._rule_events: Deque[Dict[str, object]] = deque()
        self._tenant_stats: Dict[str, Dict[str, int]] = {}
        if rule_registry is not None:
            rule_registry.subscribe(self._rule_events.append)
        self._slots: List[_Slot] = [None] * lanes
        self._ready: Deque[_Unit] = deque()
        self._idle_wait = idle_wait
        self._thread: Optional[threading.Thread] = None
        self._stopping = False
        self._started_at: Optional[float] = None
        # -- metrics (ints under the GIL; the reservoir under its lock) -------
        self._metrics_lock = threading.Lock()
        self._latencies: Deque[float] = deque(maxlen=latency_window)
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.expired = 0
        self.records_completed = 0
        # -- metrics registry (defaults to the process-wide one) --------------
        self.registry = registry if registry is not None else OBS.registry
        self._latency_hist = self.registry.histogram(
            "repro_serve_request_latency_ms",
            tuple(latency_buckets)
            if latency_buckets is not None
            else DEFAULT_LATENCY_BUCKETS_MS,
            help="End-to-end request latency (submit to final record)",
        )
        # Per-tenant SLO accounting: fed once per *request* completion
        # (success or terminal failure), exposed via metrics()/summary/
        # Prometheus.  Always on -- an observe is two dict updates.
        self.slo = SLOTracker(slo)
        self.registry.register_collector(
            "slo", lambda s: s.slo.samples(), owner=self
        )
        self.registry.register_collector("serve", _serve_samples, owner=self)
        # Ladder-rung, budget-exhaustion, and cache counters ride along via
        # the enforcer's collector -- re-register it here so they reach this
        # scheduler's registry even when it is not the process-wide default.
        self.registry.register_collector(
            "enforcer", _enforcer_samples, owner=enforcer
        )

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "ContinuousBatchingScheduler":
        if self._thread is not None:
            raise RuntimeError("scheduler already started")
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-scheduler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut down; with ``drain`` finish all admitted work first."""
        self.queue.close(drain=drain)
        if not drain:
            for slot in list(self._slots):
                if slot is not None:
                    slot[0].request.fail(ServerClosed("server shut down"))
        self._stopping = True
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ContinuousBatchingScheduler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop(drain=True)

    # Batched model calls and their rows, counted once, on the lane pool.
    lm_calls = property(lambda self: self.pool.lm_calls)
    lm_rows = property(lambda self: self.pool.lm_rows)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- submission ----------------------------------------------------------------

    def submit(self, spec: RequestSpec) -> ServeRequest:
        """Enqueue a request; returns its live handle immediately.

        Raises :class:`~repro.errors.QueueFull` under backpressure and
        :class:`~repro.errors.ServerClosed` once shutdown has begun.
        """
        if self._thread is None or not self._thread.is_alive():
            raise ServerClosed("scheduler is not running")
        handle = self._resolve_rule_set(spec)
        request = ServeRequest(spec)
        request.rule_handle = handle
        self.queue.submit(request)  # raises QueueFull / ServerClosed
        self.submitted += 1
        return request

    def _resolve_rule_set(self, spec: RequestSpec) -> Optional[RuleSetHandle]:
        """Pin the pack version this request will enforce, or fail fast.

        Resolution happens synchronously at submission so unknown packs
        (404) and retired versions (409) surface before any queueing, and
        a promote between submission and admission cannot change what an
        accepted request enforces.
        """
        if spec.rule_set is None:
            return None
        if self.rule_registry is None:
            raise UnknownRuleSet(
                f"request named rule pack {spec.rule_set!r} but this server "
                "has no rule-set registry configured"
            )
        return self.rule_registry.resolve(spec.rule_set)

    def impute(
        self,
        coarse: Mapping[str, int],
        context: Optional[Mapping[str, int]] = None,
        seed: Optional[int] = None,
        priority: int = 0,
        timeout_ms: Optional[float] = None,
        wait_timeout: Optional[float] = None,
        rule_set: Optional[str] = None,
    ) -> ServeResult:
        """Synchronous imputation round-trip (submit + wait)."""
        request = self.submit(
            RequestSpec(
                "impute",
                coarse=coarse,
                context=context,
                seed=seed,
                priority=priority,
                timeout_ms=timeout_ms,
                rule_set=rule_set,
            )
        )
        return request.result(wait_timeout)

    def synthesize(
        self,
        count: int = 1,
        context: Optional[Mapping[str, int]] = None,
        seed: Optional[int] = None,
        priority: int = 0,
        timeout_ms: Optional[float] = None,
        wait_timeout: Optional[float] = None,
        rule_set: Optional[str] = None,
    ) -> ServeResult:
        """Synchronous synthesis round-trip (submit + wait)."""
        request = self.submit(
            RequestSpec(
                "synthesize",
                count=count,
                context=context,
                seed=seed,
                priority=priority,
                timeout_ms=timeout_ms,
                rule_set=rule_set,
            )
        )
        return request.result(wait_timeout)

    # -- the continuous loop ---------------------------------------------------------

    def _run(self) -> None:
        try:
            while True:
                self._apply_rule_events()
                self._admit()
                live = [
                    (slot_index, slot[1], slot[2])
                    for slot_index, slot in enumerate(self._slots)
                    if slot is not None
                ]
                if not live:
                    if self._stopping and self.queue.closed and not len(
                        self.queue
                    ) and not self._ready:
                        return
                    self.queue.wait_for_work(self._idle_wait)
                    continue
                for pending, (slot_index, session, _) in zip(
                    self.pool.step(live), live
                ):
                    unit = self._slots[slot_index][0]
                    if session.done:
                        self._harvest(unit, session)
                        self._slots[slot_index] = None
                    else:
                        self._slots[slot_index] = (unit, session, pending)
        except BaseException as exc:  # crash backstop
            logger.exception("scheduler loop died: %s", exc)
            for slot_index, slot in enumerate(self._slots):
                if slot is not None:
                    slot[0].request.fail(exc)
                    self._slots[slot_index] = None
                    self.pool.retire(slot_index)
            self.queue.close(drain=False)
            raise
        finally:
            self.enforcer.trace.solver_work = self.pool.solver_work()

    def _apply_rule_events(self) -> None:
        """Apply queued registry mutations on the scheduler thread.

        A ``retire`` evicts the pack's oracle-cache partition so a retired
        tenant stops holding cache capacity; ``register``/``promote`` need
        no action here -- partitions are keyed by content hash, so a newly
        active version simply warms its own partition.  Running this on
        the scheduler thread means eviction never races a lane's
        lookup/store (the cache is not locked).
        """
        while self._rule_events:
            event = self._rule_events.popleft()
            if event.get("event") != "retire":
                continue
            self.pool.cache.evict_partition(event["hash"])

    def _admit(self) -> None:
        """Place queued work into free lanes, mid-flight."""
        now = time.monotonic()
        free = [
            slot_index
            for slot_index in range(self.lanes)
            if self._slots[slot_index] is None
        ]
        while free:
            unit = self._next_unit(now)
            if unit is None:
                return
            slot_index = self._pick_slot(unit, free)
            spec = unit.request.spec
            trace = None
            if spec.trace_id is not None or spec.attempt:
                trace = {
                    "trace_id": spec.trace_id,
                    "parent": spec.trace_parent,
                    "attempt": spec.attempt,
                }
            session = self.enforcer.open_session(
                *unit.plan,
                lane=self.pool.lanes[slot_index],
                rng=record_rng(spec.seed, unit.index),
                checkpoint=unit.request.checkpoint,
                rule_set=unit.request.rule_handle,
                trace=trace,
            )
            pending = self.pool.start(slot_index, session)
            if session.done:
                # Finished inside start() (e.g. degraded without sampling):
                # the lane is free again for the next queued unit.
                self._harvest(unit, session)
                free.append(slot_index)
            else:
                self._slots[slot_index] = (unit, session, pending)

    def _pick_slot(self, unit: _Unit, free: List[int]) -> int:
        """Pop the lane this unit runs on, honoring sticky affinity.

        A ``sticky_key`` hashes to a home lane; if that lane is free the
        unit takes it, so consecutive records of one stream reuse the same
        lane's KV-cache row (rewind state stays warm) and oracle pool.
        Busy home lanes fall back to FIFO placement -- affinity is purely
        a performance hint and never delays admission.
        """
        key = unit.request.spec.sticky_key
        if key is not None:
            home = zlib.crc32(key.encode("utf-8")) % self.lanes
            if home in free:
                free.remove(home)
                return home
        return free.pop(0)

    def _next_unit(self, now: float) -> Optional[_Unit]:
        """The next admissible unit, expanding requests as they are popped."""
        while True:
            while not self._ready:
                request = self.queue.pop(now)
                if request is None:
                    return None
                request.mark_running()
                plan = self._plan(request.spec)
                base = request.spec.index_offset
                for index in range(request.spec.count):
                    self._ready.append(_Unit(request, base + index, plan))
            unit = self._ready.popleft()
            request = unit.request
            if request.done:
                continue  # a sibling unit already failed the request
            if request.cancel_requested:
                if request.fail(RequestCancelled(f"request {request.id} cancelled")):
                    self.cancelled += 1
                    self.slo.observe(request.tenant, request.latency_ms, ok=False)
                continue
            if request.expired(now):
                if request.fail(
                    DeadlineExceeded(f"request {request.id} expired while queued")
                ):
                    self.expired += 1
                    self.slo.observe(request.tenant, request.latency_ms, ok=False)
                continue
            return unit

    def _plan(self, spec: RequestSpec) -> Plan:
        if spec.kind == "impute":
            return self.enforcer.impute_plan(spec.coarse, spec.context)
        return self.enforcer.synthesize_plan(spec.context)

    def _harvest(self, unit: _Unit, session: EnforcementSession) -> None:
        # A dead session's lane was already retired by the pool.
        request = unit.request
        tenant_row = self._tenant_stats.setdefault(
            request.tenant, {"completed": 0, "failed": 0, "records": 0}
        )
        if session.error is not None:
            if request.fail(session.error):
                if isinstance(session.error, DeadlineExceeded):
                    self.expired += 1
                elif isinstance(session.error, RequestCancelled):
                    self.cancelled += 1
                else:
                    self.failed += 1
                    tenant_row["failed"] += 1
                self.slo.observe(request.tenant, request.latency_ms, ok=False)
            return
        self.records_completed += 1
        tenant_row["records"] += 1
        relative = unit.index - request.spec.index_offset
        if request.finish_unit(relative, session.outcome):
            self.completed += 1
            tenant_row["completed"] += 1
            self._latency_hist.observe(request.latency_ms)
            self.slo.observe(request.tenant, request.latency_ms, ok=True)
            with self._metrics_lock:
                self._latencies.append(request.latency_ms)

    # -- observability -----------------------------------------------------------------

    def tenant_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant request/record counters (a copy; any thread)."""
        return {
            tenant: dict(row)
            for tenant, row in _safe_copy(self._tenant_stats).items()
        }

    def health(self) -> Dict[str, object]:
        """The ``GET /healthz`` payload; safe to call from any thread."""
        draining = self.queue.closed
        return {
            "status": "draining" if draining else "ok",
            "lanes": self.lanes,
            "lanes_busy": sum(1 for slot in self._slots if slot is not None),
            "queue_depth": len(self.queue),
        }

    def metrics(self) -> Dict[str, object]:
        """The ``GET /metrics`` payload; safe to call from any thread."""
        with self._metrics_lock:
            latencies = sorted(self._latencies)
        latency: Dict[str, object] = {"count": len(latencies)}
        if latencies:
            latency.update(
                p50=round(_percentile(latencies, 0.50), 3),
                p99=round(_percentile(latencies, 0.99), 3),
                mean=round(sum(latencies) / len(latencies), 3),
                max=round(latencies[-1], 3),
            )
        busy = sum(1 for slot in self._slots if slot is not None)
        uptime = (
            time.monotonic() - self._started_at if self._started_at else 0.0
        )
        queued = self.queue.tenant_depths()
        return {
            "uptime_s": round(uptime, 3),
            "lanes": self.lanes,
            "lanes_busy": busy,
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.max_depth,
            "requests": {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "cancelled": self.cancelled + self.queue.reaped_cancelled,
                "expired": self.expired + self.queue.reaped_expired,
                "rejected": self.queue.rejected,
            },
            "records_completed": self.records_completed,
            "latency_ms": latency,
            "slo": self.slo.snapshot(),
            "tenants": {
                tenant: dict(row, queued=queued.get(tenant, 0))
                for tenant, row in sorted(self.tenant_stats().items())
            },
            "rule_sets": (
                self.rule_registry.describe()
                if self.rule_registry is not None
                else None
            ),
            "lm": {
                "calls": self.lm_calls,
                "rows": self.lm_rows,
                "lane_occupancy": round(
                    self.lm_rows / (self.lm_calls * self.lanes), 4
                )
                if self.lm_calls
                else 0.0,
            },
            "oracle_cache": self.pool.cache_stats(),
            "lm_cache": self.pool.lm_cache_stats(),
            "ladder": _safe_copy(self.enforcer.trace.ladder),
            "degraded_records": self.enforcer.trace.degraded_records,
            "budget": {
                "exhaustions": self.enforcer.trace.budget_exhaustions,
                "retries": self.enforcer.trace.budget_retries,
                "unknown_confirms": self.enforcer.trace.unknown_confirms,
            },
            "solver_work": self.pool.solver_work(),
        }

    def prometheus_text(self) -> str:
        """The registry rendered as Prometheus exposition text.

        Includes this scheduler's collector, the enforcer's (ladder rungs,
        budget exhaustions, cache hit/miss), and the request-latency
        histogram; safe to call from any thread.
        """
        return render(self.registry)

    def summary_line(self) -> str:
        """One machine-parseable ``key=value`` line for operator logs."""
        m = self.metrics()
        requests = m["requests"]
        latency = m["latency_ms"]
        throughput = (
            self.completed / m["uptime_s"] if m["uptime_s"] > 0 else 0.0
        )
        pairs = [
            ("requests_completed", requests["completed"]),
            ("requests_failed", requests["failed"]),
            ("requests_rejected", requests["rejected"]),
            ("requests_expired", requests["expired"]),
            ("requests_cancelled", requests["cancelled"]),
            ("records_completed", m["records_completed"]),
            ("throughput_rps", f"{throughput:.2f}"),
            ("p50_ms", latency.get("p50", 0.0)),
            ("p99_ms", latency.get("p99", 0.0)),
            ("lane_occupancy", m["lm"]["lane_occupancy"]),
        ]
        cache = m["oracle_cache"]
        pairs.append(("oracle_cache_hit_rate", cache["hit_rate"]))
        pairs.append(("oracle_cache_evictions", cache["evictions"]))
        pairs.extend(self.slo.summary_pairs())
        return format_kv(pairs)
