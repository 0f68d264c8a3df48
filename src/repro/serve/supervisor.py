"""Supervised multi-process worker pool: the fault-tolerant serving router.

The single-process :class:`~repro.serve.scheduler.ContinuousBatchingScheduler`
shares one fate with its caller: a segfaulting solver, an OOM-killed model,
or a wedged native call takes the whole server down.  This module splits
the serving layer across a process boundary:

* the **parent router** (:class:`WorkerPool`) owns only restartable state
  -- the admission queue, request handles, deadlines, retry bookkeeping,
  and aggregated metrics;
* each **worker process** (:mod:`repro.serve.workers`) owns everything
  expensive and corruptible -- lanes, LM weights, KV cache, solvers,
  oracle cache -- and runs an in-process continuous-batching scheduler.

Supervision, all on one supervisor thread (no locks around routing state):

* **liveness** -- workers heartbeat every ``heartbeat_interval``; a worker
  silent past ``liveness_timeout`` is declared hung, SIGKILLed, and
  treated as crashed (catches native-code wedges cooperative checkpoints
  can't);
* **crash recovery** -- a dead worker's in-flight records are requeued and
  replayed on a healthy worker.  Replay is byte-identical because record
  ``i`` of seed ``s`` always samples ``record_rng(s, i)`` (jobs carry
  their absolute index via ``RequestSpec.index_offset``).  After
  ``max_unit_retries`` replays a record fails its request with
  :class:`~repro.errors.WorkerCrashed` -- bounded, never infinite;
* **restart with backoff** -- crashed workers restart after an exponential
  delay (``backoff_base * 2^k`` capped at ``backoff_cap``);
* **circuit breaker** -- ``breaker_threshold`` crashes within
  ``breaker_window`` seconds trips a worker's breaker: it cools down for
  ``breaker_cooldown`` before the next (half-open) restart attempt.  When
  *every* worker is tripped the pool sheds new submissions with
  :class:`~repro.errors.WorkerPoolUnavailable` (HTTP 503 + Retry-After)
  instead of queueing behind a crash loop.

The pool exposes the same surface as the scheduler (``submit`` /
``impute`` / ``synthesize`` / ``metrics`` / ``health`` /
``prometheus_text`` / ``summary_line`` / ``stop(drain=...)``), so
:class:`~repro.serve.http.ServingServer` and the CLI swap between them
with a flag (``serve --workers N``).
"""

from __future__ import annotations

import itertools
import logging
import math
import multiprocessing
import os
import signal
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from multiprocessing import util as mp_util
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
)

from ..core.enforcer import JitEnforcer
from ..core.session import RecordOutcome
from ..errors import (
    DeadlineExceeded,
    RequestCancelled,
    ServerClosed,
    UnknownRuleSet,
    WorkerCrashed,
    WorkerPoolUnavailable,
)
from ..rules.registry import RuleSetHandle, RuleSetRegistry
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
from .queue import AdmissionQueue
from .scheduler import _percentile
from .types import RequestSpec, ServeRequest, ServeResult
from .workers import WorkerConfig, resolve_error, worker_main

__all__ = ["WorkerPool", "WorkerHandle"]

logger = logging.getLogger(__name__)

# Worker lifecycle states (kept as strings: they go straight into /healthz).
STARTING = "starting"  # process spawned, enforcer still building
READY = "ready"  # heartbeating and accepting jobs
BACKOFF = "backoff"  # crashed; waiting out the exponential restart delay
BROKEN = "broken"  # breaker tripped; cooling down before half-open retry
STOPPED = "stopped"  # exited cleanly during shutdown

_LM_STAT_KEYS = ("records_completed", "lm_calls", "lm_rows")

# The supervisor wakes on events (a submit, a stop, or a worker message);
# this tick bounds its sleep only so the time-driven housekeeping --
# liveness, restart backoff, breaker cooldown, deadline and cancellation
# scans, rule-event broadcasts -- still runs when nothing happens.
_TICK_S = 0.05


@dataclass
class _PoolUnit:
    """One record's worth of routed work (parent-side bookkeeping)."""

    request: ServeRequest
    index: int  # record index within the request (relative)
    retries: int = 0  # crash replays consumed so far
    cancel_sent: bool = False

    @property
    def abs_index(self) -> int:
        return self.request.spec.index_offset + self.index


@dataclass
class WorkerHandle:
    """The parent's view of one worker slot (a slot survives restarts)."""

    worker_id: int
    process: Optional[Any] = None
    conn: Optional[Any] = None
    state: str = STARTING
    pid: Optional[int] = None
    last_seen: float = 0.0
    started_at: float = 0.0
    restart_at: float = 0.0
    restarts: int = 0  # respawns after the initial start
    failures: Deque[float] = field(default_factory=deque)  # crash timestamps
    inflight: Dict[int, _PoolUnit] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)  # last heartbeat
    # The worker-side MetricsRegistry snapshot shipped in the last
    # heartbeat (a list of Sample rows); the parent re-exposes them under
    # a ``worker`` label so per-process series survive into /metrics.
    metric_samples: List[Sample] = field(default_factory=list)
    shutdown_sent: bool = False

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


def _pool_samples(pool: "WorkerPool") -> List[Sample]:
    """Worker-lifecycle and request counters for Prometheus exposition.

    Request-level series reuse the ``repro_serve_*`` names the scheduler
    exports so dashboards work unchanged whichever backend serves; the
    ``repro_pool_*`` series are supervision-specific.
    """
    healthy = pool._healthy_workers()
    lm = pool._aggregate_worker_stats()
    samples = [
        Sample.counter("repro_serve_requests_submitted_total", pool.submitted,
                       help="Requests accepted into the admission queue"),
        Sample.counter("repro_serve_requests_completed_total", pool.completed,
                       help="Requests finished successfully"),
        Sample.counter("repro_serve_requests_failed_total", pool.failed,
                       help="Requests failed by an enforcement error"),
        Sample.counter("repro_serve_requests_cancelled_total",
                       pool.cancelled + pool.queue.reaped_cancelled,
                       help="Requests cancelled by the client"),
        Sample.counter("repro_serve_requests_expired_total",
                       pool.expired + pool.queue.reaped_expired,
                       help="Requests that blew their deadline"),
        Sample.counter("repro_serve_requests_rejected_total",
                       pool.queue.rejected + pool.shed,
                       help="Requests rejected by backpressure or shedding"),
        Sample.counter("repro_serve_records_completed_total",
                       pool.records_completed,
                       help="Records emitted across all requests"),
        Sample.gauge("repro_serve_queue_depth", len(pool.queue),
                     help="Requests currently waiting for a worker"),
        Sample.counter("repro_pool_worker_crashes_total", pool.worker_crashes,
                       help="Worker processes lost (exit or liveness kill)"),
        Sample.counter("repro_pool_worker_restarts_total",
                       pool.worker_restarts,
                       help="Worker processes respawned by the supervisor"),
        Sample.counter("repro_pool_units_retried_total", pool.units_retried,
                       help="Records replayed after a worker crash"),
        Sample.counter("repro_pool_units_lost_total", pool.units_lost,
                       help="Records failed after exhausting crash replays"),
        Sample.counter("repro_pool_breaker_trips_total", pool.breaker_trips,
                       help="Per-worker circuit breaker activations"),
        Sample.counter("repro_pool_shed_total", pool.shed,
                       help="Submissions shed while the breaker was open"),
        Sample.gauge("repro_pool_workers", pool.workers,
                     help="Configured worker processes"),
        Sample.gauge("repro_pool_workers_healthy", healthy,
                     help="Workers currently heartbeating and taking jobs"),
        Sample.gauge("repro_pool_breaker_open",
                     1.0 if pool.breaker_open else 0.0,
                     help="1 when every worker's breaker is tripped"),
        Sample.counter("repro_pool_lm_calls_total", lm["lm_calls"],
                       help="Batched model invocations across workers"),
        Sample.counter("repro_pool_lm_rows_total", lm["lm_rows"],
                       help="Batched model rows across workers"),
    ]
    for tenant, row in sorted(pool.tenant_stats().items()):
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
    # Per-worker series: a liveness gauge per slot plus the worker's own
    # registry snapshot (shipped in heartbeats) re-labelled with the slot
    # id.  Worker-side families (repro_serve_*, repro_enforcer_*,
    # repro_slo_*) thereby coexist with the parent's aggregate series --
    # the exposition renderer groups by family name, and the extra
    # ``worker`` label keeps the series distinct.
    for handle in pool._handles:
        worker = str(handle.worker_id)
        samples.append(Sample.gauge(
            "repro_worker_up", 1.0 if handle.state == READY else 0.0,
            labels={"worker": worker},
            help="1 when the worker slot is heartbeating and taking jobs",
        ))
        for sample in handle.metric_samples:
            samples.append(Sample(
                sample.name,
                sample.value,
                tuple(sorted(dict(sample.labels, worker=worker).items())),
                sample.type,
                sample.help,
            ))
    return samples


class WorkerPool:
    """Supervised multi-process serving pool (see module docstring).

    ``enforcer_factory`` builds one :class:`JitEnforcer` *inside each
    worker process*; it must be deterministic so restarted workers replay
    records byte-identically.  The parent never builds an enforcer --
    model weights live only in workers.
    """

    def __init__(
        self,
        enforcer_factory: Callable[[], JitEnforcer],
        workers: int = 2,
        lanes_per_worker: int = 2,
        queue_depth: int = 64,
        heartbeat_interval: float = 0.1,
        liveness_timeout: float = 2.0,
        startup_timeout: float = 120.0,
        max_unit_retries: int = 2,
        backoff_base: float = 0.2,
        backoff_cap: float = 5.0,
        breaker_threshold: int = 3,
        breaker_window: float = 10.0,
        breaker_cooldown: float = 2.0,
        max_inflight_per_worker: Optional[int] = None,
        latency_window: int = 4096,
        start_method: Optional[str] = None,
        slow_start_s: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
        rule_registry: Optional[RuleSetRegistry] = None,
        tenant_quotas: Optional[Mapping[str, int]] = None,
        tenant_priorities: Optional[Mapping[str, int]] = None,
        latency_buckets: Optional[Sequence[float]] = None,
        slo: Optional[SLOConfig] = None,
        span_sink: Optional[str] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if lanes_per_worker < 1:
            raise ValueError("lanes_per_worker must be >= 1")
        self.enforcer_factory = enforcer_factory
        self.workers = workers
        self.lanes_per_worker = lanes_per_worker
        self.heartbeat_interval = heartbeat_interval
        self.liveness_timeout = liveness_timeout
        self.startup_timeout = startup_timeout
        self.max_unit_retries = max_unit_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.breaker_threshold = breaker_threshold
        self.breaker_window = breaker_window
        self.breaker_cooldown = breaker_cooldown
        # A little dispatch headroom over the lane count keeps a worker's
        # admission queue primed without parking many records on a process
        # that might die (each parked record is a potential replay).
        self.max_inflight_per_worker = (
            max_inflight_per_worker
            if max_inflight_per_worker is not None
            else lanes_per_worker * 2
        )
        self.slow_start_s = slow_start_s
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else available[0]
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method

        self.queue = AdmissionQueue(
            queue_depth,
            tenant_quotas=tenant_quotas,
            tenant_priorities=tenant_priorities,
        )
        # -- multi-tenant rule sets -------------------------------------------
        # The parent resolves every request's pack at submission and ships
        # jobs by content hash; workers are seeded with a registry snapshot
        # at spawn and kept current by ("rules", event) broadcasts, which
        # the supervisor thread drains from this deque.
        self.rule_registry = rule_registry
        self._rule_events: Deque[Dict[str, object]] = deque()
        self._tenant_stats: Dict[str, Dict[str, int]] = {}
        if rule_registry is not None:
            rule_registry.subscribe(self._rule_events.append)
        self._handles: List[WorkerHandle] = [
            WorkerHandle(worker_id=i) for i in range(workers)
        ]
        self._ready_units: Deque[_PoolUnit] = deque()
        self._unit_ids = itertools.count(1)
        self._thread: Optional[threading.Thread] = None
        # Self-pipe that wakes the supervisor out of its wait: submit() and
        # stop() write one byte to ``_wake_w``.  Open
        # only while the pool runs; the lock keeps a late writer from
        # hitting a closed (possibly reused) fd number.
        self._wake_lock = threading.Lock()
        self._wake_r: Optional[int] = None
        self._wake_w: Optional[int] = None
        self._stopping = False
        self._drain = True
        self._started_at: Optional[float] = None
        # Stats of dead worker incarnations, so LM counters survive restarts.
        self._retired_stats = {key: 0 for key in _LM_STAT_KEYS}

        # -- metrics (ints under the GIL; the reservoir under its lock) -------
        self._metrics_lock = threading.Lock()
        self._latencies: Deque[float] = deque(maxlen=latency_window)
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.expired = 0
        self.shed = 0  # submissions refused by the open breaker
        self.records_completed = 0
        self.dispatched = 0  # jobs sent to workers (includes replays)
        self.worker_crashes = 0
        self.worker_restarts = 0
        self.units_retried = 0
        self.units_lost = 0
        self.breaker_trips = 0

        self.registry = registry if registry is not None else OBS.registry
        self.latency_buckets = (
            tuple(float(b) for b in latency_buckets)
            if latency_buckets is not None
            else DEFAULT_LATENCY_BUCKETS_MS
        )
        self._latency_hist = self.registry.histogram(
            "repro_serve_request_latency_ms",
            self.latency_buckets,
            help="End-to-end request latency (submit to final record)",
        )
        # Request-level SLO accounting lives on the router: every request
        # resolves exactly once here (result, typed error, or reap), which
        # is the one place per-tenant burn rates can be counted without
        # double-observing crash replays.
        self.slo = SLOTracker(slo)
        self.registry.register_collector(
            "worker_pool_slo", lambda pool: pool.slo.samples(), owner=self
        )
        # Base path for per-worker span sinks; each (re)spawn gets its own
        # ``<base>.w<id>.g<generation>`` file (sinks open with mode "w", so
        # a respawn must never reuse its predecessor's filename).
        self.span_sink = os.fspath(span_sink) if span_sink is not None else None
        self.registry.register_collector("worker_pool", _pool_samples,
                                         owner=self)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "WorkerPool":
        if self._thread is not None:
            raise RuntimeError("worker pool already started")
        self._started_at = time.monotonic()
        now = self._started_at
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        # Forked workers inherit every open fd; drop the wake pipe in them.
        mp_util.register_after_fork(self, WorkerPool._after_fork)
        for handle in self._handles:
            self._spawn(handle, now)
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-supervisor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut down; with ``drain`` finish all admitted work first."""
        self.queue.close(drain=drain)
        self._drain = drain
        self._stopping = True
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop(drain=True)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def lanes(self) -> int:
        """Total enforcement lanes across the pool (capacity analogue)."""
        return self.workers * self.lanes_per_worker

    @property
    def breaker_open(self) -> bool:
        """True when no worker slot can make progress (all tripped)."""
        return all(handle.state == BROKEN for handle in self._handles)

    # -- submission ----------------------------------------------------------------

    def submit(self, spec: RequestSpec) -> ServeRequest:
        """Enqueue a request; returns its live handle immediately.

        Raises :class:`~repro.errors.QueueFull` under backpressure,
        :class:`~repro.errors.WorkerPoolUnavailable` while the breaker
        sheds, and :class:`~repro.errors.ServerClosed` after shutdown.
        """
        if self._thread is None or not self._thread.is_alive():
            raise ServerClosed("worker pool is not running")
        if self.breaker_open:
            self.shed += 1
            raise WorkerPoolUnavailable(
                "all workers are crash-looping; shedding load",
                retry_after=max(1, math.ceil(self.breaker_cooldown)),
            )
        handle = self._resolve_rule_set(spec)
        request = ServeRequest(spec)
        request.rule_handle = handle
        self.queue.submit(request)  # raises QueueFull / ServerClosed
        self.submitted += 1
        self._wake()
        return request

    def _wake(self) -> None:
        """Interrupt the supervisor's wait (any thread, never blocks)."""
        with self._wake_lock:
            if self._wake_w is None:
                return
            try:
                os.write(self._wake_w, b"\0")
            except BlockingIOError:
                pass  # pipe full: a wake-up is already pending

    def _close_wake(self) -> None:
        with self._wake_lock:
            for fd in (self._wake_r, self._wake_w):
                if fd is not None:
                    os.close(fd)
            self._wake_r = self._wake_w = None

    def _after_fork(self) -> None:
        # Runs in a forked child, where another parent thread may have
        # held the lock at fork time: replace it rather than wait on it.
        self._wake_lock = threading.Lock()
        self._close_wake()

    def _resolve_rule_set(self, spec: RequestSpec) -> Optional[RuleSetHandle]:
        """Pin the pack version this request will enforce (parent-side).

        Resolving *before* queueing means 404/409 surface synchronously,
        and dispatch ships the pinned content hash -- so a promote or even
        a retire after submission never changes what an admitted record
        (or its crash replay) enforces.
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

    # -- the supervisor loop -----------------------------------------------------

    def _run(self) -> None:
        try:
            while True:
                now = time.monotonic()
                self._reap(now)
                self._restart_due(now)
                self._broadcast_rules()
                self._scan_inflight(now)
                self._admit(now)
                self._dispatch(now)
                if self._stopping and self._drained():
                    break
                self._poll()
        except BaseException as exc:  # pragma: no cover -- crash backstop
            logger.exception("supervisor loop died: %s", exc)
            self._fail_everything(exc)
            raise
        finally:
            self._shutdown_workers()
            self._close_wake()

    def _drained(self) -> bool:
        if not self._drain:
            self._fail_everything(ServerClosed("server shut down"))
            return True
        inflight = any(handle.inflight for handle in self._handles)
        return not inflight and not self._ready_units and not len(self.queue)

    # -- worker lifecycle --------------------------------------------------------

    def _spawn(self, handle: WorkerHandle, now: float) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        config = WorkerConfig(
            worker_id=handle.worker_id,
            enforcer_factory=self.enforcer_factory,
            lanes=self.lanes_per_worker,
            queue_depth=max(self.max_inflight_per_worker * 2, 8),
            heartbeat_interval=self.heartbeat_interval,
            slow_start_s=self.slow_start_s,
            # A fresh snapshot per (re)spawn: restarted workers come back
            # knowing every pack registered since the pool started, so a
            # replayed job's hash ref always resolves.
            registry_snapshot=(
                self.rule_registry.snapshot()
                if self.rule_registry is not None
                else None
            ),
            # Generation-suffixed sink: restart k of worker i traces into
            # ``<base>.w<i>.g<k>`` so crash replays never clobber the spans
            # the dead incarnation already flushed.
            span_sink=(
                f"{self.span_sink}.w{handle.worker_id}.g{handle.restarts}"
                if self.span_sink is not None
                else None
            ),
            scheduler_kwargs={"latency_buckets": self.latency_buckets},
        )
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, config),
            name=f"repro-worker-{handle.worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker's end lives only in the worker
        handle.process = process
        handle.conn = parent_conn
        handle.state = STARTING
        handle.pid = process.pid
        handle.last_seen = now
        handle.started_at = now
        handle.shutdown_sent = False
        handle.stats = {}

    def _reap(self, now: float) -> None:
        """Detect dead and hung workers; turn both into crash recoveries."""
        for handle in self._handles:
            if handle.state not in (STARTING, READY):
                continue
            if not handle.alive:
                code = handle.process.exitcode if handle.process else None
                self._on_worker_down(handle, now, f"exited with code {code}")
                continue
            silent = now - handle.last_seen
            limit = (
                self.startup_timeout
                if handle.state == STARTING
                else self.liveness_timeout
            )
            if silent > limit:
                # Hung (e.g. wedged in native solver code): the cooperative
                # checkpoint can't fire, so the supervisor kills from outside.
                self._kill(handle)
                self._on_worker_down(
                    handle, now, f"liveness timeout ({silent:.1f}s silent)"
                )

    def _kill(self, handle: WorkerHandle) -> None:
        if handle.process is not None and handle.process.is_alive():
            try:
                os.kill(handle.process.pid, signal.SIGKILL)
            except (OSError, TypeError):  # pragma: no cover -- already gone
                pass
            handle.process.join(timeout=5)

    def _on_worker_down(
        self, handle: WorkerHandle, now: float, reason: str
    ) -> None:
        logger.warning(
            "worker %d (pid %s) down: %s; %d record(s) in flight",
            handle.worker_id, handle.pid, reason, len(handle.inflight),
        )
        self.worker_crashes += 1
        self._retire_stats(handle)
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
            handle.conn = None
        if handle.process is not None:
            handle.process.join(timeout=1)
            handle.process = None
        self._requeue_inflight(handle)
        # Breaker bookkeeping: crashes inside the sliding window.
        handle.failures.append(now)
        while handle.failures and now - handle.failures[0] > self.breaker_window:
            handle.failures.popleft()
        if len(handle.failures) >= self.breaker_threshold:
            handle.state = BROKEN
            handle.restart_at = now + self.breaker_cooldown
            self.breaker_trips += 1
            logger.warning(
                "worker %d breaker open: %d crashes in %.1fs; cooling %.1fs",
                handle.worker_id, len(handle.failures),
                self.breaker_window, self.breaker_cooldown,
            )
        else:
            handle.state = BACKOFF
            delay = min(
                self.backoff_cap,
                self.backoff_base * (2 ** max(0, len(handle.failures) - 1)),
            )
            handle.restart_at = now + delay

    def _requeue_inflight(self, handle: WorkerHandle) -> None:
        """Replay (or give up on) every record the dead worker held.

        Requeued units go to the *front* so replayed records keep their
        latency budget tight; each replay is byte-identical to what the
        dead worker would have produced.
        """
        units = list(handle.inflight.values())
        handle.inflight.clear()
        for unit in reversed(units):
            request = unit.request
            if request.done:
                continue
            unit.retries += 1
            unit.cancel_sent = False
            if unit.retries > self.max_unit_retries:
                self.units_lost += 1
                if request.fail(WorkerCrashed(
                    f"record {unit.abs_index} lost to {unit.retries} worker "
                    f"crashes (request {request.id})"
                )):
                    self.failed += 1
                    self.slo.observe(
                        request.tenant, request.latency_ms, ok=False
                    )
                continue
            self.units_retried += 1
            self._ready_units.appendleft(unit)

    def _restart_due(self, now: float) -> None:
        if self._stopping:
            return  # no respawns once shutdown began
        for handle in self._handles:
            if handle.state in (BACKOFF, BROKEN) and now >= handle.restart_at:
                self.worker_restarts += 1
                handle.restarts += 1
                self._spawn(handle, now)

    def _retire_stats(self, handle: WorkerHandle) -> None:
        for key in _LM_STAT_KEYS:
            self._retired_stats[key] += int(handle.stats.get(key, 0))
        handle.stats = {}

    def _broadcast_rules(self) -> None:
        """Forward queued registry mutations to every live worker.

        Workers spawned after an event already carry it in their snapshot;
        ``apply_event`` ignores duplicate registers, so the overlap window
        between snapshot and broadcast is harmless.
        """
        while self._rule_events:
            event = self._rule_events.popleft()
            for handle in self._handles:
                if handle.conn is None or handle.state not in (
                    STARTING, READY
                ):
                    continue
                try:
                    handle.conn.send(("rules", event))
                except (BrokenPipeError, OSError):
                    pass  # the reaper will claim this worker shortly

    # -- routing -----------------------------------------------------------------

    def _admit(self, now: float) -> None:
        """Expand queued requests into routable single-record units."""
        capacity = sum(
            self.max_inflight_per_worker - len(handle.inflight)
            for handle in self._handles
            if handle.state == READY
        )
        while len(self._ready_units) < max(capacity, 1):
            request = self.queue.pop(now)
            if request is None:
                return
            request.mark_running()
            for index in range(request.spec.count):
                self._ready_units.append(_PoolUnit(request, index))

    def _dispatch(self, now: float) -> None:
        """Place ready units on the least-loaded healthy workers.

        Units carrying a ``sticky_key`` prefer their hash-chosen home
        worker while it is healthy and has capacity, so one stream's
        records land on one process (warm KV row, warm oracle memos).
        Affinity is best-effort: a busy or dead home worker falls back to
        least-loaded placement rather than stalling the queue.
        """
        while self._ready_units:
            ready_workers = sorted(
                (h for h in self._handles if h.state == READY),
                key=lambda h: len(h.inflight),
            )
            target = next(
                (
                    h
                    for h in ready_workers
                    if len(h.inflight) < self.max_inflight_per_worker
                ),
                None,
            )
            if target is None:
                return
            sticky = self._ready_units[0].request.spec.sticky_key
            if sticky is not None and self._handles:
                home = self._handles[
                    zlib.crc32(sticky.encode("utf-8")) % len(self._handles)
                ]
                if (
                    home.state == READY
                    and len(home.inflight) < self.max_inflight_per_worker
                ):
                    target = home
            unit = self._ready_units.popleft()
            request = unit.request
            if request.done:
                continue
            if request.cancel_requested:
                if request.fail(
                    RequestCancelled(f"request {request.id} cancelled")
                ):
                    self.cancelled += 1
                    self.slo.observe(
                        request.tenant, request.latency_ms, ok=False
                    )
                continue
            if request.expired(now):
                if request.fail(DeadlineExceeded(
                    f"request {request.id} expired while queued"
                )):
                    self.expired += 1
                    self.slo.observe(
                        request.tenant, request.latency_ms, ok=False
                    )
                continue
            if not self._send_job(target, unit, now):
                # The pipe broke mid-dispatch: the job never left, so put
                # it straight back (no retry consumed) and recycle the
                # worker before trying again.
                self._ready_units.appendleft(unit)
                self._on_worker_down(target, now, "pipe broke on dispatch")

    def _send_job(
        self, handle: WorkerHandle, unit: _PoolUnit, now: float
    ) -> bool:
        spec = unit.request.spec
        remaining_ms: Optional[float] = None
        if unit.request.deadline is not None:
            remaining_ms = max(0.0, (unit.request.deadline - now) * 1000.0)
        unit_id = next(self._unit_ids)
        rule_handle = unit.request.rule_handle
        job = {
            "kind": spec.kind,
            "coarse": dict(spec.coarse) if spec.coarse is not None else None,
            "context": dict(spec.context) if spec.context is not None else None,
            "count": 1,
            "seed": spec.seed,
            "priority": spec.priority,
            "timeout_ms": remaining_ms,
            "index_offset": unit.abs_index,
            # Ship the pinned content hash, not the client's name ref: hash
            # resolution survives promote *and* retire, so replays on a
            # restarted worker enforce exactly the admitted version.
            "rule_set": (
                rule_handle.hash_ref if rule_handle is not None else None
            ),
            # Affinity flows through to the worker's in-process scheduler
            # so the stream also pins a *lane* inside its home worker.
            "sticky_key": spec.sticky_key,
            # Trace context crosses the pipe as the correlation id plus the
            # replay attempt -- never ``trace_parent``, which is a span id
            # local to *this* process.  The worker's record span stays a
            # local root carrying the trace_id attr; merge-time re-parenting
            # (repro.obs.merge) stitches it under the router's request span.
            "trace_id": spec.trace_id,
            "attempt": unit.retries,
        }
        try:
            handle.conn.send(("job", unit_id, job))
        except (BrokenPipeError, OSError):
            return False
        handle.inflight[unit_id] = unit
        self.dispatched += 1
        return True

    def _scan_inflight(self, now: float) -> None:
        """Propagate deadlines and cancellation to dispatched records."""
        for handle in self._handles:
            if handle.conn is None or not handle.inflight:
                continue
            for unit_id, unit in list(handle.inflight.items()):
                request = unit.request
                overdue = request.expired(now)
                if not (request.done or request.cancel_requested or overdue):
                    continue
                if overdue and request.fail(DeadlineExceeded(
                    f"request {request.id} exceeded its deadline in flight"
                )):
                    self.expired += 1
                    self.slo.observe(
                        request.tenant, request.latency_ms, ok=False
                    )
                elif request.cancel_requested and request.fail(
                    RequestCancelled(f"request {request.id} cancelled")
                ):
                    self.cancelled += 1
                    self.slo.observe(
                        request.tenant, request.latency_ms, ok=False
                    )
                if not unit.cancel_sent:
                    unit.cancel_sent = True
                    try:
                        handle.conn.send(("cancel", unit_id))
                    except (BrokenPipeError, OSError):
                        pass  # the reaper will claim this worker shortly

    # -- message handling --------------------------------------------------------

    def _poll(self) -> None:
        """Wait for a worker message or a wake-up, at most one tick."""
        conns = {
            handle.conn: handle
            for handle in self._handles
            if handle.conn is not None and handle.state in (STARTING, READY)
        }
        # With every worker backing off, tick faster so restarts are prompt.
        timeout = _TICK_S if conns else min(_TICK_S, 0.02)
        try:
            readable = mp_connection.wait(
                [self._wake_r, *conns], timeout=timeout
            )
        except OSError:  # pragma: no cover -- a conn died mid-wait
            readable = []
        now = time.monotonic()
        for conn in readable:
            if conn == self._wake_r:
                os.read(conn, 1 << 16)  # drain: a pipe buffers at most 64 KiB
                continue
            handle = conns[conn]
            while handle.conn is conn:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    self._on_worker_down(handle, now, "pipe closed")
                    break
                self._handle_message(handle, message, now)

    def _handle_message(
        self, handle: WorkerHandle, message: tuple, now: float
    ) -> None:
        handle.last_seen = now
        kind = message[0]
        if kind == "ready":
            handle.state = READY
            handle.pid = message[1]
        elif kind == "hb":
            stats = dict(message[1])
            # Pop the Sample rows before storing: handle.stats feeds the
            # JSON /metrics payload, which must stay plain builtins.
            handle.metric_samples = stats.pop("metrics", [])
            handle.stats = stats
        elif kind == "result":
            _, unit_id, wire = message
            unit = handle.inflight.pop(unit_id, None)
            if unit is None:
                return  # raced with a cancel/requeue; request already settled
            tenant_row = self._tenant_row(unit.request.tenant)
            self.records_completed += 1
            tenant_row["records"] += 1
            outcome = RecordOutcome(**wire)
            if unit.request.finish_unit(unit.index, outcome):
                self.completed += 1
                tenant_row["completed"] += 1
                self._latency_hist.observe(unit.request.latency_ms)
                self.slo.observe(
                    unit.request.tenant, unit.request.latency_ms, ok=True
                )
                with self._metrics_lock:
                    self._latencies.append(unit.request.latency_ms)
        elif kind == "err":
            _, unit_id, type_name, text = message
            unit = handle.inflight.pop(unit_id, None)
            if unit is None:
                return
            # Typed enforcement failures are deterministic -- replaying
            # them would fail identically -- so they settle the request
            # rather than consuming the crash-retry budget.
            error = resolve_error(type_name, text)
            if unit.request.fail(error):
                self.slo.observe(
                    unit.request.tenant, unit.request.latency_ms, ok=False
                )
                if isinstance(error, DeadlineExceeded):
                    self.expired += 1
                elif isinstance(error, RequestCancelled):
                    self.cancelled += 1
                else:
                    self.failed += 1
                    self._tenant_row(unit.request.tenant)["failed"] += 1
        elif kind == "bye":
            stats = dict(message[1])
            handle.metric_samples = stats.pop("metrics", [])
            handle.stats = stats
            handle.state = STOPPED
        else:  # pragma: no cover -- protocol drift guard
            logger.warning("worker %d: unknown message %r",
                           handle.worker_id, kind)

    # -- shutdown ----------------------------------------------------------------

    def _fail_everything(self, error: BaseException) -> None:
        for handle in self._handles:
            for unit in handle.inflight.values():
                unit.request.fail(error)
            handle.inflight.clear()
        for unit in self._ready_units:
            unit.request.fail(error)
        self._ready_units.clear()
        self.queue.close(drain=False)

    def _shutdown_workers(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        for handle in self._handles:
            if handle.conn is not None and not handle.shutdown_sent:
                handle.shutdown_sent = True
                try:
                    handle.conn.send(("shutdown",))
                except (BrokenPipeError, OSError):
                    pass
        for handle in self._handles:
            if handle.process is None:
                continue
            handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if handle.process.is_alive():  # pragma: no cover -- wedged child
                self._kill(handle)
            self._retire_stats(handle)
            if handle.conn is not None:
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover
                    pass
                handle.conn = None
            if handle.state not in (BACKOFF, BROKEN):
                handle.state = STOPPED

    # -- observability -----------------------------------------------------------

    def _tenant_row(self, tenant: str) -> Dict[str, int]:
        return self._tenant_stats.setdefault(
            tenant, {"completed": 0, "failed": 0, "records": 0}
        )

    def tenant_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant request/record counters (a copy; any thread)."""
        return {
            tenant: dict(row) for tenant, row in list(
                self._tenant_stats.items()
            )
        }

    def _healthy_workers(self) -> int:
        return sum(1 for handle in self._handles if handle.state == READY)

    def _aggregate_worker_stats(self) -> Dict[str, int]:
        totals = dict(self._retired_stats)
        for handle in self._handles:
            stats = handle.stats
            for key in _LM_STAT_KEYS:
                totals[key] += int(stats.get(key, 0))
        return totals

    def worker_states(self) -> List[Dict[str, Any]]:
        """Per-slot supervision view (for /healthz and the chaos harness)."""
        now = time.monotonic()
        states = []
        for handle in self._handles:
            states.append({
                "worker_id": handle.worker_id,
                "state": handle.state,
                "pid": handle.pid,
                "inflight": len(handle.inflight),
                "restarts": handle.restarts,
                "recent_failures": len(handle.failures),
                "heartbeat_age_s": round(max(0.0, now - handle.last_seen), 3)
                if handle.last_seen
                else None,
            })
        return states

    def worker_pids(self) -> List[Optional[int]]:
        """Live worker pids in slot order (None for down slots)."""
        return [
            handle.pid if handle.alive else None for handle in self._handles
        ]

    def health(self) -> Dict[str, object]:
        """The ``GET /healthz`` payload; safe to call from any thread."""
        if self.queue.closed:
            status = "draining"
        elif self.breaker_open:
            status = "shedding"
        else:
            status = "ok"
        return {
            "status": status,
            "workers": self.workers,
            "workers_healthy": self._healthy_workers(),
            "lanes": self.lanes,
            "lanes_busy": sum(len(h.inflight) for h in self._handles),
            "queue_depth": len(self.queue),
            "breaker_open": self.breaker_open,
            "worker_states": self.worker_states(),
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
        uptime = (
            time.monotonic() - self._started_at if self._started_at else 0.0
        )
        lm = self._aggregate_worker_stats()
        queued = self.queue.tenant_depths()
        return {
            "uptime_s": round(uptime, 3),
            "mode": "worker_pool",
            "workers": self.workers,
            "workers_healthy": self._healthy_workers(),
            "lanes": self.lanes,
            "lanes_per_worker": self.lanes_per_worker,
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.max_depth,
            "requests": {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "cancelled": self.cancelled + self.queue.reaped_cancelled,
                "expired": self.expired + self.queue.reaped_expired,
                "rejected": self.queue.rejected,
                "shed": self.shed,
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
            "supervision": {
                "dispatched": self.dispatched,
                "worker_crashes": self.worker_crashes,
                "worker_restarts": self.worker_restarts,
                "units_retried": self.units_retried,
                "units_lost": self.units_lost,
                "breaker_trips": self.breaker_trips,
                "breaker_open": self.breaker_open,
            },
            "worker_lm": lm,
            "worker_states": self.worker_states(),
        }

    def prometheus_text(self) -> str:
        """The registry rendered as Prometheus exposition text."""
        return render(self.registry)

    def summary_line(self) -> str:
        """One machine-parseable ``key=value`` line for operator logs."""
        m = self.metrics()
        requests = m["requests"]
        latency = m["latency_ms"]
        supervision = m["supervision"]
        throughput = (
            self.completed / m["uptime_s"] if m["uptime_s"] > 0 else 0.0
        )
        pairs = [
            ("requests_completed", requests["completed"]),
            ("requests_failed", requests["failed"]),
            ("requests_rejected", requests["rejected"]),
            ("requests_shed", requests["shed"]),
            ("requests_expired", requests["expired"]),
            ("requests_cancelled", requests["cancelled"]),
            ("records_completed", m["records_completed"]),
            ("throughput_rps", f"{throughput:.2f}"),
            ("p50_ms", latency.get("p50", 0.0)),
            ("p99_ms", latency.get("p99", 0.0)),
            ("workers_healthy", m["workers_healthy"]),
            ("worker_crashes", supervision["worker_crashes"]),
            ("worker_restarts", supervision["worker_restarts"]),
            ("units_retried", supervision["units_retried"]),
            ("units_lost", supervision["units_lost"]),
        ]
        pairs.extend(self.slo.summary_pairs())
        return format_kv(pairs)
