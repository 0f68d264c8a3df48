"""Worker-process side of the supervised serving pool.

A worker is an ordinary OS process that owns everything stateful about
enforcement -- its lanes, LM weights, KV cache, solvers, and oracle
cache -- and talks to the parent router over a single duplex pipe.  The
parent (:class:`~repro.serve.supervisor.WorkerPool`) keeps only routing
state, so a worker crash loses at most the records in flight *on that
worker*, and those are replayed elsewhere byte-identically thanks to the
``record_rng(seed, index)`` contract.

Internally a worker reuses the single-process
:class:`~repro.serve.scheduler.ContinuousBatchingScheduler` unchanged:
the supervision tree is ``pool -> worker process -> in-process scheduler
-> lanes``.  Each dispatched job is a one-record request pinned to its
absolute record index via :attr:`RequestSpec.index_offset`, which is what
makes replay placement-independent.  Results leave on events, not polls:
each job's :meth:`ServeRequest.add_done_callback` sends its ``result`` or
``err`` frame from the scheduler thread the moment the record settles.

Wire protocol (pickled tuples over a ``multiprocessing.Pipe``):

parent -> worker
    ``("job", unit_id, spec_kwargs)``  run one record
    ``("cancel", unit_id)``            abort a dispatched record
    ``("rules", event)``               replay a registry mutation
    ``("shutdown",)``                  drain in-flight jobs and exit

worker -> parent
    ``("ready", pid)``                 enforcer built; accepting jobs
    ``("hb", stats)``                  heartbeat + cheap counters
    ``("result", unit_id, outcome)``   record finished (outcome dict)
    ``("err", unit_id, type, msg)``    record failed (typed, serialized)
    ``("bye", stats)``                 clean exit after drain

Exceptions cross the pipe as ``(type name, message)`` pairs rather than
pickled objects: several repro errors carry rich constructor signatures
and live objects (solver state, outcomes) that must not -- and sometimes
cannot -- be pickled.  The parent rebuilds them via
:func:`resolve_error`.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from .. import errors as _errors
from ..core.enforcer import JitEnforcer
from ..errors import ReproError
from ..obs import OBS, MetricsRegistry, SpanTracer
from ..rules.registry import RuleSetRegistry
from .scheduler import ContinuousBatchingScheduler
from .types import DONE, RequestSpec, ServeRequest

__all__ = ["WorkerConfig", "worker_main", "resolve_error", "outcome_to_wire"]

logger = logging.getLogger(__name__)


@dataclass
class WorkerConfig:
    """Everything a worker needs to build its enforcement stack.

    ``enforcer_factory`` must be deterministic: a restarted worker rebuilds
    the *same* model and rules, which is what makes replayed records
    byte-identical.  Under the default ``fork`` start method it may be a
    closure; under ``spawn`` it must be picklable (module-level callable).
    """

    worker_id: int
    enforcer_factory: Callable[[], JitEnforcer]
    lanes: int = 2
    queue_depth: int = 64
    heartbeat_interval: float = 0.1
    # Chaos knob: sleep this long before building the enforcer, so tests
    # can exercise the supervisor's startup timeout (slow-start fault).
    slow_start_s: float = 0.0
    # Picklable rule-registry state (RuleSetRegistry.snapshot()) taken at
    # spawn; the parent keeps the worker current afterwards by forwarding
    # register/promote/retire events over the pipe.  None = no registry.
    registry_snapshot: Optional[list] = None
    # Path for this worker incarnation's span sink (JSONL, opened "w").
    # The supervisor names it ``<base>.w<id>.g<generation>`` so restarts
    # never clobber a predecessor's flushed spans; the parent merges all
    # ``<base>.w*`` files into one trace (see repro.obs.merge).  None
    # disables worker-side tracing.
    span_sink: Optional[str] = None
    # Extra keyword arguments forwarded to the in-process scheduler.
    scheduler_kwargs: Dict[str, Any] = field(default_factory=dict)


def outcome_to_wire(outcome) -> Dict[str, Any]:
    """A RecordOutcome as a plain dict of picklable builtins."""
    wire = dataclasses.asdict(outcome)
    wire["values"] = dict(wire["values"])
    wire["solver_work"] = dict(wire["solver_work"])
    return wire


def resolve_error(type_name: str, message: str) -> ReproError:
    """Rebuild a worker-side error from its serialized (type, message).

    Unknown types (a worker raising something outside the repro taxonomy)
    degrade to the base :class:`ReproError` with the type name folded into
    the message, so nothing is silently dropped.
    """
    cls = getattr(_errors, type_name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        try:
            return cls(message)
        except TypeError:  # exotic constructor signature
            pass
    return ReproError(f"{type_name}: {message}")


class _PipeSender:
    """Serialized, crash-tolerant sends over the worker's pipe end.

    The heartbeat thread, the scheduler thread (via done callbacks), and
    the main recv loop all write to the same connection; a lock keeps
    frames whole.  Once the parent is gone (EPIPE) there is nobody left to
    report to, so sends become no-ops and the worker winds down instead of
    crashing noisily.
    """

    def __init__(self, conn):
        self._conn = conn
        self._lock = threading.Lock()
        self.broken = False

    def send(self, message: Tuple) -> bool:
        with self._lock:
            if self.broken:
                return False
            try:
                self._conn.send(message)
                return True
            except (BrokenPipeError, EOFError, OSError):
                self.broken = True
                return False


def worker_main(conn, config: WorkerConfig) -> None:
    """Entry point of a worker process; returns only on shutdown.

    The main thread blocks on the pipe for commands and hands jobs to
    the in-process scheduler; each job's done callback ships its result
    from the scheduler thread the moment the record settles; a heartbeat
    thread proves liveness to the parent (a worker wedged in native
    solver code stops heartbeating and gets killed + replayed by the
    supervisor).
    """
    sender = _PipeSender(conn)
    registry = MetricsRegistry()  # never the parent's process-global one
    # Under the fork start method this process inherits the parent's OBS
    # singleton -- possibly with an open span sink.  Drop the inherited
    # tracer *without* flushing it (this copy of the file object may hold
    # buffered parent bytes; flushing would duplicate them into the
    # parent's file), then attach this worker's own sink if configured.
    OBS.active = False
    OBS.tracer = None
    if config.span_sink is not None:
        OBS.enable(SpanTracer(sink=config.span_sink))
    try:
        if config.slow_start_s > 0:
            time.sleep(config.slow_start_s)
        enforcer = config.enforcer_factory()
        # Rebuild the parent's registry from its snapshot: jobs arrive with
        # ``rule_set="hash:<hex>"`` refs, which resolve here even for
        # versions retired after dispatch (admitted work finishes under the
        # version it was admitted with).
        rule_registry = (
            RuleSetRegistry.from_snapshot(config.registry_snapshot)
            if config.registry_snapshot is not None
            else None
        )
        scheduler = ContinuousBatchingScheduler(
            enforcer,
            lanes=config.lanes,
            queue_depth=config.queue_depth,
            registry=registry,
            rule_registry=rule_registry,
            **config.scheduler_kwargs,
        )
        scheduler.start()
    except BaseException as exc:  # startup failure: report and die visibly
        logger.exception("worker %d failed to start", config.worker_id)
        sender.send(("err", None, type(exc).__name__, str(exc)))
        return

    inflight: Dict[int, ServeRequest] = {}
    inflight_lock = threading.Lock()
    stopping = threading.Event()

    def stats() -> Dict[str, Any]:
        with inflight_lock:
            busy = len(inflight)
        return {
            "pid": os.getpid(),
            "worker_id": config.worker_id,
            "inflight": busy,
            "records_completed": scheduler.records_completed,
            "lm_calls": scheduler.lm_calls,
            "lm_rows": scheduler.lm_rows,
            # The full worker-side registry snapshot (serve counters, SLO
            # burn rates, enforcer oracle/KV-cache stats) as Sample rows.
            # The parent pops this key before JSON exposition and re-emits
            # the rows under a ``worker`` label.
            "metrics": registry.collect(),
        }

    def heartbeat_loop() -> None:
        while not stopping.wait(config.heartbeat_interval):
            if not sender.send(("hb", stats())):
                stopping.set()  # orphaned: parent died, stop proving liveness
                return

    def ship(unit_id: int, handle: ServeRequest) -> None:
        # A done callback: runs on whichever thread terminated the handle
        # (normally the scheduler's), so each result leaves the moment its
        # record settles.
        with inflight_lock:
            del inflight[unit_id]
        if handle.status == DONE:
            outcome = handle.unit_outcomes()[0]
            sender.send(("result", unit_id, outcome_to_wire(outcome)))
        else:
            error = handle.error
            sender.send((
                "err",
                unit_id,
                type(error).__name__ if error else "ReproError",
                str(error) if error else handle.status,
            ))

    threading.Thread(
        target=heartbeat_loop, name="repro-worker-heartbeat", daemon=True
    ).start()
    sender.send(("ready", os.getpid()))

    try:
        while not stopping.is_set():
            if not conn.poll(0.1):
                continue
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent went away; drain and exit
            kind = message[0]
            if kind == "job":
                _, unit_id, spec_kwargs = message
                try:
                    handle = scheduler.submit(RequestSpec(**spec_kwargs))
                except BaseException as exc:
                    sender.send(
                        ("err", unit_id, type(exc).__name__, str(exc))
                    )
                    continue
                with inflight_lock:
                    inflight[unit_id] = handle
                handle.add_done_callback(functools.partial(ship, unit_id))
            elif kind == "cancel":
                _, unit_id = message
                with inflight_lock:
                    handle = inflight.get(unit_id)
                if handle is not None:
                    handle.cancel()
            elif kind == "rules":
                if rule_registry is not None:
                    try:
                        rule_registry.apply_event(message[1])
                    except Exception:  # replayed/duplicate event: harmless
                        logger.exception(
                            "worker %d: rules event failed", config.worker_id
                        )
            elif kind == "shutdown":
                break
            else:  # pragma: no cover -- protocol drift guard
                logger.warning(
                    "worker %d: unknown message %r", config.worker_id, kind
                )
    finally:
        # Drain: finish what was dispatched (each result ships from its
        # done callback on the scheduler thread, which stop() joins), then
        # report.
        stopping.set()
        scheduler.stop(drain=True, timeout=30)
        OBS.disable()  # flush + close this worker's span sink
        sender.send(("bye", stats()))
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
