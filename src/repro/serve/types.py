"""Request/response types and lifecycle state for the serving subsystem.

A client-facing request is a :class:`RequestSpec` (what to generate, under
which seed/priority/deadline).  Submission turns it into a
:class:`ServeRequest` -- the live handle that travels through the admission
queue and the continuous-batching scheduler, carries cancellation and
deadline state, and completes into a :class:`ServeResult`.

Determinism contract: a request with ``seed=s`` producing ``count`` records
gets record ``i`` the rng stream ``record_rng(s, i)`` -- exactly the stream
the synchronous :class:`~repro.core.enforcer.JitEnforcer` configured with
``seed=s`` would give its ``i``-th record.  Server load, lane placement,
and batch-mates therefore never change a request's bytes.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from ..core.session import RecordOutcome
from ..errors import DeadlineExceeded, RequestCancelled

__all__ = [
    "RequestSpec",
    "ServeRequest",
    "ServeResult",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "EXPIRED",
]

# Lifecycle states.  QUEUED -> RUNNING -> one of the terminal states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
EXPIRED = "expired"

_TERMINAL = (DONE, FAILED, CANCELLED, EXPIRED)

_request_ids = itertools.count(1)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RequestSpec:
    """What a client asked for; immutable once submitted.

    ``kind`` is ``"impute"`` (requires ``coarse``) or ``"synthesize"``.
    ``count`` records are generated per request (record ``i`` uses rng
    stream ``record_rng(seed, i)``).  ``priority`` orders admission --
    lower runs first, FIFO within a priority class.  ``timeout_ms`` is the
    end-to-end deadline measured from submission; a request that exceeds
    it is aborted at its next suspension checkpoint.
    """

    kind: str
    coarse: Optional[Mapping[str, int]] = None
    context: Optional[Mapping[str, int]] = None
    count: int = 1
    seed: Optional[int] = None
    priority: int = 0
    timeout_ms: Optional[float] = None
    # Absolute record index of this request's record 0.  Clients leave it at
    # 0; the worker pool sets it when it splits a count=N request into
    # single-record jobs so that record i still samples ``record_rng(seed,
    # index_offset + i)`` wherever it lands -- the determinism contract
    # above survives sharding, worker crashes, and replay.
    index_offset: int = 0
    # Which rule pack enforces this request: ``"name"`` (active version),
    # ``"name@version"``, or ``"hash:<hex>"``.  None means the server's
    # default pack.  Resolved against the rule-set registry at submission
    # (404/409 surface synchronously, before queueing); the resolved handle
    # rides on the ServeRequest so a promote mid-flight never changes what
    # an admitted record enforces.  The rule-set hash keys oracle-cache
    # partitions but never the rng stream: bytes depend only on
    # (seed, index, rule-set content).
    rule_set: Optional[str] = None
    # Placement affinity key (stream id).  Requests sharing a sticky key
    # prefer the same lane / worker so per-stream warm state (KV-cache
    # rewind rows, oracle memos) survives across records.  Best-effort and
    # performance-only: bytes are placement-independent, so a busy or dead
    # preferred target simply falls back to least-loaded dispatch.
    sticky_key: Optional[str] = None
    # Distributed trace context (see repro.obs.merge).  ``trace_id`` is the
    # W3C-shaped correlation id the HTTP front end mints (or a stream's
    # deterministic id); it crosses the supervisor pipe verbatim so
    # worker-side record spans can be re-parented under the router's
    # request span at merge time.  ``trace_parent`` is a *local* span id
    # and therefore never crosses a process boundary -- the in-process
    # scheduler parents record spans under it directly, the worker pool
    # strips it before shipping the job.  ``attempt`` counts crash replays
    # of this unit (the pool stamps ``unit.retries``); a replayed record
    # keeps its trace_id and marks itself with a ``replay_of`` attr.
    # Purely observational: none of the three may influence emitted bytes.
    trace_id: Optional[str] = None
    trace_parent: Optional[int] = None
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("impute", "synthesize"):
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.kind == "impute" and self.coarse is None:
            raise ValueError("impute requests need coarse values")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.timeout_ms is not None and self.timeout_ms < 0:
            raise ValueError("timeout_ms must be >= 0")
        if self.index_offset < 0:
            raise ValueError("index_offset must be >= 0")
        if self.rule_set is not None and not isinstance(self.rule_set, str):
            raise ValueError("rule_set must be a string reference")
        if self.sticky_key is not None and not isinstance(self.sticky_key, str):
            raise ValueError("sticky_key must be a string")
        if self.trace_id is not None and not isinstance(self.trace_id, str):
            raise ValueError("trace_id must be a string")
        if self.trace_parent is not None and (
            isinstance(self.trace_parent, bool)
            or not isinstance(self.trace_parent, int)
        ):
            raise ValueError("trace_parent must be a local span id (int)")
        if self.attempt < 0:
            raise ValueError("attempt must be >= 0")


@dataclass
class ServeResult:
    """The completed side of a request: records plus provenance."""

    request_id: int
    status: str
    records: List[Dict[str, int]]
    outcomes: List[Dict[str, object]]  # stage/compliant/degraded per record
    latency_ms: float

    def to_json(self) -> Dict[str, object]:
        return {
            "request_id": self.request_id,
            "status": self.status,
            "records": self.records,
            "outcomes": self.outcomes,
            "latency_ms": round(self.latency_ms, 3),
        }


class ServeRequest:
    """A submitted request's live handle (thread-safe).

    The submitting thread holds this to :meth:`wait`/:meth:`result` or
    :meth:`cancel`; the scheduler thread drives completion.  Cancellation
    and deadline enforcement are *cooperative*: flags set here are observed
    by the owning sessions at their next suspension checkpoint, so an
    abort never disturbs lanes running other requests.
    """

    def __init__(self, spec: RequestSpec, now: Optional[float] = None):
        self.spec = spec
        self.id = next(_request_ids)
        # The rule-set handle resolved at submission (None = server default).
        # Set once by the scheduler/pool before the request enters the
        # admission queue; immutable afterwards so every unit of this
        # request -- including crash replays -- enforces the same version.
        self.rule_handle: Optional[object] = None
        self.submitted_at = time.monotonic() if now is None else now
        self.deadline: Optional[float] = (
            self.submitted_at + spec.timeout_ms / 1000.0
            if spec.timeout_ms is not None
            else None
        )
        self.status = QUEUED
        self.error: Optional[BaseException] = None
        self.finished_at: Optional[float] = None
        self._cancel_requested = False
        self._outcomes: List[Optional[RecordOutcome]] = [None] * spec.count
        self._remaining = spec.count
        self._lock = threading.Lock()
        self._finished = threading.Event()
        self._callbacks: List[Callable[["ServeRequest"], None]] = []

    # -- submitter-facing side -------------------------------------------------

    def cancel(self) -> bool:
        """Request cancellation; returns False if already terminal.

        Queued requests are dropped at the next admission scan; running
        ones abort at their next suspension checkpoint.
        """
        with self._lock:
            if self.status in _TERMINAL:
                return False
            self._cancel_requested = True
            return True

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the request is terminal; returns reached-ness."""
        return self._finished.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> ServeResult:
        """The completed :class:`ServeResult`; raises the captured error."""
        if not self._finished.wait(timeout):
            raise TimeoutError(f"request {self.id} still {self.status}")
        if self.error is not None:
            raise self.error
        return ServeResult(
            request_id=self.id,
            status=self.status,
            records=[dict(o.values) for o in self._outcomes],
            outcomes=[
                {
                    "stage": o.stage,
                    "compliant": o.compliant,
                    "degraded": o.degraded,
                    "tier_index": o.tier_index,
                }
                for o in self._outcomes
            ],
            latency_ms=self.latency_ms,
        )

    @property
    def done(self) -> bool:
        return self._finished.is_set()

    def add_done_callback(self, fn: Callable[["ServeRequest"], None]) -> None:
        """Call ``fn(self)`` once, as soon as the request is terminal.

        A callback registered on a live request runs on the thread that
        terminates it, after the request's lock is released; on an
        already-terminal request it runs at once on the caller's thread.
        """
        with self._lock:
            if self.status not in _TERMINAL:
                self._callbacks.append(fn)
                return
        self._run_callbacks([fn])

    @property
    def tenant(self) -> str:
        """The pack *name* behind this request -- the quota/metrics key.

        Versions of one pack share a tenant; requests that name no pack
        land in ``"default"``.
        """
        handle = self.rule_handle
        if handle is not None:
            return handle.name  # type: ignore[attr-defined]
        if self.spec.rule_set is None:
            return "default"
        return self.spec.rule_set.split("@", 1)[0]

    @property
    def latency_ms(self) -> float:
        end = self.finished_at if self.finished_at is not None else time.monotonic()
        return (end - self.submitted_at) * 1000.0

    # -- scheduler-facing side -------------------------------------------------

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_requested

    def checkpoint(self) -> None:
        """Session-side lifecycle check; raises to abort just this request.

        Installed as every owning session's suspension checkpoint, so a
        cancelled or overdue request stops at the next lock-step boundary.
        """
        if self._cancel_requested:
            raise RequestCancelled(f"request {self.id} cancelled")
        if self.expired():
            raise DeadlineExceeded(
                f"request {self.id} exceeded its "
                f"{self.spec.timeout_ms:.0f}ms deadline"
            )

    def finish_unit(self, index: int, outcome: RecordOutcome) -> bool:
        """Record one completed unit; True when the whole request is done."""
        with self._lock:
            if self.status in _TERMINAL:
                return False
            self._outcomes[index] = outcome
            self._remaining -= 1
            if self._remaining > 0:
                return False
            callbacks = self._terminate(DONE)
        self._run_callbacks(callbacks)
        return True

    def unit_outcomes(self) -> List[Optional[RecordOutcome]]:
        """The raw per-record outcomes so far (serving-internal side).

        Worker processes ship these back to the parent router, which
        reassembles them into the client-facing result.
        """
        with self._lock:
            return list(self._outcomes)

    def fail(self, error: BaseException) -> bool:
        """Move to the terminal state matching ``error``; True if it won.

        Any sibling units still in flight observe ``cancel_requested`` at
        their next checkpoint and unwind without further effect.
        """
        with self._lock:
            if self.status in _TERMINAL:
                return False
            self.error = error
            self._cancel_requested = True  # reap in-flight sibling units
            if isinstance(error, DeadlineExceeded):
                status = EXPIRED
            elif isinstance(error, RequestCancelled):
                status = CANCELLED
            else:
                status = FAILED
            callbacks = self._terminate(status)
        self._run_callbacks(callbacks)
        return True

    def mark_running(self) -> None:
        with self._lock:
            if self.status == QUEUED:
                self.status = RUNNING

    def _terminate(self, status: str) -> List[Callable[["ServeRequest"], None]]:
        """Enter ``status`` (under the lock); returns the callbacks to run."""
        self.status = status
        self.finished_at = time.monotonic()
        self._finished.set()
        callbacks, self._callbacks = self._callbacks, []
        return callbacks

    def _run_callbacks(self, callbacks) -> None:
        for fn in callbacks:
            try:
                fn(self)
            except Exception:  # one bad callback must not starve the rest
                logger.exception("done callback of request %d failed", self.id)
