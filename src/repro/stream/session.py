"""Long-lived streaming enforcement sessions with watermarks.

A :class:`StreamSession` is the per-telemetry-source loop the paper's
operator-pipeline framing implies: it consumes an unbounded sequence of
coarse events (possibly out of order, duplicated, or late), reorders them
behind an event-time watermark, binds each record's carryover context from
the last W emitted records (:class:`~repro.stream.binder.WindowBinder`),
and emits enforced fine-grained records in seq order.

The session separates *stream semantics* from *enforcement transport*:
all watermark/ordering/policy state lives here, while each record is
generated by a pluggable executor --

* :class:`EnforcerExecutor` drives :mod:`repro.core.session` coroutine
  sessions on a dedicated lane of a local :class:`JitEnforcer` (the
  ``repro.cli stream`` path), owning a private KV-cache row so rewind
  state survives across records;
* the serving front end supplies a submit-based executor that routes each
  record through the scheduler / worker pool (``/v1/stream``).

Both paths draw record ``seq``'s randomness from ``record_rng(seed,
seq)``, so the same stream content under the same seed yields
byte-identical emissions regardless of chunking, executor, or worker
placement.

Watermark semantics: the watermark trails the maximum event time seen by
the configured ``lateness``.  In-order events emit immediately; an
out-of-order event waits in the reorder buffer until its seq is
contiguous, or until the watermark passes a buffered successor -- at which
point the missing seqs are declared gaps and skipped.  A gap's event
arriving afterwards is *late* and handled per the stream's policy:

* ``drop``   -- count it, emit nothing;
* ``patch``  -- generate it against its archived neighbors and emit a
  correction record (``kind="late"``) out of band;
* ``reemit`` -- patch, then regenerate and re-emit the archived successors
  whose carryover window included the gap (``kind="reemit"``).

Memory is bounded by construction: the reorder buffer is capped
(``max_pending``), the archive holds the last ``late_horizon + window``
records, the executor trims its KV row by longest-common-prefix on every
record and evicts its oracle-cache partitions every window roll -- a
10^6-record session holds the same state as a 10^2-record one.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.engine import LanePool
from ..core.enforcer import JitEnforcer, record_rng
from ..data.telemetry import COARSE_FIELDS, TelemetryConfig, window_variables
from ..obs import OBS, STREAM_LAG_BUCKETS_MS, Sample
from ..rules.io import rules_fingerprint
from .binder import MAX_HISTORY_DEPTH, WindowBinder

__all__ = [
    "LATE_POLICIES",
    "StreamConfig",
    "StreamEvent",
    "Emission",
    "StreamSession",
    "EnforcerExecutor",
    "as_event",
]

#: The three late-data policies a stream can choose from.
LATE_POLICIES = ("drop", "patch", "reemit")


@dataclass(frozen=True)
class StreamEvent:
    """One coarse telemetry event as delivered (not necessarily in order)."""

    seq: int
    event_time: float
    coarse: Mapping[str, int]

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise ValueError("event seq must be >= 0")


def as_event(payload: Mapping[str, object]) -> StreamEvent:
    """Validate one wire-format event (a parsed JSONL line)."""
    if not isinstance(payload, Mapping):
        raise ValueError("event must be a JSON object")
    seq = payload.get("seq")
    if isinstance(seq, bool) or not isinstance(seq, int) or seq < 0:
        raise ValueError('"seq" must be a non-negative integer')
    event_time = payload.get("event_time", 0)
    if isinstance(event_time, bool) or not isinstance(event_time, (int, float)):
        raise ValueError('"event_time" must be a number')
    coarse = payload.get("coarse")
    if not isinstance(coarse, Mapping):
        raise ValueError('"coarse" must be an object of counters')
    missing = [name for name in COARSE_FIELDS if name not in coarse]
    if missing:
        raise ValueError(f'"coarse" is missing {missing}')
    try:
        coarse = {name: int(coarse[name]) for name in COARSE_FIELDS}
    except (TypeError, ValueError):
        raise ValueError('"coarse" values must be integers')
    return StreamEvent(seq=seq, event_time=float(event_time), coarse=coarse)


@dataclass(frozen=True)
class StreamConfig:
    """Per-stream semantics: window depth, watermark, late-data policy."""

    window: int = 2  # W: each record may bind the previous W-1 records
    lateness: float = 0.5  # event-time slack before a gap is declared
    late_policy: str = "drop"
    seed: int = 0
    max_pending: int = 512  # reorder-buffer cap (memory bound)
    late_horizon: int = 64  # seqs kept patchable behind the frontier

    def __post_init__(self) -> None:
        if self.window < 1 or self.window > MAX_HISTORY_DEPTH:
            raise ValueError(
                f"window must be in [1, {MAX_HISTORY_DEPTH}], got {self.window}"
            )
        if self.lateness < 0:
            raise ValueError("lateness must be >= 0")
        if self.late_policy not in LATE_POLICIES:
            raise ValueError(
                f"late_policy must be one of {LATE_POLICIES}, "
                f"got {self.late_policy!r}"
            )
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.late_horizon < 1:
            raise ValueError("late_horizon must be >= 1")


@dataclass(frozen=True)
class Emission:
    """One enforced record as emitted downstream.

    ``kind`` is ``"record"`` for ordered on-time emission, ``"late"`` for
    a patched gap, ``"reemit"`` for a correction of a record whose
    carryover window was retroactively completed by a late arrival.

    ``tier`` is the rule tier that produced the record: 0 means the
    primary pack held; above 0 the primary pack was infeasible against
    the observed inputs and a fallback pack generated the record, so
    cross-record rules were not in force at this seq.
    """

    seq: int
    event_time: float
    kind: str
    record: Dict[str, int]
    stage: str
    compliant: bool
    watermark: float
    tier: int = 0
    # The stream's correlation id (``stream_trace_id(stream_id, seed)``).
    # Deterministic for a given stream, so carrying it on the wire keeps
    # the serial-vs-HTTP byte-parity property; None (direct construction,
    # pre-trace drivers) omits the key entirely and leaves bytes unchanged.
    trace_id: Optional[str] = None

    def encode(self) -> str:
        """The canonical wire form -- byte-stable across drivers."""
        payload = {
            "seq": self.seq,
            "event_time": round(self.event_time, 6),
            "kind": self.kind,
            "record": self.record,
            "stage": self.stage,
            "compliant": self.compliant,
            "watermark": round(self.watermark, 6),
            "tier": self.tier,
        }
        if self.trace_id is not None:
            payload["trace"] = self.trace_id
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# An executor maps (seq, coarse, carryover context) to (values, meta).
Executor = Callable[
    [int, Mapping[str, int], Dict[str, int]],
    Tuple[Mapping[str, int], Mapping[str, object]],
]


#: Distinct collector keys per live session, so concurrent streams in one
#: process each keep their own series instead of clobbering a shared slot.
_stream_collector_ids = itertools.count(1)


def _stream_samples(session: "StreamSession") -> List[Sample]:
    stats = session.stats()
    labels = (
        {"stream": session.trace_id} if session.trace_id is not None else None
    )

    def counter(name: str, key: str, help: str) -> Sample:
        return Sample.counter(name, stats[key], labels=labels, help=help)

    def gauge(name: str, key: str, help: str) -> Sample:
        return Sample.gauge(name, stats[key], labels=labels, help=help)

    samples = [
        counter("repro_stream_emitted_total", "emitted",
                "Records emitted (all kinds)"),
        counter("repro_stream_late_dropped_total", "late_dropped",
                "Late events dropped by policy"),
        counter("repro_stream_late_patched_total", "late_patched",
                "Late events patched into the stream"),
        counter("repro_stream_late_beyond_horizon_total",
                "late_beyond_horizon",
                "Late events arriving past the patchable horizon"),
        counter("repro_stream_reemitted_total", "reemitted",
                "Records re-emitted after a late arrival"),
        counter("repro_stream_gaps_total", "gaps",
                "Seqs skipped by the watermark"),
        counter("repro_stream_duplicates_total", "duplicates",
                "Duplicate events discarded"),
        counter("repro_stream_carryover_hits_total", "carryover_hits",
                "Records generated with bound carryover context"),
        gauge("repro_stream_watermark", "watermark",
              "Current event-time watermark"),
        gauge("repro_stream_watermark_skew", "watermark_skew",
              "Max event time seen minus the watermark"),
        gauge("repro_stream_pending", "pending",
              "Events waiting in the reorder buffer"),
        gauge("repro_stream_pending_peak", "max_pending_seen",
              "High-water mark of the reorder buffer"),
        gauge("repro_stream_archive", "archive",
              "Records held in the patch/re-emit archive"),
        gauge("repro_stream_archive_peak", "max_archive_seen",
              "High-water mark of the archive"),
        gauge("repro_stream_emitted_per_sec", "emitted_per_sec",
              "Emission throughput since the session opened"),
    ]
    for quantile in ("p50", "p99"):
        qlabels = dict(labels or {}, quantile=quantile)
        samples.append(Sample.gauge(
            "repro_stream_lag_ms", stats[f"lag_{quantile}_ms"],
            labels=qlabels,
            help="Ingest-to-emission lag over the recent window",
        ))
    return samples


class StreamSession:
    """Watermarked, order-preserving enforcement over one event stream."""

    def __init__(
        self,
        config: StreamConfig,
        execute: Executor,
        telemetry_config: Optional[TelemetryConfig] = None,
        trace_id: Optional[str] = None,
        lag_buckets: Optional[Sequence[float]] = None,
    ):
        self.config = config
        self.telemetry_config = telemetry_config or TelemetryConfig()
        self.execute = execute
        # Correlation id stamped on every emission and used as the
        # ``stream`` label on this session's metric series.  Deterministic
        # when minted via stream_trace_id(stream_id, seed); None keeps the
        # wire format (and all series labels) exactly as before.
        self.trace_id = trace_id
        self.binder = WindowBinder(self.telemetry_config, depth=config.window)
        self._names = window_variables(self.telemetry_config.window)
        # seq -> (event, ingest wall time); drained in seq order.
        self._pending: Dict[int, Tuple[StreamEvent, float]] = {}
        # Last `late_horizon + window` emitted records by seq: carryover
        # context plus the patch/re-emit neighborhood.  Bounded.
        self._archive: "OrderedDict[int, Dict[str, int]]" = OrderedDict()
        self._archive_meta: Dict[int, float] = {}  # seq -> event_time
        self._skipped: set = set()  # declared gaps, patchable until pruned
        self._next_seq = 0
        self._max_event_time = float("-inf")
        self._watermark = float("-inf")
        self._lags: Deque[float] = deque(maxlen=512)
        self._emitted_on_time = 0
        self._opened_at = time.monotonic()
        self.emitted = 0
        self.late_dropped = 0
        self.late_patched = 0
        self.late_beyond_horizon = 0
        self.reemitted = 0
        self.gaps = 0
        self.duplicates = 0
        self.carryover_hits = 0
        self.carryover_bindings = 0
        self.max_pending_seen = 0
        self.max_archive_seen = 0
        OBS.registry.register_collector(
            f"stream-{next(_stream_collector_ids)}",
            _stream_samples,
            owner=self,
        )
        # Ingest-to-emission lag histogram; bounds default to the coarse
        # stream-lag scale (lateness-dominated, not compute-dominated) and
        # are per-stream configurable.  Labeled by stream so two sessions
        # with different bucket choices never collide on one instrument.
        self._lag_hist = OBS.registry.histogram(
            "repro_stream_lag_hist_ms",
            tuple(float(b) for b in lag_buckets)
            if lag_buckets is not None
            else STREAM_LAG_BUCKETS_MS,
            labels=(
                {"stream": self.trace_id}
                if self.trace_id is not None
                else None
            ),
            help="Ingest-to-emission lag distribution",
        )

    # -- ingestion -------------------------------------------------------------

    def ingest(self, event) -> List[Emission]:
        """Feed one event; returns whatever became emittable (maybe [])."""
        if not isinstance(event, StreamEvent):
            event = as_event(event)
        now = time.monotonic()
        if event.event_time > self._max_event_time:
            self._max_event_time = event.event_time
            self._watermark = max(
                self._watermark, event.event_time - self.config.lateness
            )
        if event.seq < self._next_seq:
            return self._handle_late(event, now)
        if event.seq in self._pending:
            self.duplicates += 1
            return []
        self._pending[event.seq] = (event, now)
        self.max_pending_seen = max(self.max_pending_seen, len(self._pending))
        return self._drain(now)

    def close(self) -> List[Emission]:
        """End of stream: drain everything still buffered, in seq order."""
        emissions: List[Emission] = []
        now = time.monotonic()
        while self._pending:
            first = min(self._pending)
            if first > self._next_seq:
                self.gaps += first - self._next_seq
                self._skipped.update(range(self._next_seq, first))
                self._next_seq = first
            emissions.extend(self._drain(now, force=True))
        return emissions

    # -- the ordered frontier --------------------------------------------------

    def _drain(self, now: float, force: bool = False) -> List[Emission]:
        emissions: List[Emission] = []
        while self._pending:
            if self._next_seq in self._pending:
                event, ingested = self._pending.pop(self._next_seq)
                emissions.append(self._emit(event, ingested, "record"))
                self._next_seq += 1
                continue
            first = min(self._pending)
            overdue = (
                self._pending[first][0].event_time <= self._watermark
                or len(self._pending) > self.config.max_pending
                or force
            )
            if first > self._next_seq and overdue:
                # The events between the frontier and the first buffered
                # seq are presumed lost-or-late: skip them so the stream
                # keeps flowing.  If one shows up later it is late data.
                self.gaps += first - self._next_seq
                self._skipped.update(range(self._next_seq, first))
                self._next_seq = first
                continue
            break
        self._prune()
        return emissions

    def _handle_late(self, event: StreamEvent, now: float) -> List[Emission]:
        horizon_floor = self._next_seq - self.config.late_horizon
        if event.seq not in self._skipped:
            # Already emitted (or pruned past recovering): a duplicate.
            if event.seq < horizon_floor:
                self.late_beyond_horizon += 1
            else:
                self.duplicates += 1
            return []
        self._skipped.discard(event.seq)
        if self.config.late_policy == "drop":
            self.late_dropped += 1
            return []
        emissions = [self._emit(event, now, "late")]
        self.late_patched += 1
        if self.config.late_policy == "reemit":
            # Successors whose carryover window included the gap now have
            # better context; regenerate them as corrections.
            stop = min(event.seq + self.config.window, self._next_seq)
            for seq in range(event.seq + 1, stop):
                if seq not in self._archive:
                    continue
                successor = StreamEvent(
                    seq=seq,
                    event_time=self._archive_meta.get(seq, event.event_time),
                    coarse={
                        name: self._archive[seq][name]
                        for name in COARSE_FIELDS
                    },
                )
                emissions.append(self._emit(successor, now, "reemit"))
                self.reemitted += 1
        return emissions

    def _emit(
        self, event: StreamEvent, ingested_at: float, kind: str
    ) -> Emission:
        context = self.binder.context_for(event.seq, self._archive)
        if context:
            self.carryover_hits += 1
            self.carryover_bindings += len(context)
        if OBS.active:
            with OBS.profile("stream_record", seq=event.seq, kind=kind):
                values, meta = self.execute(event.seq, event.coarse, context)
        else:
            values, meta = self.execute(event.seq, event.coarse, context)
        record = {name: int(values[name]) for name in self._names}
        self._archive[event.seq] = record
        self._archive_meta[event.seq] = event.event_time
        # Prune per emission, not per ingest: one ingest can drain a
        # whole burst of buffered records, and the archive must never
        # exceed its horizon even transiently inside the drain.
        self._prune()
        self.max_archive_seen = max(self.max_archive_seen, len(self._archive))
        self.emitted += 1
        lag_ms = (time.monotonic() - ingested_at) * 1000.0
        self._lags.append(lag_ms)
        self._lag_hist.observe(lag_ms)
        if kind == "record":
            self._emitted_on_time += 1
            roll = getattr(self.execute, "roll_window", None)
            if (
                roll is not None
                and self._emitted_on_time % self.config.window == 0
            ):
                roll()
        return Emission(
            seq=event.seq,
            event_time=event.event_time,
            kind=kind,
            record=record,
            stage=str(meta.get("stage", "unknown")),
            compliant=bool(meta.get("compliant", False)),
            watermark=(
                self._watermark if self._watermark > float("-inf") else 0.0
            ),
            tier=int(meta.get("tier_index", 0)),
            trace_id=self.trace_id,
        )

    def _prune(self) -> None:
        """Hold the archive and gap set to their O(W) horizons."""
        floor = self._next_seq - self.config.late_horizon
        limit = self.config.late_horizon + self.config.window
        while len(self._archive) > limit:
            seq, _ = self._archive.popitem(last=False)
            self._archive_meta.pop(seq, None)
        if self._skipped:
            dead = [seq for seq in self._skipped if seq < floor]
            for seq in dead:
                self._skipped.discard(seq)

    # -- introspection ---------------------------------------------------------

    @property
    def watermark(self) -> float:
        return self._watermark if self._watermark > float("-inf") else 0.0

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def stats(self) -> Dict[str, float]:
        lags = sorted(self._lags)
        elapsed = time.monotonic() - self._opened_at

        def pct(q: float) -> float:
            if not lags:
                return 0.0
            rank = max(0, min(len(lags) - 1, int(q * len(lags))))
            return lags[rank]

        return {
            "emitted": self.emitted,
            "late_dropped": self.late_dropped,
            "late_patched": self.late_patched,
            "late_beyond_horizon": self.late_beyond_horizon,
            "reemitted": self.reemitted,
            "gaps": self.gaps,
            "duplicates": self.duplicates,
            "carryover_hits": self.carryover_hits,
            "carryover_bindings": self.carryover_bindings,
            "pending": len(self._pending),
            "max_pending_seen": self.max_pending_seen,
            "archive": len(self._archive),
            "max_archive_seen": self.max_archive_seen,
            "watermark": self.watermark,
            "watermark_skew": (
                self._max_event_time - self._watermark
                if self._max_event_time > float("-inf")
                else 0.0
            ),
            "next_seq": self._next_seq,
            "lag_p50_ms": round(pct(0.50), 3),
            "lag_p99_ms": round(pct(0.99), 3),
            "emitted_per_sec": (
                round(self.emitted / elapsed, 2) if elapsed > 0 else 0.0
            ),
        }


class EnforcerExecutor:
    """Serial per-stream executor over a dedicated one-lane pool.

    This is the ``repro.cli stream`` transport: it owns a lane (so a
    multi-source process gives each stream isolated solver state) and,
    for KV-capable models, that lane's cache row.  Rewind is the cache's
    longest-common-prefix trim: each record's prompt diverges from the
    previous record's near the start, so the row never grows past one
    record's token horizon no matter how long the stream runs.

    Every ``window`` emitted records the session calls
    :meth:`roll_window`, which evicts this enforcer's oracle-cache
    partitions -- memoized feasibility state from past windows -- keeping
    resident entries O(per-window work).
    """

    def __init__(self, enforcer: JitEnforcer, seed: Optional[int] = None):
        self.enforcer = enforcer
        self.seed = seed if seed is not None else enforcer.config.seed
        self._pool = LanePool(enforcer, 1, cache_entries=0,
                              solver_pool=enforcer.config.solver_pool)
        self.records = 0
        self.cache_evictions = 0

    def __call__(
        self,
        seq: int,
        coarse: Mapping[str, int],
        context: Dict[str, int],
    ) -> Tuple[Mapping[str, int], Mapping[str, object]]:
        session = self.enforcer.open_session(
            *self.enforcer.impute_plan(coarse, context),
            lane=self._pool.lanes[0],
            rng=record_rng(self.seed, seq),
        )
        outcome = self._pool.run(session)
        self.records += 1
        return outcome.values, {
            "stage": outcome.stage,
            "compliant": outcome.compliant,
            "degraded": outcome.degraded,
            "tier_index": outcome.tier_index,
        }

    def roll_window(self) -> None:
        """Per-window state eviction: oracle memo partitions of this lane."""
        cache = self.enforcer.oracle_cache
        if cache is None:
            return
        for rules in self.enforcer._all_rules:
            self.cache_evictions += cache.evict_partition(
                rules_fingerprint(rules)
            )

    def kv_stats(self) -> Optional[Dict[str, float]]:
        kv = self._pool.kv_cache
        if kv is None:
            return None
        stats = kv.stats()
        stats["row_length"] = kv.length(0)
        return stats
