"""Lock-step enforcement: one LM call per step, over every live lane.

The production argument for batching is the language model: one forward
pass over a (B, T) batch costs far less than B sequential forwards, and an
n-gram lookup over B lanes dedupes to a handful of distinct contexts.  The
solver side batches differently -- work is *shared* (a prefix-keyed
:class:`~repro.core.feasible.OracleCache` across lanes) and *amortized*
(pooled solvers reused across consecutive records of a lane).
:class:`LanePool` is the one driver of that loop, for every caller: the
serial enforcer and the stream executor step a one-lane pool.

:class:`EnforcementEngine` holds ``batch_size`` slots, each with its own
oracle :class:`~repro.core.session.Lane` (so a stuck or faulty record can
never corrupt a batch-mate's solver state or budget), and advances the
resident :class:`~repro.core.session.EnforcementSession`\\ s in lock-step:

1. refill free slots from the work queue (submission order -- which also
   pins each record's private rng stream, making output independent of
   batch size);
2. run one :meth:`LanePool.step` over every live slot;
3. harvest finished sessions (outcome or captured per-session error) and
   loop.

Determinism: a record's sampling depends only on its own rng stream and on
oracle answers, and the cached/pooled oracles return exactly what fresh
ones would (see feasible.py) -- so the engine emits byte-identical records
at any batch size, including batch 1 vs the serial enforcer.
"""

from __future__ import annotations

import time
import weakref
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Deque, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

from ..lm.base import batched_next_distributions
from ..obs import OBS
from .feasible import OracleCache
from .session import EnforcementSession, Lane, RecordOutcome, Request

if TYPE_CHECKING:  # the enforcer builds its own one-lane pool
    from .enforcer import JitEnforcer

__all__ = ["EnforcementEngine", "EngineStats", "LanePool", "RecordRequest"]


# A live slot as the pool steps it: (slot index, session, pending prefix ids).
LiveSlot = Tuple[int, EnforcementSession, List[int]]


class LanePool:
    """Isolated oracle lanes over one oracle cache, and the lock-step driver.

    Every driver -- the serial enforcer and the stream executor (one lane),
    the offline engine and the serving scheduler (N lanes) -- runs on one:
    ``size`` lanes (solver state never shared across concurrent sessions)
    over one prefix-keyed :class:`~repro.core.feasible.OracleCache` and
    pooled solvers (``solver_pool=0`` / ``cache_entries=0`` opt out), plus
    a KV-cache row per lane when the model supports one.  :meth:`step` is
    the only place a session gets a distribution.
    """

    def __init__(
        self,
        enforcer: JitEnforcer,
        size: int,
        solver_pool: Optional[int] = 64,
        cache_entries: Optional[int] = None,
    ):
        if size < 1:
            raise ValueError("lane pool size must be >= 1")
        # Weak: an enforcer owns a pool itself, and a strong back-reference
        # would leave every enforcer a cycle only the cyclic collector frees.
        self._enforcer = weakref.ref(enforcer)
        self.size = size
        if enforcer.oracle_cache is not None:
            self.cache: Optional[OracleCache] = enforcer.oracle_cache
        else:
            entries = (
                OracleCache.DEFAULT_ENTRIES
                if cache_entries is None
                else cache_entries
            )
            self.cache = OracleCache(entries) if entries else None
        self.lanes: List[Lane] = [
            enforcer._build_lane(cache=self.cache, pool_reuse=solver_pool)
            for _ in range(size)
        ]
        # Per-lane KV-cache rows for incremental LM decoding: row i belongs
        # to lane i for the pool's lifetime.  Lane reuse and session rewinds
        # are handled by the cache's prefix matching (the next lookup trims
        # to the common prefix); retire() drops a row whose session died
        # mid-record.  None when the model has no KV-cache support (n-gram).
        model = enforcer.model
        self.kv_cache = (
            model.new_kv_cache(size)
            if getattr(model, "supports_kv_cache", False)
            else None
        )
        self._mode = "incremental" if self.kv_cache is not None else "full"
        self.lm_calls = 0  # batched model invocations (one per step)
        self.lm_rows = 0  # total rows across those calls

    # -- the lock-step driver --------------------------------------------------

    def start(self, slot: int, session: EnforcementSession) -> Request:
        """Run a session freshly opened on ``slot`` to its first LM need."""
        pending = session.start()
        if session.error is not None:
            self.retire(slot)
        return pending

    def step(self, live: Sequence[LiveSlot]) -> List[Request]:
        """ONE model call over ``live``; returns each next pending prefix.

        Lane i decodes against KV-cache row i, so a session's bytes never
        depend on which other slots are live.  A session that ends in error
        has its slot retired, as has every live slot if the call raises.
        """
        prefixes = [pending for _, _, pending in live]
        rows = [slot for slot, _, _ in live]
        # With one lane the forward belongs to that lane's record; otherwise
        # it serves many, so it is a root span (trace-report's shared_lm).
        parent = live[0][1].span if self.size == 1 else None
        enforcer = self._enforcer()
        try:
            with OBS.profile(
                "lm_forward", parent=parent, rows=len(live), mode=self._mode
            ):
                distributions = batched_next_distributions(
                    enforcer.model, prefixes, cache=self.kv_cache, rows=rows
                )
        except BaseException:
            for slot in rows:
                self.retire(slot)
            raise
        enforcer.trace.lm_calls += 1
        self.lm_calls += 1
        self.lm_rows += len(live)
        out: List[Request] = []
        for row, (slot, session, _) in zip(distributions, live):
            out.append(session.step(row))
            if session.error is not None:
                self.retire(slot)
        return out

    def run(self, session: EnforcementSession, slot: int = 0) -> RecordOutcome:
        """Drive one session to completion alone (the serial drivers)."""
        pending = self.start(slot, session)
        while pending is not None:
            (pending,) = self.step([(slot, session, pending)])
        return session.result()

    def retire(self, slot: int) -> None:
        """Quarantine ``slot`` after its session died mid-record.

        Its KV row and its oracles' pooled solver frames or refold
        snapshots may be out of sync with committed output; drop both.
        """
        if self.kv_cache is not None:
            self.kv_cache.invalidate(slot)
        self.lanes[slot].reset()

    def solver_work(self) -> Dict[str, int]:
        """Aggregate deterministic solver counters across every lane.

        Lane meters are cumulative since construction, so recomputing the
        sum each time is idempotent (mirrors the synchronous enforcer's
        "overwrite with the meter snapshot" semantics).
        """
        totals: Counter = Counter(self._enforcer().meter.snapshot())
        for lane in self.lanes:
            totals.update(lane.meter.snapshot())
        return dict(totals)

    def cache_stats(self) -> Optional[Dict[str, float]]:
        return self.cache.stats() if self.cache is not None else None

    def lm_cache_stats(self) -> Optional[Dict[str, float]]:
        return self.kv_cache.stats() if self.kv_cache is not None else None


@dataclass
class RecordRequest:
    """One unit of work: generate a record with these fixed values.

    ``rule_set`` (a resolved :class:`~repro.rules.registry.RuleSetHandle`,
    or None for the enforcer's constructor rules) selects the pack this
    record enforces -- the engine rebinds the slot's lane before opening
    the session, so one run can interleave mixed-tenant records.
    """

    fixed: Dict[str, int]
    prompt_text: str
    variables: List[str]
    rule_set: Optional[object] = None


@dataclass
class EngineStats:
    """Throughput accounting for the engine's lifetime."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0  # sessions that ended in a captured error
    lm_calls: int = 0  # the pool's batched model invocations
    lm_rows: int = 0  # the pool's rows across those calls
    elapsed: float = 0.0  # wall-clock seconds inside run()
    solver_work: Dict[str, int] = field(default_factory=dict)

    def records_per_sec(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.completed / self.elapsed

    def snapshot(self) -> Dict[str, object]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "lm_calls": self.lm_calls,
            "lm_rows": self.lm_rows,
            "elapsed": round(self.elapsed, 4),
            "records_per_sec": round(self.records_per_sec(), 2),
            "solver_work": dict(self.solver_work),
        }


# A slot is empty (None) or holds (work index, session, pending prefix ids).
_Slot = Optional[Tuple[int, EnforcementSession, List[int]]]


class EnforcementEngine:
    """Drives N enforcement sessions in lock-step over one enforcer.

    The engine builds a :class:`LanePool` from the enforcer's factory, with
    solver pooling and the shared oracle cache switched ON (they default
    OFF in :class:`~repro.core.session.EnforcerConfig`, which the serial
    enforcer's own one-lane pool follows).  ``cache_entries=None``
    takes :attr:`OracleCache.DEFAULT_ENTRIES`; pass ``solver_pool=0`` or
    ``cache_entries=0`` to opt out.

    Within one :meth:`run` the slot refill is already continuous (a freed
    slot takes the next queued request mid-flight); the *wave barrier* is
    at the API boundary -- the whole workload is fixed up front and
    :meth:`run` only returns when all of it has drained.  The serving
    scheduler (:mod:`repro.serve.scheduler`) lifts exactly that barrier.
    """

    def __init__(
        self,
        enforcer: JitEnforcer,
        batch_size: int = 8,
        solver_pool: Optional[int] = 64,
        cache_entries: Optional[int] = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.enforcer = enforcer
        self.batch_size = batch_size
        self.pool = LanePool(
            enforcer,
            batch_size,
            solver_pool=solver_pool,
            cache_entries=cache_entries,
        )
        self.stats = EngineStats()

    @property
    def cache(self) -> Optional[OracleCache]:
        return self.pool.cache

    # -- work submission -------------------------------------------------------

    def impute_many(
        self,
        coarse_batch: Sequence[Mapping[str, int]],
        contexts: Optional[Sequence[Optional[Mapping[str, int]]]] = None,
        return_exceptions: bool = False,
        rule_set: Optional[object] = None,
    ) -> List[Union[RecordOutcome, BaseException]]:
        """Batched :meth:`~repro.core.enforcer.JitEnforcer.impute_record`."""
        if contexts is None:
            contexts = [None] * len(coarse_batch)
        requests = [
            RecordRequest(
                *self.enforcer.impute_plan(coarse, context),
                rule_set=rule_set,
            )
            for coarse, context in zip(coarse_batch, contexts)
        ]
        return self.run(requests, return_exceptions=return_exceptions)

    def synthesize_many(
        self,
        count: int,
        contexts: Optional[Sequence[Optional[Mapping[str, int]]]] = None,
        return_exceptions: bool = False,
        rule_set: Optional[object] = None,
    ) -> List[Union[RecordOutcome, BaseException]]:
        """Batched :meth:`~repro.core.enforcer.JitEnforcer.synthesize_record`."""
        if contexts is None:
            contexts = [None] * count
        requests = [
            RecordRequest(
                *self.enforcer.synthesize_plan(context), rule_set=rule_set
            )
            for context in contexts
        ]
        return self.run(requests, return_exceptions=return_exceptions)

    # -- the lock-step scheduler -----------------------------------------------

    def run(
        self,
        requests: Sequence[RecordRequest],
        return_exceptions: bool = False,
    ) -> List[Union[RecordOutcome, BaseException]]:
        """Run every request to completion; results in submission order.

        A session that fails (infeasible record, fault injection, strict
        mode) is captured per-slot and never disturbs its batch-mates.
        With ``return_exceptions`` the captured exception takes the
        record's place in the result list; otherwise the first error (in
        submission order) is raised after the whole batch has drained.
        """
        start_time = time.perf_counter()
        pool = self.pool
        queue: Deque[Tuple[int, RecordRequest]] = deque(enumerate(requests))
        results: List[Union[RecordOutcome, BaseException, None]] = [None] * len(
            requests
        )
        slots: List[_Slot] = [None] * self.batch_size
        self.stats.submitted += len(requests)

        def harvest(index: int, session: EnforcementSession) -> None:
            if session.error is not None:
                results[index] = session.error
                self.stats.failed += 1
            else:
                results[index] = session.outcome
                self.stats.completed += 1

        try:
            while queue or any(slot is not None for slot in slots):
                # Refill: pop work in submission order into free slots.  A
                # session may finish inside start() (e.g. every tier
                # infeasible) -- harvest it and keep the slot hungry.
                for slot_index in range(self.batch_size):
                    while slots[slot_index] is None and queue:
                        index, request = queue.popleft()
                        session = self.enforcer.open_session(
                            request.fixed,
                            request.prompt_text,
                            request.variables,
                            lane=pool.lanes[slot_index],
                            rule_set=request.rule_set,
                        )
                        pending = pool.start(slot_index, session)
                        if session.done:
                            harvest(index, session)
                        else:
                            slots[slot_index] = (index, session, pending)
                live = [
                    (slot_index, slot[1], slot[2])
                    for slot_index, slot in enumerate(slots)
                    if slot is not None
                ]
                if not live:
                    continue
                for pending, (slot_index, session, _) in zip(
                    pool.step(live), live
                ):
                    index = slots[slot_index][0]
                    if session.done:
                        harvest(index, session)
                        slots[slot_index] = None
                    else:
                        slots[slot_index] = (index, session, pending)
        finally:
            elapsed = time.perf_counter() - start_time
            self.stats.elapsed += elapsed
            self.enforcer.trace.wall_time += elapsed
            self._publish_pool_counters()
        if not return_exceptions:
            for entry in results:
                if isinstance(entry, BaseException):
                    raise entry
        return results  # type: ignore[return-value]

    def _publish_pool_counters(self) -> None:
        merged = self.pool.solver_work()
        self.enforcer.trace.solver_work = merged
        self.stats.solver_work = merged
        self.stats.lm_calls = self.pool.lm_calls
        self.stats.lm_rows = self.pool.lm_rows

    def summary(self) -> Dict[str, object]:
        """Operator-facing snapshot: throughput + cache effectiveness."""
        out = self.stats.snapshot()
        out["batch_size"] = self.batch_size
        out["cache"] = self.pool.cache_stats()
        out["lm_cache"] = self.pool.lm_cache_stats()
        return out
