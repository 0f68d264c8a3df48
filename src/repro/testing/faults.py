"""Fault injection for chaos-testing the JIT enforcement loop.

LeJIT's robustness claim is that a misbehaving model or solver degrades
the output *gracefully*: every emitted record is either proven
rule-compliant or explicitly flagged degraded -- never silently wrong,
never an unhandled crash.  This module provides the test doubles that
exercise that claim:

* :class:`FaultyLM` wraps any :class:`~repro.lm.base.LanguageModel` and,
  at configurable rates, corrupts its next-token distribution with NaNs
  or zeros (a bad checkpoint, an overflowed softmax);
* :class:`FaultyOracle` wraps any
  :class:`~repro.core.feasible.FeasibilityOracle` and injects spurious
  UNKNOWN confirmations, forced dead ends (empty feasible sets), and
  budget exhaustion;
* :class:`FaultInjector` is the shared, *seeded* randomness source, so a
  chaos run is exactly reproducible, and :class:`FaultStats` counts what
  actually fired;
* :class:`CrashingLM` and :class:`StallingOracle` fire on *deterministic
  call-index schedules* instead of rates -- the same call always faults,
  which is what replay-parity chaos tests need;
* :class:`FullForwardLM` hides a model's KV-cache support, so every driver
  re-encodes the whole prefix each step -- the parity oracle incremental
  decoding is checked against;
* :func:`uncached_oracle` swaps an oracle's cache for a
  :class:`NullOracleCache`, so every answer is computed afresh -- the
  parity oracle the shared oracle cache is checked against;
* the process-level helpers (:func:`kill_worker`, :func:`stall_worker`,
  :func:`resume_worker`) inject worker-pool faults -- crash, scheduler
  stall, slow start -- for the supervisor chaos harness
  (:mod:`repro.serve.chaos`).

Every injected failure raises a *typed* error from :mod:`repro.errors`
(:class:`~repro.errors.InjectedFault` for scheduled faults,
:class:`~repro.errors.SolverBudgetExceeded` for injected exhaustion) --
never a bare ``RuntimeError`` -- so chaos tests can tell the faults they
scheduled from organic failures.

The wrappers implement the same protocols as the wrapped objects, so they
drop into :class:`~repro.core.enforcer.JitEnforcer` via its ``model`` and
``oracle_wrapper`` parameters without touching enforcement logic.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Sequence

import numpy as np

from ..core.feasible import FeasibilityOracle, OracleCache
from ..core.transition import FeasibleSet
from ..errors import InjectedFault, SolverBudgetExceeded
from ..lm.base import LanguageModel
from ..smt import SAT, UNKNOWN_STATUS

__all__ = [
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "FaultyLM",
    "FaultyOracle",
    "CrashingLM",
    "FullForwardLM",
    "NullOracleCache",
    "uncached_oracle",
    "StallingOracle",
    "FlakyStreamSource",
    "wait_for_sentinel_pid",
    "kill_worker",
    "stall_worker",
    "resume_worker",
]


@dataclass(frozen=True)
class FaultConfig:
    """Per-call-site fault probabilities (all in ``[0, 1]``).

    Rates are independent per call; ``seed`` makes the whole chaos run
    deterministic (same seed -> same faults at the same call sites).
    """

    seed: int = 0
    nan_logits: float = 0.0  # LM distribution gets NaN entries
    zero_logits: float = 0.0  # LM distribution becomes all-zero
    spurious_unknown: float = 0.0  # confirm_status lies: UNKNOWN
    forced_dead_end: float = 0.0  # feasible_set comes back empty
    budget_exhaustion: float = 0.0  # solver entry points raise

    def __post_init__(self) -> None:
        for name in (
            "nan_logits",
            "zero_logits",
            "spurious_unknown",
            "forced_dead_end",
            "budget_exhaustion",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")


@dataclass
class FaultStats:
    """How many injected faults actually fired, by kind."""

    fired: Dict[str, int] = field(default_factory=dict)

    def bump(self, kind: str) -> None:
        self.fired[kind] = self.fired.get(kind, 0) + 1

    def total(self) -> int:
        return sum(self.fired.values())


class FaultInjector:
    """Shared seeded randomness for all wrappers of one chaos run."""

    def __init__(self, config: FaultConfig):
        self.config = config
        self.stats = FaultStats()
        self._rng = np.random.default_rng(config.seed)

    def fire(self, kind: str, rate: float) -> bool:
        """Draw once; record and report whether the fault fires."""
        if rate <= 0.0:
            return False
        if float(self._rng.random()) >= rate:
            return False
        self.stats.bump(kind)
        return True


class FaultyLM:
    """A :class:`LanguageModel` whose distribution sometimes goes bad."""

    def __init__(self, model: LanguageModel, injector: FaultInjector):
        self._model = model
        self._injector = injector
        self.tokenizer = model.tokenizer

    def next_distribution(self, prefix_ids: Sequence[int]) -> np.ndarray:
        probs = np.array(
            self._model.next_distribution(prefix_ids), dtype=np.float64
        )
        config = self._injector.config
        if self._injector.fire("nan_logits", config.nan_logits):
            corrupted = probs.copy()
            # NaN out the top half of the mass -- the shape a broken
            # checkpoint or overflowed softmax actually produces.
            corrupted[corrupted >= np.median(corrupted)] = np.nan
            return corrupted
        if self._injector.fire("zero_logits", config.zero_logits):
            return np.zeros_like(probs)
        return probs


class CrashingLM:
    """A :class:`LanguageModel` that dies on a deterministic call schedule.

    ``crash_at`` lists 0-based ``next_distribution`` call indices; each
    scheduled call raises :class:`~repro.errors.InjectedFault` (a typed
    :class:`~repro.errors.ReproError`, so the degradation ladder and the
    engine's per-lane isolation see a classifiable failure, not an
    anonymous crash).  With ``exit_code`` set, the scheduled call instead
    terminates the whole process via ``os._exit`` -- the worker-pool chaos
    tests use this to kill a worker *mid-record*, exactly at a chosen
    decode step, so the supervisor's replay path is exercised
    deterministically.

    With ``hold_s`` set, the scheduled call instead *holds* -- sleeps that
    long mid-record, then carries on -- so a chaos test can kill or stall
    the worker from outside while a record is provably in flight (wait for
    the sentinel with :func:`wait_for_sentinel_pid`).

    The schedule is consumed per instance: a replacement worker (or a
    retried record) builds a fresh model state but the *same* schedule, so
    pair ``exit_code`` crashes with a ``crash_once_path`` sentinel file --
    the first firing creates it (atomically, holding the firing pid), later
    instances see it and stay healthy.
    """

    def __init__(
        self,
        model: LanguageModel,
        crash_at: Iterable[int],
        exit_code: Optional[int] = None,
        crash_once_path: Optional[str] = None,
        hold_s: Optional[float] = None,
    ):
        self._model = model
        self.crash_at: FrozenSet[int] = frozenset(int(i) for i in crash_at)
        self.exit_code = exit_code
        self.crash_once_path = crash_once_path
        self.hold_s = hold_s
        self.calls = 0
        self.tokenizer = model.tokenizer

    def _arm_once(self) -> bool:
        """Claim the sentinel for this pid; False if an earlier firing did."""
        if self.crash_once_path is None:
            return True
        try:
            fd = os.open(
                self.crash_once_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as handle:
            handle.write(str(os.getpid()))
        return True

    def next_distribution(self, prefix_ids: Sequence[int], **kwargs) -> np.ndarray:
        index = self.calls
        self.calls += 1
        if index in self.crash_at and self._arm_once():
            if self.hold_s is not None:
                time.sleep(self.hold_s)
                return self._model.next_distribution(prefix_ids, **kwargs)
            if self.exit_code is not None:
                os._exit(self.exit_code)
            raise InjectedFault(
                "scheduled LM crash", site="next_distribution", call_index=index
            )
        return self._model.next_distribution(prefix_ids, **kwargs)


class FullForwardLM:
    """A view of ``model`` that hides ``supports_kv_cache``/``new_kv_cache``,
    so drivers build no KV cache and every step runs the full forward over
    the whole prefix; all else delegates, so records must come out
    byte-identical to incremental decoding at the same seed."""

    def __init__(self, model: LanguageModel):
        self._model = model

    def __getattr__(self, name: str):
        if name in ("supports_kv_cache", "new_kv_cache"):
            raise AttributeError(name)
        return getattr(self._model, name)


class NullOracleCache(OracleCache):
    """An :class:`~repro.core.feasible.OracleCache` that keeps nothing:
    stores are dropped, so every lookup misses."""

    def store(self, key, value) -> None:
        pass


def uncached_oracle(oracle: FeasibilityOracle) -> FeasibilityOracle:
    """An ``oracle_wrapper`` that gives ``oracle`` (and a hybrid oracle's
    two sub-oracles) a :class:`NullOracleCache`.

    ``JitEnforcer(..., oracle_wrapper=uncached_oracle)`` then answers every
    query with a fresh solver or propagation run, never with another
    query's work; under an unlimited budget its records must be
    byte-identical to the cached path's at the same seed.
    """
    null = NullOracleCache()
    for part in (oracle, getattr(oracle, "interval", None),
                 getattr(oracle, "smt", None)):
        if part is not None:
            part.cache = null
    return oracle


class StallingOracle(FeasibilityOracle):
    """A :class:`FeasibilityOracle` that stalls on a deterministic schedule.

    ``stall_at`` lists 0-based *query* indices (``feasible_set`` and
    ``confirm_status`` calls share one counter); each scheduled query calls
    ``sleep(stall_s)`` before delegating -- the shape of a solver lost in a
    hard instance.  ``sleep`` is injectable so unit tests can count stalls
    without waiting; the worker-pool chaos harness leaves the real
    ``time.sleep`` in place to trip the supervisor's liveness timeout.

    Attribute access (including ``discard_record_state``) delegates to the
    wrapped oracle, which keeps all real state.
    """

    def __init__(
        self,
        oracle: FeasibilityOracle,
        stall_at: Iterable[int],
        stall_s: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        # Deliberately no super().__init__: state lives in the wrapped
        # oracle and is reached via delegation (same shape as FaultyOracle).
        self._oracle = oracle
        self.stall_at: FrozenSet[int] = frozenset(int(i) for i in stall_at)
        self.stall_s = float(stall_s)
        self._sleep = sleep
        self.queries = 0
        self.stalls_fired = 0

    def __getattr__(self, name: str):
        return getattr(self._oracle, name)

    def _maybe_stall(self) -> None:
        index = self.queries
        self.queries += 1
        if index in self.stall_at:
            self.stalls_fired += 1
            self._sleep(self.stall_s)

    def begin_record(self, fixed=None) -> None:
        self._oracle.begin_record(fixed)

    def feasible_set(self, variable: str) -> FeasibleSet:
        self._maybe_stall()
        return self._oracle.feasible_set(variable)

    def confirm_status(self, variable: str, value: int) -> str:
        self._maybe_stall()
        return self._oracle.confirm_status(variable, value)

    def confirm(self, variable: str, value: int) -> bool:
        return self.confirm_status(variable, value) == SAT

    def fix(self, variable: str, value: int) -> None:
        self._oracle.fix(variable, value)


class FlakyStreamSource:
    """A misbehaving telemetry transport for stream chaos tests.

    Wraps any iterable of wire-format stream events and re-delivers it the
    way a lossy collector pipeline would: a seeded fraction of events is
    *duplicated* (at-least-once delivery), a fraction is *held back* and
    re-injected a few positions later (reordering), and a fraction is held
    far past the stream's watermark (late data).  The whole mangling is
    driven by one ``numpy`` generator seeded at construction, so two
    sources with the same seed and input emit byte-identical delivery
    sequences -- which is what lets chaos tests assert replay parity
    *through* the flakiness.
    """

    def __init__(
        self,
        events: Iterable[Dict],
        seed: int = 0,
        duplicate_rate: float = 0.05,
        reorder_rate: float = 0.1,
        late_rate: float = 0.05,
        reorder_span: int = 3,
        late_span: int = 12,
    ):
        for name, rate in (
            ("duplicate_rate", duplicate_rate),
            ("reorder_rate", reorder_rate),
            ("late_rate", late_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self._events = list(events)
        self.seed = seed
        self.duplicate_rate = duplicate_rate
        self.reorder_rate = reorder_rate
        self.late_rate = late_rate
        self.reorder_span = max(1, int(reorder_span))
        self.late_span = max(1, int(late_span))
        self.duplicated = 0
        self.reordered = 0
        self.delayed_late = 0

    def __iter__(self):
        rng = np.random.default_rng(self.seed)
        self.duplicated = 0
        self.reordered = 0
        self.delayed_late = 0
        # position -> events scheduled for re-injection there
        held: Dict[int, list] = {}
        position = 0
        for event in self._events:
            for ready in held.pop(position, ()):
                yield ready
            position += 1
            roll = float(rng.random())
            if roll < self.late_rate:
                # Held far back: arrives long after the watermark passed.
                offset = self.late_span + int(rng.integers(0, self.late_span))
                held.setdefault(position + offset, []).append(event)
                self.delayed_late += 1
                continue
            if roll < self.late_rate + self.reorder_rate:
                offset = 1 + int(rng.integers(0, self.reorder_span))
                held.setdefault(position + offset, []).append(event)
                self.reordered += 1
                continue
            yield event
            if float(rng.random()) < self.duplicate_rate:
                self.duplicated += 1
                yield event
        # Source drained: flush everything still held, in schedule order.
        for slot in sorted(held):
            for ready in held[slot]:
                yield ready


# -- process-level faults (worker-pool chaos) --------------------------------
#
# The supervisor's failure model has three process-shaped faults; these
# helpers inject them against live worker PIDs.  ``slow-start`` is not a
# signal but a worker-config knob (``slow_start_s`` on
# ``repro.serve.workers.WorkerConfig`` / ``repro.serve.supervisor.WorkerPool``):
# the worker sleeps before reporting ready, which exercises the
# supervisor's startup timeout separately from liveness.


def wait_for_sentinel_pid(path: str, timeout: float = 60.0) -> int:
    """Block until a :class:`CrashingLM` sentinel holds its firing pid."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            with open(path) as handle:
                return int(handle.read())
        except (FileNotFoundError, ValueError):  # not fired, or mid-write
            if time.monotonic() > deadline:
                raise TimeoutError(f"{path} was never armed")
            time.sleep(0.002)


def kill_worker(pid: int) -> None:
    """Hard-crash a worker (SIGKILL): no cleanup, no goodbye message."""
    os.kill(pid, signal.SIGKILL)


def stall_worker(pid: int) -> None:
    """Freeze a worker (SIGSTOP): heartbeats stop but the pipe stays open,
    so only the liveness timeout -- not EOF -- can detect it."""
    os.kill(pid, signal.SIGSTOP)


def resume_worker(pid: int) -> None:
    """Resume a stalled worker (SIGCONT); used to clean up stall tests."""
    os.kill(pid, signal.SIGCONT)


class FaultyOracle(FeasibilityOracle):
    """A :class:`FeasibilityOracle` with injectable solver failures.

    Wraps any oracle tier; nested ``interval``/``smt`` sub-oracles (the
    hybrid tier) are wrapped too, sharing the same injector, so faults
    also fire inside the enforcer's optimistic phase.  Attributes not
    overridden here delegate to the wrapped oracle.
    """

    def __init__(self, oracle: FeasibilityOracle, injector: FaultInjector):
        # Deliberately no super().__init__: state lives in the wrapped
        # oracle and is reached via delegation.
        self._oracle = oracle
        self._injector = injector
        for sub in ("interval", "smt"):
            inner = getattr(oracle, sub, None)
            if isinstance(inner, FeasibilityOracle):
                setattr(self, sub, FaultyOracle(inner, injector))

    def __getattr__(self, name: str):
        inner = getattr(self._oracle, name)
        if name == "any_model":
            # Present only when the wrapped oracle has it (interval tiers
            # do not); wrap the call with budget-exhaustion injection.
            def faulty_any_model():
                self._exhaust("any_model")
                return inner()

            return faulty_any_model
        return inner

    def _exhaust(self, where: str) -> None:
        config = self._injector.config
        if self._injector.fire("budget_exhaustion", config.budget_exhaustion):
            raise SolverBudgetExceeded(
                f"injected budget exhaustion in {where}", resource="injected"
            )

    def begin_record(self, fixed=None) -> None:
        self._exhaust("begin_record")
        self._oracle.begin_record(fixed)

    def feasible_set(self, variable: str) -> FeasibleSet:
        config = self._injector.config
        if self._injector.fire("forced_dead_end", config.forced_dead_end):
            return FeasibleSet.empty()
        return self._oracle.feasible_set(variable)

    def confirm_status(self, variable: str, value: int) -> str:
        config = self._injector.config
        if self._injector.fire("spurious_unknown", config.spurious_unknown):
            return UNKNOWN_STATUS
        return self._oracle.confirm_status(variable, value)

    def confirm(self, variable: str, value: int) -> bool:
        return self.confirm_status(variable, value) == SAT

    def fix(self, variable: str, value: int) -> None:
        self._oracle.fix(variable, value)
