"""Outside-in tracing: wrappers around the program's public seams.

Each wrapper delegates every attribute it does not time, so the program
runs the same code with or without it.  Totals live in an anonymous shared
mapping: wrappers built inside a forked pool worker (through the enforcer
factory) write to memory the benchmark process still reads after the run.
Only one thread per process drives enforcement, so the counters need no
lock.
"""

from __future__ import annotations

import mmap
import time
from typing import Dict

FIELDS = ("lm_s", "lm_calls", "lm_rows", "oracle_s", "oracle_calls")


class Totals:
    """Busy time and call counts for the LM and oracle layers."""

    def __init__(self) -> None:
        # MAP_SHARED | MAP_ANONYMOUS: inherited across fork, backed by no file.
        self._map = mmap.mmap(-1, 8 * len(FIELDS))
        self._array = memoryview(self._map).cast("d")
        # Oracle calls nest (a hybrid tier calls its interval and SMT
        # sub-tiers); only the outermost call is timed, so nothing is
        # counted twice.
        self.oracle_depth = 0

    def add(self, index: int, value: float) -> None:
        self._array[index] += value

    def snapshot(self) -> Dict[str, float]:
        return dict(zip(FIELDS, self._array))


_LM_S, _LM_CALLS, _LM_ROWS, _ORACLE_S, _ORACLE_CALLS = range(len(FIELDS))


class TimedLM:
    """A ``LanguageModel`` proxy that times every distribution call."""

    def __init__(self, model, totals: Totals):
        self._model = model
        self._totals = totals

    def __getattr__(self, name):
        return getattr(self._model, name)

    def next_distribution(self, prefix_ids, **kwargs):
        started = time.perf_counter()
        try:
            return self._model.next_distribution(prefix_ids, **kwargs)
        finally:
            self._record(time.perf_counter() - started, 1)

    def next_distributions(self, batch_of_prefix_ids, **kwargs):
        started = time.perf_counter()
        try:
            return self._model.next_distributions(batch_of_prefix_ids, **kwargs)
        finally:
            self._record(time.perf_counter() - started,
                         len(batch_of_prefix_ids))

    def _record(self, seconds: float, rows: int) -> None:
        totals = self._totals
        totals.add(_LM_S, seconds)
        totals.add(_LM_CALLS, 1)
        totals.add(_LM_ROWS, rows)


class TimedOracle:
    """A feasibility-oracle proxy timing every query, like ``FaultyOracle``.

    The hybrid tier's ``interval``/``smt`` sub-oracles are wrapped too,
    because the enforcer's optimistic phase calls ``oracle.interval``
    directly.
    """

    def __init__(self, oracle, totals: Totals):
        self._oracle = oracle
        self._totals = totals
        for sub in ("interval", "smt"):
            inner = getattr(oracle, sub, None)
            if inner is not None:
                setattr(self, sub, TimedOracle(inner, totals))

    def __getattr__(self, name):
        inner = getattr(self._oracle, name)
        if name == "any_model":
            return lambda: self._timed(inner)
        return inner

    def _timed(self, call, *args):
        totals = self._totals
        if totals.oracle_depth:
            return call(*args)
        totals.oracle_depth += 1
        started = time.perf_counter()
        try:
            return call(*args)
        finally:
            totals.oracle_depth -= 1
            totals.add(_ORACLE_S, time.perf_counter() - started)
            totals.add(_ORACLE_CALLS, 1)

    def begin_record(self, fixed=None):
        return self._timed(self._oracle.begin_record, fixed)

    def feasible_set(self, variable):
        return self._timed(self._oracle.feasible_set, variable)

    def confirm_status(self, variable, value):
        return self._timed(self._oracle.confirm_status, variable, value)

    def confirm(self, variable, value):
        return self._timed(self._oracle.confirm, variable, value)

    def fix(self, variable, value):
        return self._timed(self._oracle.fix, variable, value)


def oracle_wrapper(totals: Totals):
    """The ``JitEnforcer(oracle_wrapper=...)`` callable for ``totals``."""
    return lambda oracle: TimedOracle(oracle, totals)
