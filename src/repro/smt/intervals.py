"""Integer interval (bounds) propagation over linear constraints.

This is LeJIT's *fast path*: before any full solver call, the enforcer runs
bounds propagation to (a) quickly refute infeasible digit prefixes and (b)
narrow the feasible window of the variable currently being generated.

The propagator is **sound but incomplete**: when it reports ``infeasible``
there is definitely no integer solution; when it reports intervals, every
integer solution lies inside them, but not every point inside them is a
solution.  The full DPLL(T) solver remains the source of truth; tests verify
the containment property against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .lincon import LinCon

__all__ = [
    "Interval",
    "IntervalDomain",
    "PreparedSystem",
    "PropagationResult",
]

_WIDEN_LIMIT = 10_000  # iterations before declaring non-convergence


@dataclass(frozen=True)
class Interval:
    """A (possibly half-open) integer interval ``[lower, upper]``.

    ``None`` bounds mean unbounded on that side.  Empty intervals are
    represented by ``lower > upper`` and normalized via :meth:`is_empty`.
    """

    lower: Optional[int]
    upper: Optional[int]

    def is_empty(self) -> bool:
        return (
            self.lower is not None
            and self.upper is not None
            and self.lower > self.upper
        )

    def contains(self, value: int) -> bool:
        if self.lower is not None and value < self.lower:
            return False
        if self.upper is not None and value > self.upper:
            return False
        return True

    def width(self) -> Optional[int]:
        if self.lower is None or self.upper is None:
            return None
        return max(0, self.upper - self.lower + 1)

    def intersect(self, other: "Interval") -> "Interval":
        lower = (
            self.lower
            if other.lower is None
            else other.lower
            if self.lower is None
            else max(self.lower, other.lower)
        )
        upper = (
            self.upper
            if other.upper is None
            else other.upper
            if self.upper is None
            else min(self.upper, other.upper)
        )
        return Interval(lower, upper)

    def __repr__(self) -> str:
        lo = "-inf" if self.lower is None else str(self.lower)
        hi = "+inf" if self.upper is None else str(self.upper)
        return f"[{lo}, {hi}]"


TOP = Interval(None, None)

IntervalDomain = Dict[str, Interval]


@dataclass
class PropagationResult:
    """Outcome of one propagation run.

    ``converged`` is False when the run stopped at the ``_WIDEN_LIMIT``
    iteration cap: the domain is then still sound (no solution pruned) but
    may be wider than the fixpoint, and -- unlike a converged domain -- it
    can depend on the order the constraints were visited in.
    """

    feasible: bool
    domain: IntervalDomain
    converged: bool = True


def _normalize_all(
    constraints: Iterable[LinCon], active: List[LinCon]
) -> bool:
    """Append the non-trivial normalized constraints to ``active``;
    False when one of them is ground-false."""
    for con in constraints:
        normalized = con.normalized()
        if normalized is None:
            continue
        if normalized.is_ground():
            if not normalized.ground_truth():
                return False
            continue
        active.append(normalized)
    return True


# A warm start for PreparedSystem.run: (start domain, variables whose
# watching rows are queued, indices of further rows to queue).
Warm = Tuple[Mapping[str, Interval], Iterable[str], Iterable[int]]


class PreparedSystem:
    """A constraint system normalized and watch-indexed once, run many times.

    Propagation is chaotic iteration of monotone narrowing operators, so a
    converged run's domain depends only on the constraints and the initial
    domain, never on the order constraints are visited in.  That is what
    lets a caller build this once per constraint state and reuse it for
    every query against that state -- with different initial domains and
    a few per-query ``extra`` constraints -- and get exactly what a
    from-scratch run would.

    The same argument licenses a *warm* run: started from any domain ``D``
    between the converged fixpoint and the initial domain, with only the
    rows that may be unstable on ``D`` queued, a converged run reaches the
    fixpoint a cold run reaches (see :meth:`run`).

    Equalities propagate in both directions; disequalities only fire when
    the rest of the constraint is pinned to a single value.
    """

    __slots__ = ("active", "watch", "variables", "refuted")

    def __init__(self, constraints: Iterable[LinCon]):
        active: List[LinCon] = []
        self.refuted = not _normalize_all(constraints, active)
        self._index(active)

    @classmethod
    def of_normalized(cls, rows: List[LinCon]) -> "PreparedSystem":
        """A system over rows that are already normalized and non-ground,
        indexed as they are (the list is kept, not copied)."""
        system = cls.__new__(cls)
        system.refuted = False
        system._index(rows)
        return system

    def _index(self, active: List[LinCon]) -> None:
        # watch maps a variable to the indices of the rows holding it, in
        # row order.
        self.active = active
        watch: Dict[str, List[int]] = {}
        for index, con in enumerate(active):
            for var, _ in con.items:
                watch.setdefault(var, []).append(index)
        self.watch = watch
        self.variables = tuple(watch)

    def run(
        self,
        initial: Optional[Mapping[str, Interval]] = None,
        extra: Iterable[LinCon] = (),
        warm: Optional[Warm] = None,
    ) -> PropagationResult:
        """Propagate from ``initial`` to fixpoint with ``extra`` added.

        ``warm`` is ``(start, variables, rows)``: start from the domain
        ``start`` instead, queueing only the rows watching ``variables``,
        the rows at indices ``rows``, and every extra.  ``start`` must lie
        between the converged fixpoint and ``initial``, and every row left
        out of the queue must be stable on it; a converged warm run then
        returns the cold run's result.  A warm run that stops at the
        iteration cap is discarded for a cold one, so a capped result never
        depends on the warm path.
        """
        initial = initial or {}
        more: List[LinCon] = []
        if self.refuted or not _normalize_all(extra, more):
            return PropagationResult(False, dict(initial))
        active, watch = self.active, self.watch
        if more:
            active = active + more
            watch = dict(watch)  # new lists below: the index stays shared
            for index, con in enumerate(more, len(self.active)):
                for var, _ in con.items:
                    watch[var] = watch.get(var, []) + [index]
        if warm is not None:
            start, variables, rows = warm
            queue: List[int] = []
            queued = [False] * len(active)
            for source in [watch.get(var, ()) for var in variables] + [
                rows,
                range(len(self.active), len(active)),
            ]:
                for index in source:
                    if not queued[index]:
                        queued[index] = True
                        queue.append(index)
            result = _solve(
                active, watch, self._domain(start, more), queue, queued
            )
            if result.converged:
                return result
        return _solve(
            active,
            watch,
            self._domain(initial, more),
            list(range(len(active))),
            [True] * len(active),
        )

    def _domain(
        self, start: Mapping[str, Interval], more: List[LinCon]
    ) -> IntervalDomain:
        """``start`` with every system variable present (TOP if absent)."""
        domain = dict(start)
        for var in self.variables:
            domain.setdefault(var, TOP)
        for con in more:
            for var, _ in con.items:
                domain.setdefault(var, TOP)
        return domain


def _solve(
    active: List[LinCon],
    watch: Mapping[str, List[int]],
    domain: IntervalDomain,
    queue: List[int],
    queued: List[bool],
) -> PropagationResult:
    """Chaotic iteration from ``queue`` until no row is queued."""
    iterations = 0
    while queue:
        iterations += 1
        if iterations > _WIDEN_LIMIT:
            # Give up on convergence; the domain so far is still sound.
            return PropagationResult(True, domain, converged=False)
        index = queue.pop()
        queued[index] = False
        changed_vars = _propagate_one(active[index], domain)
        if changed_vars is None:  # the row is certainly violated
            return PropagationResult(False, domain)
        for var in changed_vars:
            for dependent in watch[var]:
                if not queued[dependent]:
                    queued[dependent] = True
                    queue.append(dependent)
    return PropagationResult(True, domain)


def _propagate_one(con: LinCon, domain: IntervalDomain) -> Optional[List[str]]:
    """Tighten the domain with one constraint, in O(k) for a row of k terms.

    Every term's range is taken once, before any tightening, and summed
    with a count of its unbounded ends.  A variable's rest-sum is then the
    total minus its own term, defined only when no *other* term is
    unbounded.  Candidate bounds are compared as plain ints; an
    :class:`Interval` is built only for a variable whose bound tightens.
    Row variables are distinct (``LinCon`` is canonical), so no term's
    range changes before the pass reaches it.

    Returns the variables whose interval changed, in row order, or None
    when the constraint is certainly violated -- in particular whenever a
    tightened interval is empty, so a changed interval is never empty.
    """
    op = con.op
    if op == "!=":
        return _propagate_disequality(con, domain)
    both = op == "=="

    # Each term gets  coeff*x <= -rest_min,  and under an equality also
    # coeff*x >= -rest_max,  where rest_min (rest_max) is const plus the
    # low (high) ends of the other terms.
    terms = []
    low_sum = high_sum = con.const
    low_open = high_open = 0
    for var, coeff in con.items:
        interval = domain.get(var, TOP)
        lower, upper = interval.lower, interval.upper
        if coeff > 0:
            lo = None if lower is None else coeff * lower
            hi = None if upper is None else coeff * upper
        else:
            lo = None if upper is None else coeff * upper
            hi = None if lower is None else coeff * lower
        if lo is None:
            low_open += 1
        else:
            low_sum += lo
        if hi is None:
            high_open += 1
        else:
            high_sum += hi
        terms.append((var, coeff, lower, upper, lo, hi))
    if low_open > 1 and (not both or high_open > 1):
        return []  # every rest-sum is unbounded: nothing can tighten

    changed: List[str] = []
    for var, coeff, lower, upper, lo, hi in terms:
        new_lower, new_upper = lower, upper
        if lo is None:
            rest = low_sum if low_open == 1 else None
        else:
            rest = low_sum - lo if low_open == 0 else None
        if rest is not None:
            if coeff > 0:
                cap = (-rest) // coeff
                if new_upper is None or cap < new_upper:
                    new_upper = cap
            else:
                cap = -(rest // coeff)
                if new_lower is None or cap > new_lower:
                    new_lower = cap
        if both:
            if hi is None:
                rest = high_sum if high_open == 1 else None
            else:
                rest = high_sum - hi if high_open == 0 else None
            if rest is not None:
                if coeff > 0:
                    cap = -(rest // coeff)
                    if new_lower is None or cap > new_lower:
                        new_lower = cap
                else:
                    cap = (-rest) // coeff
                    if new_upper is None or cap < new_upper:
                        new_upper = cap
        if new_lower != lower or new_upper != upper:
            domain[var] = Interval(new_lower, new_upper)
            if new_upper is not None and new_lower is not None and (
                new_lower > new_upper
            ):
                return None
            changed.append(var)
    return changed


def _propagate_disequality(
    con: LinCon, domain: IntervalDomain
) -> Optional[List[str]]:
    """``expr != 0`` can only prune when all but one variable are pinned."""
    free_idx = None
    pinned_total = con.const
    for idx, (var, coeff) in enumerate(con.items):
        interval = domain.get(var, TOP)
        if interval.lower is not None and interval.lower == interval.upper:
            pinned_total += coeff * interval.lower
        elif free_idx is None:
            free_idx = idx
        else:
            return []  # two or more free variables: nothing to do
    if free_idx is None:
        return None if pinned_total == 0 else []
    var, coeff = con.items[free_idx]
    # coeff * x != -pinned_total: prune the single excluded value if it sits
    # exactly on an interval endpoint.
    if (-pinned_total) % coeff != 0:
        return []
    excluded = (-pinned_total) // coeff
    interval = domain.get(var, TOP)
    if not interval.contains(excluded):
        return []
    if interval.lower == interval.upper == excluded:
        return None
    if interval.lower == excluded:
        domain[var] = Interval(excluded + 1, interval.upper)
        return [var]
    if interval.upper == excluded:
        domain[var] = Interval(interval.lower, excluded - 1)
        return [var]
    return []  # interior point: interval cannot represent the hole
