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
    "propagate",
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


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _floor_div(a: int, b: int) -> int:
    return a // b


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


class PreparedSystem:
    """A constraint system normalized and watch-indexed once, run many times.

    Propagation is chaotic iteration of monotone narrowing operators, so a
    converged run's domain depends only on the constraints and the initial
    domain, never on the order constraints are visited in.  That is what
    lets a caller build this once per constraint state and reuse it for
    every query against that state -- with different initial domains and
    a few per-query ``extra`` constraints -- and get exactly what a
    from-scratch :func:`propagate` would.
    """

    __slots__ = ("active", "watch", "variables", "refuted")

    def __init__(self, constraints: Iterable[LinCon]):
        self.active: List[LinCon] = []
        self.refuted = not _normalize_all(constraints, self.active)
        self.watch: Dict[str, List[LinCon]] = {}
        for con in self.active:
            for var, _ in con.items:
                self.watch.setdefault(var, []).append(con)
        self.variables = tuple(self.watch)

    def run(
        self,
        initial: Optional[Mapping[str, Interval]] = None,
        extra: Iterable[LinCon] = (),
    ) -> PropagationResult:
        """Propagate from ``initial`` to fixpoint with ``extra`` added."""
        domain: IntervalDomain = dict(initial or {})
        if self.refuted:
            return PropagationResult(False, domain)
        more: List[LinCon] = []
        if not _normalize_all(extra, more):
            return PropagationResult(False, domain)
        active, watch = self.active, self.watch
        for var in self.variables:
            domain.setdefault(var, TOP)
        if more:
            active = active + more
            watch = dict(watch)  # new lists below: the index stays shared
            for con in more:
                for var, _ in con.items:
                    domain.setdefault(var, TOP)
                    watch[var] = watch.get(var, []) + [con]

        queue: List[LinCon] = list(active)
        queued = {id(con) for con in queue}
        iterations = 0
        while queue:
            iterations += 1
            if iterations > _WIDEN_LIMIT:
                # Give up on convergence; the domain so far is still sound.
                return PropagationResult(True, domain, converged=False)
            con = queue.pop()
            queued.discard(id(con))
            changed_vars = _propagate_one(con, domain)
            if changed_vars is None:
                return PropagationResult(False, domain)
            for var in changed_vars:
                if domain[var].is_empty():
                    return PropagationResult(False, domain)
                for dependent in watch.get(var, ()):
                    if id(dependent) not in queued:
                        queue.append(dependent)
                        queued.add(id(dependent))
        return PropagationResult(True, domain)


def propagate(
    constraints: Iterable[LinCon],
    initial: Optional[Mapping[str, Interval]] = None,
) -> PropagationResult:
    """Run bounds propagation to fixpoint (see :class:`PreparedSystem`).

    Equalities propagate in both directions; disequalities only fire when
    the rest of the constraint is pinned to a single value.
    """
    return PreparedSystem(constraints).run(initial)


def _term_range(
    coeff: int, interval: Interval
) -> Tuple[Optional[int], Optional[int]]:
    """Range of ``coeff * x`` for x in the interval (None = unbounded)."""
    if coeff >= 0:
        lo = None if interval.lower is None else coeff * interval.lower
        hi = None if interval.upper is None else coeff * interval.upper
    else:
        lo = None if interval.upper is None else coeff * interval.upper
        hi = None if interval.lower is None else coeff * interval.lower
    return lo, hi


def _propagate_one(con: LinCon, domain: IntervalDomain) -> Optional[List[str]]:
    """Tighten the domain with one constraint.

    Returns the list of variables whose interval changed, or None when the
    constraint is certainly violated.
    """
    if con.op == "!=":
        return _propagate_disequality(con, domain)

    items = con.items
    # Precompute the range of each term so per-variable rest-sums are O(1).
    lows: List[Optional[int]] = []
    highs: List[Optional[int]] = []
    for var, coeff in items:
        lo, hi = _term_range(coeff, domain.get(var, TOP))
        lows.append(lo)
        highs.append(hi)

    def rest_sum(skip: int, use_low: bool) -> Optional[int]:
        total = con.const
        for k in range(len(items)):
            if k == skip:
                continue
            value = lows[k] if use_low else highs[k]
            if value is None:
                return None
            total += value
        return total

    changed: List[str] = []
    for idx, (var, coeff) in enumerate(items):
        interval = domain.get(var, TOP)
        new_interval = interval
        # From  coeff*x + rest + const <= 0:  coeff*x <= -(rest_min + const)
        rest_min = rest_sum(idx, use_low=True)
        if rest_min is not None:
            bound = -rest_min
            if coeff > 0:
                new_interval = new_interval.intersect(
                    Interval(None, _floor_div(bound, coeff))
                )
            else:
                new_interval = new_interval.intersect(
                    Interval(_ceil_div(bound, coeff), None)
                )
        if con.op == "==":
            # Also  coeff*x >= -(rest_max + const).
            rest_max = rest_sum(idx, use_low=False)
            if rest_max is not None:
                bound = -rest_max
                if coeff > 0:
                    new_interval = new_interval.intersect(
                        Interval(_ceil_div(bound, coeff), None)
                    )
                else:
                    new_interval = new_interval.intersect(
                        Interval(None, _floor_div(bound, coeff))
                    )
        if new_interval != interval:
            domain[var] = new_interval
            if new_interval.is_empty():
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
