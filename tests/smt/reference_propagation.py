"""The O(k^2) interval-propagation row kernel, kept as a test reference.

This is the per-row narrowing step :mod:`repro.smt.intervals` used before
its one-pass kernel: every variable's rest-sum re-adds all the other terms,
and every bound test builds an :class:`Interval`.  The step-level
differential in ``test_intervals.py`` checks that the production kernel
returns the same domain and the same changed list, in the same order, and
that a whole :meth:`PreparedSystem.run` driven by this kernel matches one
driven by the production kernel -- non-converged runs included.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.smt.intervals import TOP, Interval, IntervalDomain
from repro.smt.lincon import LinCon


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _floor_div(a: int, b: int) -> int:
    return a // b


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


def reference_propagate_one(
    con: LinCon, domain: IntervalDomain
) -> Optional[List[str]]:
    """Tighten the domain with one constraint.

    Returns the list of variables whose interval changed, or None when the
    constraint is certainly violated.
    """
    if con.op == "!=":
        return reference_propagate_disequality(con, domain)

    items = con.items
    # Each term's range is taken once, but every rest-sum below re-adds
    # the other k-1 terms: O(k^2) per row.
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


def reference_propagate_disequality(
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
