"""The whole-state refold of the interval tier, kept as a test reference.

These are the fold functions :mod:`repro.core.feasible` used before each
oracle state was derived from its parent: :func:`residualize_pack`
substitutes the fixed values into every row of a pack compiled from the
raw (unnormalized) atom rows, :func:`_route_row` files one substituted
row, and :func:`_fold_lincons` normalizes and folds every row from the
schema bounds.  ``ReferenceIntervalOracle`` in ``test_feasible.py`` folds
through them, and the differential tests there check that the production
fold (``fold_pack`` and ``IntervalOracle.fix``) yields exactly their box,
their rows in their order, and their disjunctions.

:func:`interpreted_fold_pack` is the rule-by-rule begin fold the generated
``fold_pack`` replaced: one ``_Fold`` method call per pack entry.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.feasible import Disjunct, _conjuncts, _Fold, _substitute_simplify
from repro.rules import RuleSet
from repro.smt import Atom, LinCon
from repro.smt.simplify import simplify, to_nnf
from repro.smt.terms import BoolConst

Bounds = Mapping[str, Tuple[int, int]]


def raw_pack(rules: RuleSet):
    """Each atom rule as its raw row, every other rule as its NNF tree."""
    entries = []
    for formula in rules.formulas():
        names = frozenset(formula.variables())
        if isinstance(formula, Atom):
            row = LinCon(formula.expr.items, formula.expr.const, formula.op)
            entries.append((row, None, names))
        else:
            entries.append((None, simplify(to_nnf(formula)), names))
    return tuple(entries)


def interpreted_fold_pack(
    pack, fixed: Mapping[str, int], harvest: bool, bounds: Bounds
) -> Optional[Tuple[_Fold, List[Disjunct]]]:
    """``fold_pack``, one entry at a time in pack order."""
    fold = _Fold(bounds)
    disjunctive: List[Disjunct] = []
    for row, tree, names in pack:
        if names.isdisjoint(fixed):
            if row is not None:
                fold.keep(row)
            elif not fold.tree(tree, names, disjunctive, harvest):
                return None
        elif row is not None:
            if not fold.substitute(row, fixed):
                return None
        elif not fold.tree(
            _substitute_simplify(tree, fixed), names, disjunctive, harvest
        ):
            return None
    return fold, disjunctive


def residualize_pack(
    pack, fixed: Mapping[str, int], harvest: bool
) -> Optional[Tuple[List[LinCon], List[Disjunct]]]:
    """Residualize every rule of ``pack`` against ``fixed``.

    Returns the conjunctive linear constraints and the residual
    disjunctions, both in rule order, or None when a rule is refuted.
    Rules that residualize to TRUE drop out.  With ``harvest`` a
    disjunction also contributes, in its place, the rows it conjunctively
    implies.
    """
    conjunctive: List[LinCon] = []
    disjunctive: List[Disjunct] = []
    for row, tree, names in pack:
        if row is not None:
            if not _route_row(row, fixed, conjunctive):
                return None
            continue
        residual = tree if names.isdisjoint(fixed) else _substitute_simplify(tree, fixed)
        if not _route(residual, names, conjunctive, disjunctive, harvest):
            return None
    return conjunctive, disjunctive


def _route_row(con: LinCon, fixed: Mapping[str, int], out: List[LinCon]) -> bool:
    """Substitute ``fixed`` into one linear row and append what is left;
    False when the row becomes ground-false."""
    rest = []
    const = con.const
    for name, coeff in con.items:
        value = fixed.get(name)
        if value is None:
            rest.append((name, coeff))
        else:
            const += coeff * value
    if not rest:
        return LinCon((), const, con.op).ground_truth()
    if len(rest) == len(con.items):
        out.append(con)
    else:
        out.append(LinCon(tuple(rest), const, con.op))
    return True


def _route(residual, names, conjunctive, disjunctive, harvest) -> bool:
    """File one residual formula; False when it is ground-false."""
    if isinstance(residual, BoolConst):
        return residual.value
    implied: List[LinCon] = []
    if not _conjuncts(residual, implied):
        disjunctive.append((residual, names))
        if not harvest:
            return True
    conjunctive.extend(implied)
    return True


def _fold_lincons(
    constraints: List[LinCon], base_bounds: Bounds
) -> Tuple[Dict[str, Tuple[int, int]], List[LinCon]]:
    """Tighten per-variable bounds and keep only the strongest constraint
    per multi-variable linear form.

    Returns (bounds, rows): the rows are the normalized equalities and
    disequalities in input order, then the strongest ``<=`` per form in
    first-seen order; a ground-false input leaves the ground-false marker
    row in its place.  A name outside ``base_bounds`` keeps an end no row
    bounds open (None).
    """
    bounds: Dict[str, Tuple[int, int]] = dict(base_bounds)
    strongest: Dict[Tuple, LinCon] = {}
    rows: List[LinCon] = []
    for con in constraints:
        reduced = con.normalized()
        if reduced is None:
            continue
        if reduced.is_ground():
            if not reduced.ground_truth():
                rows.append(reduced)
            continue
        items = reduced.items
        if len(items) == 1 and reduced.op == "<=":
            name, coeff = items[0]
            low, high = bounds.get(name, (None, None))
            if coeff > 0:  # coeff*v <= -const
                limit = (-reduced.const) // coeff
                high = limit if high is None else min(high, limit)
            else:  # coeff < 0:  v >= ceil(const / -coeff)
                limit = -((-reduced.const) // (-coeff))
                low = limit if low is None else max(low, limit)
            bounds[name] = (low, high)
            continue
        if reduced.op == "<=":
            key = (items, "<=")
            seen = strongest.get(key)
            if seen is None or reduced.const > seen.const:
                strongest[key] = reduced
            continue
        # Equalities and disequalities pass through unfolded.
        rows.append(reduced)
    rows.extend(strongest.values())
    return bounds, rows
