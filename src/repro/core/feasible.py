"""Feasible-region oracles: what values may the current variable take?

This is where the SMT solver "natively joins the inference process".  An
oracle tracks the record's rules plus the values generated so far and
answers two questions per variable:

* :meth:`feasible_set` -- a sound *over-approximation* of the values the
  variable can take such that the whole record can still be completed
  (the paper's dynamic partial instantiation + lookahead);
* :meth:`confirm` -- the exact check that a concrete value admits a
  rule-compliant completion.

Three implementations realize the solver-tier ablation of DESIGN.md:

* :class:`SmtOracle` -- both answers from the DPLL(T) solver (exact ranges);
* :class:`IntervalOracle` -- both from bounds propagation (fast, sound for
  pruning, but incomplete: it can let dead ends through);
* :class:`HybridOracle` (default) -- interval ranges for cheap per-digit
  masking, solver confirmation at variable boundaries.  This is the
  configuration that guarantees compliance at tractable cost.
"""

from __future__ import annotations

import weakref
from math import gcd
from dataclasses import dataclass
from typing import Collection, Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..errors import InfeasibleRecord, SolverBudgetExceeded
from ..obs import OBS
from ..rules.dsl import RuleSet
from ..rules.io import rules_fingerprint
from ..smt import (
    SAT,
    UNSAT,
    And,
    Atom,
    BudgetMeter,
    Eq,
    Formula,
    IntVar,
    Le,
    LinCon,
    LinExpr,
    Or,
    Solver,
)
from ..smt.intervals import TOP, Interval, PreparedSystem, PropagationResult, Warm
from ..smt.simplify import simplify, substitute, to_nnf
from ..smt.terms import FALSE, TRUE, BoolConst
from .transition import FeasibleSet

__all__ = [
    "FeasibilityOracle",
    "SmtOracle",
    "IntervalOracle",
    "HybridOracle",
    "InfeasibleRecordError",
    "OracleCache",
    "MaskLookupStats",
]

Bounds = Mapping[str, Tuple[int, int]]

# An oracle's answers are a pure function of (rule set, bounds, the ordered
# history of fixed values).  The *state key* captures that history exactly:
# the begin_record assignment (order-canonicalized -- residualization
# substitutes it in one step) plus the sequence of fix() calls in order
# (incremental refolds are path-dependent, so order is part of the key).
StateKey = Tuple[Tuple[Tuple[str, int], ...], Tuple[Tuple[str, int], ...]]


class OracleCache:
    """Bounded memo shared by every oracle of one enforcer.

    Concurrent sessions of a batched engine repeatedly reach identical
    partial assignments -- every synthesis record starts from the empty
    prefix, and coarse prompts repeat across a workload.  This cache lets
    them share three kinds of (deterministic, state-keyed) work:

    * ``fs``       feasible sets per (state, variable);
    * ``istate``   the interval tier's refolded constraint state;
    * ``confirm``  definite (never UNKNOWN) confirmation verdicts.

    Soundness rests on the state key being exact: two oracles with equal
    keys have byte-identical logical state, so replaying a cached answer is
    indistinguishable from recomputing it.  Entries are only ever written
    from fully-computed, immutable snapshots; UNKNOWN verdicts (budget
    exhaustion) are never cached, so resource-dependent outcomes stay live.

    Keys embed the rule set's *content fingerprint*
    (:func:`~repro.rules.io.rules_fingerprint`), which partitions the
    cache by rule-set hash: oracles over identical rule content share
    verdicts -- across tenants, lanes, and rebinds -- while any content
    difference isolates them completely, so a sat/unsat verdict cached
    under pack A can never be served for pack B.  Per-partition counters
    make mixed-tenant behaviour debuggable, and :meth:`evict_partition`
    drops a retired pack's verdicts wholesale.
    """

    #: FIFO capacity of every enforcer's cache.
    DEFAULT_ENTRIES = 65536

    def __init__(self, max_entries: int = DEFAULT_ENTRIES):
        self.max_entries = max(1, int(max_entries))
        self._data: Dict[Tuple, object] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # partition -> [hits, misses, evictions, entries]; the partition of
        # a key is the rule-set fingerprint its oracle baked into the tag.
        self._partitions: Dict[object, List[int]] = {}

    @staticmethod
    def _partition_of(key: Tuple) -> object:
        tag = key[1] if len(key) > 1 else None
        if isinstance(tag, tuple) and tag:
            return tag[0]
        return "default"

    def _partition_row(self, key: Tuple) -> List[int]:
        partition = self._partition_of(key)
        row = self._partitions.get(partition)
        if row is None:
            row = self._partitions[partition] = [0, 0, 0, 0]
        return row

    def lookup(self, key: Tuple):
        entry = self._data.get(key)
        if entry is None:
            self.misses += 1
            self._partition_row(key)[1] += 1
            return None
        self.hits += 1
        self._partition_row(key)[0] += 1
        return entry

    def store(self, key: Tuple, value: object) -> None:
        if key not in self._data:
            if len(self._data) >= self.max_entries:
                # FIFO eviction: drop the oldest insertion (dicts are
                # ordered) and charge the eviction to *its* partition.
                oldest = next(iter(self._data))
                self._data.pop(oldest)
                self.evictions += 1
                row = self._partition_row(oldest)
                row[2] += 1
                row[3] -= 1
            self._partition_row(key)[3] += 1
        self._data[key] = value

    def evict(self, key: Tuple) -> bool:
        """Drop one entry; True if it was resident.

        Used by the poisoned-lane path: a session that dies mid-record may
        have stored snapshots computed by a faulty oracle, so its lane
        evicts them rather than letting the next admitted record adopt
        state of unknown provenance.
        """
        if self._data.pop(key, None) is None:
            return False
        self.evictions += 1
        row = self._partition_row(key)
        row[2] += 1
        row[3] -= 1
        return True

    def evict_partition(self, partition: object) -> int:
        """Drop every entry of one rule-set partition; returns the count.

        Called when a rule pack is retired: its verdicts will never be
        queried again (new requests cannot name it), so holding them only
        crowds out live tenants' entries.
        """
        doomed = [
            key for key in self._data if self._partition_of(key) == partition
        ]
        for key in doomed:
            self._data.pop(key)
        count = len(doomed)
        if count:
            self.evictions += count
            row = self._partitions.get(partition)
            if row is not None:
                row[2] += count
                row[3] -= count
        return count

    def __contains__(self, key: Tuple) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Operator-facing counters (served verbatim by ``GET /metrics``).

        ``partitions`` breaks hits/misses/evictions/entries down per
        rule-set fingerprint, so a mixed-tenant deployment can see which
        pack's verdicts are hot and which are being crowded out.
        """
        partitions = {}
        for partition, row in self._partitions.items():
            hits, misses, evictions, entries = row
            total = hits + misses
            partitions[str(partition)] = {
                "hits": hits,
                "misses": misses,
                "evictions": evictions,
                "entries": entries,
                "hit_rate": round(hits / total, 4) if total else 0.0,
            }
        return {
            "entries": len(self._data),
            "capacity": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate(), 4),
            "partitions": partitions,
        }


def residualize(formula: Formula, fixed: Mapping[str, int]) -> Formula:
    """Substitute fixed values, push negations to atoms, and fold constants.

    The result is in NNF, so conjunctive information can be harvested by
    :func:`_conjuncts` and asserted compactly by the solver.  This is
    the one-formula reference form; the oracles residualize a whole pack
    through its compiled rows instead (:func:`fold_pack`), which yields
    the same residuals without rebuilding every rule's tree.
    """
    return simplify(to_nnf(substitute(formula, fixed)))


# A residual disjunction travels with the variables of the rule it came
# from: a superset of its own, enough to skip it when an unrelated
# variable is fixed.
Disjunct = Tuple[Formula, FrozenSet[str]]


# One compiled rule: (row, None, names) for an atom rule, (None, tree, names)
# for any other.
PackEntry = Tuple[Optional[LinCon], Optional[Formula], FrozenSet[str]]

_PACKS: "weakref.WeakKeyDictionary[RuleSet, Tuple[int, Tuple[PackEntry, ...]]]" = (
    weakref.WeakKeyDictionary()
)


def compiled_pack(rules: RuleSet) -> Tuple[PackEntry, ...]:
    """The rule set lowered once for repeated residualization.

    Each :class:`~repro.smt.Atom` rule becomes one linear row (a
    :class:`LinCon`), stored GCD-normalized, which residualizes by integer
    substitution.  Every other rule -- and an atom that normalizes to a
    ground row -- keeps its ``simplify(to_nnf(rule))`` tree plus its
    variable set; :func:`_substitute_simplify` specializes that tree and
    returns untouched subtrees as they are.  Rule order is kept: it is
    assertion order, part of the determinism contract.

    Memoized like :func:`~repro.rules.io.rules_fingerprint`: a weak key,
    and a length guard so a rule added after compiling recompiles.  The
    first ``begin_record`` over a rule set compiles it.
    """
    cached = _PACKS.get(rules)
    if cached is not None and cached[0] == len(rules):
        return cached[1]
    entries: List[PackEntry] = []
    for formula in rules.formulas():
        names = frozenset(formula.variables())
        if isinstance(formula, Atom):
            row = LinCon(formula.expr.items, formula.expr.const, formula.op)
            row = row.normalized()
            if row is not None and row.items:
                entries.append((row, None, names))
                continue
        entries.append((None, simplify(to_nnf(formula)), names))
    pack = tuple(entries)
    _PACKS[rules] = (len(rules), pack)
    return pack


def _entailed(items, const: int, box: Bounds, schema: Bounds) -> bool:
    """True when ``sum(coeff*name) + const <= 0`` holds on all of ``box``:
    every name is a schema variable and the row's maximum activity over
    ``box`` is at most 0."""
    total = const
    for name, coeff in items:
        if name not in schema:
            return False
        low, high = box[name]
        total += coeff * (high if coeff > 0 else low)
    return total <= 0


def _entailed_or(formula: Formula, box: Bounds, schema: Bounds) -> bool:
    """True when ``formula`` is an Or with a direct ``<=`` atom entailed by
    ``box`` (see :func:`_entailed`)."""
    return isinstance(formula, Or) and any(
        isinstance(arg, Atom)
        and arg.op == "<="
        and _entailed(arg.expr.items, arg.expr.const, box, schema)
        for arg in formula.args
    )


# rules -> (its compiled pack, the bounds, the view)
_VIEWS: "weakref.WeakKeyDictionary[RuleSet, Tuple[Tuple, Dict, Tuple]]" = (
    weakref.WeakKeyDictionary()
)


def interval_pack(rules: RuleSet, bounds: Bounds) -> Tuple[PackEntry, ...]:
    """:func:`compiled_pack` without the rules ``bounds`` entail.

    A ``<=`` row, or an Or with a direct ``<=`` atom, whose maximum
    activity over the schema bounds is at most 0 can never narrow a
    bound, before or after any in-bounds substitution.  The interval tier
    folds from this view; the solver still asserts the whole pack.
    Memoized per rule set for its last bounds, and rebuilt when the pack
    is.
    """
    pack = compiled_pack(rules)
    cached = _VIEWS.get(rules)
    if cached is not None and cached[0] is pack and cached[1] == bounds:
        return cached[2]
    live: List[PackEntry] = []
    for entry in pack:
        row, tree, _ = entry
        if row is None:
            if _entailed_or(tree, bounds, bounds):
                continue
        elif row.op == "<=" and _entailed(row.items, row.const, bounds, bounds):
            continue
        live.append(entry)
    view = tuple(live)
    _VIEWS[rules] = (pack, dict(bounds), view)
    return view


class _Fold:
    """One fold of residual rows into the interval tier's normal form.

    A single-variable ``<=`` row tightens a per-variable box and never
    becomes a row.  ``==``/``!=`` rows, single-variable ones too, stay rows
    in input order; multi-variable ``<=`` rows keep only the strongest row
    per linear form, in first-seen order.  Rows are GCD-normalized exactly
    as :meth:`LinCon.normalized` would, but only where that can change
    them: a compiled pack row arrives normalized, and substitution can only
    raise its gcd.  A ground-false row (an ``==`` whose gcd does not divide
    its constant) leaves the marker ``normalized()`` returns in its place.

    ``SmtOracle.begin_record`` (without harvesting), ``IntervalOracle.
    begin_record`` and ``IntervalOracle.fix`` all fold through this class,
    so the solver's assertion order and the interval tier's rows come from
    one implementation.
    """

    __slots__ = ("bounds", "tight", "rows", "forms", "fresh")

    def __init__(self, bounds: Bounds):
        self.bounds = bounds
        # name -> (low, high) after this fold's single-variable rows, each
        # starting from the schema bound (None: open, for off-schema names).
        self.tight: Dict[str, Tuple[Optional[int], Optional[int]]] = {}
        self.rows: List[LinCon] = []
        self.forms: Dict[Tuple[Tuple[str, int], ...], LinCon] = {}
        # Rows built by normalizing or harvested from a formula, which a
        # warm propagation after this fold queues.  A row substituted with
        # its gcd still 1 narrows exactly as its source did with the
        # substituted value pinned, so it is not among them.
        self.fresh: List[LinCon] = []

    def keep(self, row: LinCon) -> None:
        """Fold a row that is already normalized."""
        if row.op == "<=" and len(row.items) == 1:
            name, coeff = row.items[0]
            self._bound(name, coeff, row.const)
        else:
            self._place(row.items, row.const, row.op, row, False)

    def carry(
        self, rows: List[LinCon], touched: Collection[int], fixed: Mapping[str, int]
    ) -> bool:
        """Fold a folded state's rows with ``fixed`` substituted into the
        rows at the ``touched`` indices; every other row passes through as
        the same object.  False when a row becomes ground-false."""
        forms, eqs = self.forms, self.rows
        for index, row in enumerate(rows):
            if index in touched:
                if not self.substitute(row, fixed):
                    return False
            elif row.op != "<=":
                eqs.append(row)
            else:  # a folded row is the strongest of its form: only a
                # substituted row met earlier can share the form.  A row
                # retired as entailed is gone, so a substituted row that
                # takes its form lands at its own place, not the retired
                # row's (an order change only a capped run could see).
                seen = forms.get(row.items)
                if seen is None or row.const > seen.const:
                    forms[row.items] = row
        return True

    def substitute(self, row: LinCon, fixed: Mapping[str, int]) -> bool:
        """Fold a normalized row holding some of ``fixed``, with those
        values substituted; False when the row becomes ground-false."""
        rest = []
        const = row.const
        for name, coeff in row.items:
            value = fixed.get(name)
            if value is None:
                rest.append((name, coeff))
            else:
                const += coeff * value
        op = row.op
        if not rest:
            return const <= 0 if op == "<=" else (const == 0) == (op == "==")
        if op == "<=" and len(rest) == 1:  # the common case: into the box
            name, coeff = rest[0]
            self._bound(name, coeff, const)
        else:
            self._normalize(tuple(rest), const, op, None, False)
        return True

    def tree(
        self,
        residual: Formula,
        names: FrozenSet[str],
        disjunctive: List[Disjunct],
        harvest: bool,
    ) -> bool:
        """Fold one residual formula; False when it is ground-false.

        A disjunction is kept in ``disjunctive``; with ``harvest`` it also
        contributes the rows it conjunctively implies (see
        :func:`_conjuncts`).
        """
        if isinstance(residual, BoolConst):
            return residual.value
        implied: List[LinCon] = []
        if not _conjuncts(residual, implied):
            disjunctive.append((residual, names))
            if not harvest:
                return True
        for con in implied:
            self._normalize(con.items, con.const, con.op, con, True)
        return True

    def _normalize(self, items, const: int, op: str, row, fresh: bool) -> None:
        if op == "<=" and len(items) == 1:  # folds into the box at any scale
            name, coeff = items[0]
            self._bound(name, coeff, const)
            return
        g = gcd(*[coeff for _, coeff in items])
        if g > 1:
            items = tuple((name, coeff // g) for name, coeff in items)
            if op == "<=":
                const = -((-const) // g)
            elif const % g:
                if op == "==":
                    self.rows.append(LinCon((), 1, "<="))
                return  # a != whose gcd misses the constant always holds
            else:
                const //= g
            row, fresh = None, True
        self._place(items, const, op, row, fresh)

    def _bound(self, name: str, coeff: int, const: int) -> None:
        """Fold ``coeff*name + const <= 0`` into the box."""
        low, high = self.tight.get(name) or self.bounds.get(name, (None, None))
        if coeff > 0:  # name <= floor(-const / coeff)
            limit = (-const) // coeff
            if high is None or limit < high:
                high = limit
        else:  # name >= ceil(const / -coeff)
            limit = -((-const) // (-coeff))
            if low is None or limit > low:
                low = limit
        self.tight[name] = (low, high)

    def _place(self, items, const: int, op: str, row, fresh: bool) -> None:
        """Place a normalized multi-variable or ``==``/``!=`` row."""
        if op == "<=":
            seen = self.forms.get(items)
            if seen is not None and const <= seen.const:
                return
        if row is None:
            row = LinCon(items, const, op)
        if fresh:
            self.fresh.append(row)
        if op == "<=":
            self.forms[items] = row
        else:
            self.rows.append(row)

    def box(self) -> Dict[str, Tuple[int, int]]:
        """The schema bounds with this fold's tightenings, closed (an
        off-schema name's open end closes at 0)."""
        box = dict(self.bounds)
        for name, (low, high) in self.tight.items():
            box[name] = (0 if low is None else low, 0 if high is None else high)
        return box

    def refuted(self) -> bool:
        """True when a ground-false marker row was folded."""
        return any(not row.items for row in self.rows)

    def folded_rows(self) -> List[LinCon]:
        """The equalities and disequalities, then the strongest ``<=``
        rows."""
        return self.rows + list(self.forms.values())


def fold_pack(
    pack: Tuple[PackEntry, ...],
    fixed: Mapping[str, int],
    harvest: bool,
    bounds: Bounds,
) -> Optional[Tuple[_Fold, List[Disjunct]]]:
    """Residualize every rule of ``pack`` against ``fixed`` and fold it.

    Returns the fold and the residual disjunctions in rule order, or None
    when a rule is refuted.  Rules that residualize to TRUE drop out; a
    row that holds no fixed variable is folded as it is.
    """
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


def _substitute_simplify(node: Formula, fixed: Mapping[str, int]) -> Formula:
    """``simplify(substitute(node, fixed))`` for a node already in
    :func:`simplify` normal form (NNF: atoms, constants, And, Or).

    Subtrees that mention no fixed variable come back as the same object,
    which a normal form may: simplify() would rebuild an equal tree.
    """
    if isinstance(node, Atom):
        items = node.expr.items
        const = node.expr.const
        rest = []
        for name, coeff in items:
            value = fixed.get(name)
            if value is None:
                rest.append((name, coeff))
            else:
                const += coeff * value
        if len(rest) == len(items) and items:
            return node
        if rest:
            return Atom(LinExpr(dict(rest), const), node.op)
        holds = const <= 0 if node.op == "<=" else const == 0
        return TRUE if holds else FALSE
    if isinstance(node, BoolConst):
        return node
    # And/Or: the same folding as simplify(): absorb, drop neutral,
    # flatten, dedupe.
    is_and = isinstance(node, And)
    args = []
    changed = False
    for arg in node.args:
        new = _substitute_simplify(arg, fixed)
        if new is not arg:
            changed = True
            if isinstance(new, BoolConst):
                if new.value != is_and:  # absorbing
                    return new
                continue  # neutral
        args.append(new)
    if not changed:
        return node
    seen = {}
    for arg in args:
        if type(arg) is type(node):
            for sub in arg.args:
                seen.setdefault(sub, None)
        else:
            seen.setdefault(arg, None)
    if not seen:
        return TRUE if is_and else FALSE
    parts = tuple(seen)
    if len(parts) == 1:
        return parts[0]
    return And(*parts) if is_and else Or(*parts)


class InfeasibleRecordError(InfeasibleRecord):
    """The rules admit no completion for the current record prefix."""


@dataclass
class MaskLookupStats:
    """Oracle-operation counters shared by every oracle of one enforcer.

    ``live_queries`` counts the operations that reached an oracle's
    solver or propagation machinery: begins, feasible-set queries,
    confirmations and model extractions.  ``hits`` and ``fallbacks``
    counted lookups in a precomputed mask store, which no longer exists;
    they stay at 0 so the ``repro_mask_lookup_*`` metric family keeps
    its names.
    """

    hits: int = 0
    fallbacks: int = 0
    live_queries: int = 0


class FeasibilityOracle:
    """Common interface; concrete oracles override the query methods.

    ``meter`` (optional) is a shared :class:`~repro.smt.BudgetMeter`: every
    solver the oracle spins up charges its deterministic work (conflicts,
    pivots, theory rounds, ...) against the meter's budget.  Budget
    exhaustion surfaces as :class:`~repro.errors.SolverBudgetExceeded` --
    distinct from :class:`InfeasibleRecordError`, which is a genuine UNSAT.

    ``cache`` is the :class:`OracleCache` shared across the oracles of one
    enforcer; an oracle built without one gets a private cache.

    ``mask_stats`` (optional) is a :class:`MaskLookupStats` shared by
    every oracle of one enforcer; each begin, feasible-set query,
    confirmation and model extraction counts one ``live_queries``.
    """

    def __init__(
        self,
        rules: RuleSet,
        bounds: Bounds,
        meter: Optional[BudgetMeter] = None,
        cache: Optional[OracleCache] = None,
        mask_stats: Optional[MaskLookupStats] = None,
    ):
        self.rules = rules
        self.bounds = dict(bounds)
        self.fixed: Dict[str, int] = {}
        self.meter = meter
        self.cache = cache if cache is not None else OracleCache()
        self.mask_stats = mask_stats
        # Content-hashed tag: the fingerprint is the cache *partition*, so
        # oracles over identical rule content share entries (across lanes,
        # tenants, and hot-swap rebinds) while differing content -- even
        # with identical pack names -- can never alias.  The type name
        # keeps solver-exact and interval-approximate answers apart.
        self._cache_tag = (rules_fingerprint(rules), type(self).__name__)
        self._state_key: StateKey = ((), ())

    # -- state-key bookkeeping (see StateKey above) ---------------------------

    def _reset_state_key(self, fixed: Mapping[str, int]) -> None:
        self._state_key = (
            tuple(sorted((name, int(value)) for name, value in fixed.items())),
            (),
        )

    def _extend_state_key(self, variable: str, value: int) -> None:
        base, fixes = self._state_key
        self._state_key = (base, fixes + ((variable, int(value)),))

    def _cache_key(self, section: str, *parts) -> Tuple:
        return (section, self._cache_tag, self._state_key) + parts

    def _cached_feasible_set(self, variable: str, compute) -> FeasibleSet:
        """Memoized feasible set for the current state; sound because the
        state key pins the oracle's exact logical state."""
        key = self._cache_key("fs", variable)
        hit = self.cache.lookup(key)
        if hit is not None:
            return hit
        feasible = compute()
        self.cache.store(key, feasible)
        return feasible

    def _count_query(self) -> None:
        if self.mask_stats is not None:
            self.mask_stats.live_queries += 1

    def begin_record(self, fixed: Optional[Mapping[str, int]] = None) -> None:
        """Start a fresh record with the given already-known variables."""
        raise NotImplementedError

    def discard_record_state(self) -> None:
        """Drop all per-record state after a session died mid-record.

        A poisoned lane (fault injection, an exception escaping between
        paired state updates) may leave an oracle's internal state out of
        sync with its state key; the next ``begin_record`` would then adopt
        stale solver frames or refold snapshots.  Subclasses extend this to
        tear down anything that could survive into the next record --
        the record's solver, refold state, and the shared-cache snapshots
        the dying record wrote under its current state key.
        """
        self.fixed = {}
        self._state_key = ((), ())

    def feasible_set(self, variable: str) -> FeasibleSet:
        raise NotImplementedError

    def confirm(self, variable: str, value: int) -> bool:
        raise NotImplementedError

    def confirm_status(self, variable: str, value: int) -> str:
        """Tri-state confirm: ``sat`` | ``unsat`` | ``unknown``.

        The default derives from :meth:`confirm`; solver-backed oracles
        override it to surface UNKNOWN (budget exhaustion) distinctly so
        the enforcer can step down its degradation ladder instead of
        misreading resource exhaustion as a refuted value.
        """
        return SAT if self.confirm(variable, value) else UNSAT

    def fix(self, variable: str, value: int) -> None:
        raise NotImplementedError

    def _clip(self, variable: str, feasible: FeasibleSet) -> FeasibleSet:
        low, high = self.bounds[variable]
        return feasible.intersect_interval(low, high)


class SmtOracle(FeasibilityOracle):
    """Exact feasibility via the DPLL(T) solver.

    The record's known values are *substituted into the rules first*, so the
    solver only ever sees the residual formulas over still-free variables --
    typically a handful of atoms instead of hundreds.  This is the paper's
    "dynamic partial instantiation": fixing values deactivates rules (their
    residual simplifies to TRUE) and specializes the rest.

    Every record gets a fresh solver (cheap at residual size), so nothing
    a lane's earlier records asserted or learned steers the next record's
    search.  Shared work goes through the state-keyed :class:`OracleCache`
    instead.

    Only verdicts and exact optima may reach emitted records: SAT/UNSAT
    answers and ``feasible_interval`` endpoints are pure functions of the
    asserted formulas, but the model the SAT core finds first depends on
    the order of the solver's queries, which cache hits change.
    :meth:`any_model` values must therefore never be emitted directly (the
    enforcer's forced-value path takes the feasible-set minimum).
    """

    def __init__(
        self,
        rules: RuleSet,
        bounds: Bounds,
        meter: Optional[BudgetMeter] = None,
        cache: Optional[OracleCache] = None,
        mask_stats: Optional[MaskLookupStats] = None,
    ):
        super().__init__(rules, bounds, meter, cache=cache, mask_stats=mask_stats)
        self._solver: Optional[Solver] = None

    def begin_record(self, fixed: Optional[Mapping[str, int]] = None) -> None:
        self._count_query()
        if not OBS.active:
            return self._begin_record_impl(fixed)
        with OBS.profile("oracle_begin", oracle="smt"):
            return self._begin_record_impl(fixed)

    def _begin_record_impl(self, fixed: Optional[Mapping[str, int]]) -> None:
        self.fixed = {k: int(v) for k, v in (fixed or {}).items()}
        self._reset_state_key(self.fixed)
        # The record's assertions sit in one push frame: without it the
        # selector numbering, and so the work a budget meters, would move.
        self._solver = Solver(meter=self.meter)
        self._solver.push()
        folded = fold_pack(compiled_pack(self.rules), self.fixed, False, self.bounds)
        if folded is None:
            raise InfeasibleRecordError(f"rule refuted by fixed values {self.fixed}")
        fold, disjunctive = folded
        # The fold leaves the (typically hundreds of) conjunctive residual
        # constraints as the strongest bound per linear form -- the solver
        # then sees tens of atoms instead of hundreds, which matters per
        # token.
        for name, (low, high) in fold.box().items():
            if name in self.fixed:
                if not low <= self.fixed[name] <= high:
                    raise InfeasibleRecordError(
                        f"fixed {name}={self.fixed[name]} outside [{low},{high}]"
                    )
                continue
            if low > high:
                raise InfeasibleRecordError(f"empty folded domain for {name}")
            self._solver.add(Le(low, IntVar(name)))
            self._solver.add(Le(IntVar(name), high))
        for row in fold.folded_rows():
            self._solver.add(_row_formula(row))
        for formula, _ in disjunctive:
            self._solver.add(formula)
        result = self._solver.check()
        if result.is_unknown:
            raise SolverBudgetExceeded(
                "budget exhausted while opening record",
                resource=self._solver.meter.last_exhausted,
            )
        if not result.satisfiable:
            raise InfeasibleRecordError(
                f"rules are unsatisfiable given fixed values {self.fixed}"
            )

    def feasible_set(self, variable: str) -> FeasibleSet:
        self._count_query()
        return self._cached_feasible_set(variable, lambda: self._feasible_set(variable))

    def _feasible_set(self, variable: str) -> FeasibleSet:
        interval = self._solver.feasible_interval(IntVar(variable))
        if interval is None:
            return FeasibleSet.empty()
        low, high = interval
        if low is None or high is None:  # bounds always close the domain
            low_default, high_default = self.bounds[variable]
            low = low_default if low is None else low
            high = high_default if high is None else high
        return self._clip(variable, FeasibleSet.from_interval(low, high))

    def confirm(self, variable: str, value: int) -> bool:
        return self.confirm_status(variable, value) == SAT

    def confirm_status(self, variable: str, value: int) -> str:
        self._count_query()
        key = self._cache_key("confirm", variable, int(value))
        hit = self.cache.lookup(key)
        if hit is not None:
            return hit
        self._solver.push()
        try:
            self._solver.add(Eq(IntVar(variable), value))
            status = self._solver.check().status
        finally:
            self._solver.pop()
        # Only definite verdicts are cached: UNKNOWN means the budget ran
        # out, and a later query under a fresh budget may well decide it.
        if status in (SAT, UNSAT):
            self.cache.store(key, status)
        return status

    def fix(self, variable: str, value: int) -> None:
        self.fixed[variable] = value
        self._extend_state_key(variable, value)
        self._solver.push()
        self._solver.add(Eq(IntVar(variable), value))

    def discard_record_state(self) -> None:
        """Drop the record's solver: its push/pop frames may not match the
        state key after a mid-record abort."""
        super().discard_record_state()
        self._solver = None

    def any_model(self) -> Dict[str, int]:
        """A full rule-compliant completion of the current prefix.

        Which model comes back depends on solver-internal search state
        (learned clauses, variable numbering, which queries the cache
        answered), so the values are *not* deterministic across cache
        histories.  Use it for existence checks and audits, never as a
        source of emitted record bytes -- those must come from verdicts
        and exact interval optima.
        """
        self._count_query()
        result = self._solver.check()
        if result.is_unknown:
            raise SolverBudgetExceeded(
                "budget exhausted while extracting a model",
                resource=self._solver.meter.last_exhausted,
            )
        if not result.satisfiable:
            raise InfeasibleRecordError("no completion exists")
        model = dict(result.model or {})
        for name, (low, _) in self.bounds.items():
            model.setdefault(name, max(low, 0))
        return model


def _conjuncts(node: Formula, out: List[LinCon]) -> bool:
    """Append the rows a residual conjunctively implies; True when they are
    all of it.

    A residual is in simplify() normal form, so its conjunctive content is
    exactly the atoms reachable through nested Ands: an Or there keeps two
    or more live branches and implies no row on its own.
    """
    if isinstance(node, Atom):
        out.append(LinCon(node.expr.items, node.expr.const, node.op))
        return True
    if isinstance(node, And):
        pure = True
        for arg in node.args:
            pure = _conjuncts(arg, out) and pure
        return pure
    return False


def _live(
    box: Bounds, schema: Bounds, rows: List[LinCon], disjunctive: List[Disjunct]
) -> Tuple[List[LinCon], List[Disjunct]]:
    """The rows and disjunctions that can still narrow a bound on ``box``:
    every ``<=`` row and every Or that ``box`` entails drops out (see
    :func:`_entailed`)."""
    return (
        [
            row
            for row in rows
            if row.op != "<=" or not _entailed(row.items, row.const, box, schema)
        ],
        [item for item in disjunctive if not _entailed_or(item[0], box, schema)],
    )


def _row_formula(row: LinCon) -> Formula:
    """A folded row as the formula the solver asserts."""
    if row.is_ground():
        return FALSE  # check() then reports the record infeasible
    return Atom(LinExpr(dict(row.items), row.const), row.op)


class IntervalOracle(FeasibilityOracle):
    """Bounds-propagation tier: fast, sound for pruning, incomplete.

    ``begin_record`` residualizes the rule set's compiled pack (built once
    per rule set), less the rules the schema bounds entail
    (:func:`interval_pack`), and folds the result (:class:`_Fold`):
    single-variable residual constraints collapse into a per-variable
    *box*, multi-variable ones keep only the strongest bound per linear
    form, and disjunctive residuals are held back symbolically (they only
    inform propagation once all but one branch dies).  Every state then
    drops the rows and disjunctions its own box entails (:func:`_live`):
    boxes only narrow along a fix path, so those can never narrow again.

    Every later state derives from its parent.  A ``fix`` substitutes into
    and refolds only the rows holding the fixed variable (found through the
    parent's watch index) and the disjunctions that mention it; every other
    row passes through as the same object.  Queries run propagation over a
    system indexed once per state.  A confirmation starts from the state's
    propagated domain when it has one, and a fix that follows a SAT
    confirmation of the same value starts its propagation from that
    confirmation's domain (see :class:`~repro.smt.intervals.PreparedSystem`
    for why a warm run reaches the cold run's fixpoint).
    """

    def __init__(
        self,
        rules: RuleSet,
        bounds: Bounds,
        meter: Optional[BudgetMeter] = None,
        cache: Optional[OracleCache] = None,
        mask_stats: Optional[MaskLookupStats] = None,
    ):
        super().__init__(rules, bounds, meter, cache=cache, mask_stats=mask_stats)
        self._refuted = False
        self._set_state(dict(bounds), [], [])

    def _set_state(
        self,
        box: Dict[str, Tuple[int, int]],
        multi: List[LinCon],
        disjunctive: List[Disjunct],
    ) -> None:
        """Adopt a refold state and drop everything derived from the old one."""
        self._box = box
        self._multi_cons = multi
        self._disjunctive = disjunctive
        self._domain_cache: Optional[Dict[str, Interval]] = None
        self._converged = False  # whether _domain_cache is a fixpoint
        self._prepared: Optional[PreparedSystem] = None
        self._initial: Optional[Dict[str, Interval]] = None
        # The last computed SAT confirmation as (variable, value, domain),
        # and for a state a fix derived after one: that domain and the
        # fold's fresh rows, to warm-start the state's first propagation.
        self._confirmed: Optional[Tuple[str, int, Dict[str, Interval]]] = None
        self._seed: Optional[Tuple[Dict[str, Interval], List[LinCon]]] = None

    # -- refold-state snapshots ('istate' cache section) ----------------------

    def _restore_istate(self) -> bool:
        """Adopt a cached refold state for the current state key, if any."""
        hit = self.cache.lookup(self._cache_key("istate"))
        if hit is None:
            return False
        refuted, box, multi, disjunctive = hit
        self._refuted = refuted
        # Never adopt a propagated domain along with the snapshot: a domain
        # computed before some fix() on the producing path would silently
        # *widen* the admissible set here.  Domains are recomputed lazily
        # from the (exact) refold state instead, from cold.
        self._set_state(dict(box), list(multi), list(disjunctive))
        return True

    def _store_istate(self) -> None:
        self.cache.store(
            self._cache_key("istate"),
            (
                self._refuted,
                tuple(self._box.items()),
                tuple(self._multi_cons),
                tuple(self._disjunctive),
            ),
        )

    def begin_record(self, fixed: Optional[Mapping[str, int]] = None) -> None:
        self._count_query()
        if not OBS.active:
            return self._begin_record_impl(fixed)
        with OBS.profile("oracle_begin", oracle="interval"):
            return self._begin_record_impl(fixed)

    def _begin_record_impl(self, fixed: Optional[Mapping[str, int]]) -> None:
        self.fixed = {k: int(v) for k, v in (fixed or {}).items()}
        self._reset_state_key(self.fixed)
        if not self._restore_istate():
            pack = interval_pack(self.rules, self.bounds)
            folded = fold_pack(pack, self.fixed, True, self.bounds)
            self._refuted = folded is None or not self._adopt(*folded)
            if self._refuted:
                self._set_state(dict(self.bounds), [], [])
            self._store_istate()
        if self._refuted or self._state_domain() is None:
            raise InfeasibleRecordError(
                f"bounds propagation refutes fixed values {self.fixed}"
            )

    def _adopt(self, fold: _Fold, disjunctive: List[Disjunct]) -> bool:
        """Adopt a record's first fold; False when it refutes the record.

        Each fixed value must lie in its folded bounds."""
        box = fold.box()
        for name, (low, high) in box.items():
            if low > high or (
                name in self.fixed and not low <= self.fixed[name] <= high
            ):
                return False
        if fold.refuted():
            return False
        self._set_state(box, *_live(box, self.bounds, fold.folded_rows(), disjunctive))
        return True

    def _prepared_system(self) -> PreparedSystem:
        if self._prepared is None:
            self._prepared = PreparedSystem.of_normalized(self._multi_cons)
        return self._prepared

    def _initial_domain(self) -> Dict[str, Interval]:
        if self._initial is None:
            initial = {
                name: Interval(low, high) for name, (low, high) in self._box.items()
            }
            for name, value in self.fixed.items():
                initial[name] = Interval(value, value)
            self._initial = initial
        return self._initial

    def _state_domain(self) -> Optional[Dict[str, Interval]]:
        """The state's propagated domain; None when propagation refutes it."""
        if self._refuted:
            return None
        if self._domain_cache is not None:
            return self._domain_cache
        # The propagated domain is a pure function of the refold state,
        # which the state key pins exactly -- so unlike ``_domain_cache``
        # (which must be dropped on every state change) the shared entry
        # can never leak a stale, wider domain into a narrower state.
        key = self._cache_key("dom")
        hit = self.cache.lookup(key)
        if hit is not None:
            self._domain_cache, self._converged = hit
            return hit[0]
        warm = None
        if self._seed is not None:
            warm = self._warm_start(*self._seed)
            self._seed = None
        result = self._prepared_system().run(self._initial_domain(), (), warm)
        domain = result.domain if result.feasible else None
        self._domain_cache, self._converged = domain, result.converged
        # Paired with the converged flag: a legitimately-infeasible None is
        # then distinguishable from a cache miss, and only a fixpoint
        # seeds a warm run.
        self.cache.store(key, (domain, result.converged))
        return domain

    def _known_domain(self) -> Optional[Tuple[Optional[Dict[str, Interval]], bool]]:
        """``(domain, converged)`` when the state's domain exists without
        propagating."""
        if self._domain_cache is not None:
            return self._domain_cache, self._converged
        key = self._cache_key("dom")
        return self.cache.lookup(key) if key in self.cache else None

    def _confirm_run(self, variable: str, value: int) -> Optional[PropagationResult]:
        """Propagation with one trial value pinned; None when refuted
        before it runs."""
        if self._refuted:
            return None
        initial = self._initial_domain()
        pin = initial.get(variable, Interval(value, value))
        if not pin.contains(value):
            return None
        initial = dict(initial)
        initial[variable] = Interval(value, value)
        # The trial value may collapse disjunctions; harvest those.  A
        # disjunction without the variable residualizes to itself, and
        # what it implies is already folded into this state.
        extra: List[LinCon] = []
        trial = {variable: value}
        for formula, names in self._disjunctive:
            if variable not in names:
                continue
            reduced = _substitute_simplify(formula, trial)
            if isinstance(reduced, BoolConst):
                if not reduced.value:
                    return None
                continue
            _conjuncts(reduced, extra)
        warm = None
        known = self._known_domain()
        if known is not None and known[1]:
            # Pinning the value narrows the state's fixpoint only through
            # the rows watching the variable and the harvested rows.
            domain = known[0]
            if domain is None or not domain.get(variable, pin).contains(value):
                return None
            start = dict(domain)
            start[variable] = Interval(value, value)
            warm = (start, (variable,), ())
        return self._prepared_system().run(initial, extra, warm)

    def feasible_set(self, variable: str) -> FeasibleSet:
        self._count_query()
        return self._cached_feasible_set(variable, lambda: self._feasible_set(variable))

    def _feasible_set(self, variable: str) -> FeasibleSet:
        domain = self._state_domain()
        if domain is None:
            return FeasibleSet.empty()
        interval = domain.get(variable)
        low_default, high_default = self._box.get(
            variable, self.bounds[variable]
        )
        if interval is None:
            return FeasibleSet.from_interval(low_default, high_default)
        low = low_default if interval.lower is None else interval.lower
        high = high_default if interval.upper is None else interval.upper
        return self._clip(variable, FeasibleSet.from_interval(low, high))

    def confirm(self, variable: str, value: int) -> bool:
        self._count_query()
        key = self._cache_key("confirm", variable, int(value))
        hit = self.cache.lookup(key)
        if hit is not None:
            return hit == SAT
        result = self._confirm_run(variable, int(value))
        verdict = result is not None and result.feasible
        if verdict and result.converged:
            self._confirmed = (variable, int(value), result.domain)
        # Propagation is deterministic and budget-free here, so both
        # verdicts are definite and safe to cache.
        self.cache.store(key, SAT if verdict else UNSAT)
        return verdict

    def fix(self, variable: str, value: int) -> None:
        confirmed = self._confirmed
        self.fixed[variable] = value
        self._extend_state_key(variable, value)
        if self._restore_istate():
            return
        if not self._refuted:
            if confirmed is not None and confirmed[:2] != (variable, int(value)):
                confirmed = None
            self._refold(variable, int(value), confirmed)
        self._store_istate()

    def _refold(
        self,
        variable: str,
        value: int,
        confirmed: Optional[Tuple[str, int, Dict[str, Interval]]],
    ) -> None:
        """Derive the child state of ``fix(variable=value)`` from this one."""
        rows = self._multi_cons
        touched = self._prepared_system().watch.get(variable, ())
        fold = _Fold(self.bounds)
        assignment = {variable: value}
        if not fold.carry(rows, set(touched), assignment):
            self._refuted = True
            return
        disjunctive: List[Disjunct] = []
        for formula, names in self._disjunctive:
            if variable in names:
                formula = _substitute_simplify(formula, assignment)
            elif not isinstance(formula, And):
                # Implies no row: passes through.  An And re-harvests below.
                disjunctive.append((formula, names))
                continue
            if not fold.tree(formula, names, disjunctive, True):
                self._refuted = True
                return
        # A schema variable's value must lie in its parent's box (no row
        # holds the variable any more, so the fold cannot tighten it); then
        # every box on a fix path only narrows, which retiring entailed
        # rows relies on.  The fold starts from the schema bounds; the
        # parent's box keeps every earlier tightening, so only this fold's
        # names can move.
        parent = self._box
        low, high = parent[variable] if variable in self.bounds else (value, value)
        if fold.refuted() or not low <= value <= high:
            self._refuted = True
            return
        box = dict(parent)
        if len(box) != len(self.bounds):  # off-schema names: refolded only
            box = {name: b for name, b in box.items() if name in self.bounds}
        emptied = False
        for name, (low, high) in fold.tight.items():
            low = 0 if low is None else low
            high = 0 if high is None else high
            if low > high:
                self._refuted = True
                return
            prev_low, prev_high = parent.get(name, (low, high))
            box[name] = merged = (max(low, prev_low), min(high, prev_high))
            if merged[0] > merged[1] and name not in self.fixed:
                emptied = True
        self._set_state(box, *_live(box, self.bounds, fold.folded_rows(), disjunctive))
        self._refuted = emptied
        # A dropped off-schema bound widens this state's initial domain
        # past the confirmation's, which then no longer holds the fixpoint.
        if confirmed is not None and not emptied and all(
            name in box for name in parent
        ):
            self._seed = (confirmed[2], fold.fresh)

    def _warm_start(
        self, confirmed: Dict[str, Interval], fresh: List[LinCon]
    ) -> Warm:
        """Where a fix after a SAT confirmation of its value starts.

        The confirmation's domain holds this state's fixpoint: every row
        here is an untouched parent row, a row the fix substituted (which,
        with its gcd still 1, narrows as its source did with the value
        pinned), or one of the fresh rows.  Intersected with this state's
        initial domain it is a valid start, and only the fresh rows and the
        rows watching a variable the intersection narrowed can be unstable.
        """
        start: Dict[str, Interval] = {}
        narrowed: List[str] = []
        for name, interval in self._initial_domain().items():
            seen = confirmed.get(name)
            if seen is None:
                start[name] = interval
                narrowed.append(name)
            elif (
                interval.lower is not None
                and (seen.lower is None or seen.lower < interval.lower)
            ) or (
                interval.upper is not None
                and (seen.upper is None or seen.upper > interval.upper)
            ):
                start[name] = seen.intersect(interval)
                narrowed.append(name)
            else:
                start[name] = seen
        prepared = self._prepared_system()
        for name in prepared.variables:
            if name not in start:
                start[name] = confirmed.get(name, TOP)
        indices: List[int] = []
        if fresh:
            ids = {id(row) for row in fresh}
            indices = [
                index for index, row in enumerate(prepared.active) if id(row) in ids
            ]
        return start, narrowed, indices

    def discard_record_state(self) -> None:
        """Drop the refold state and the shared-cache snapshots the dying
        record stored under its final state key (``istate`` + the derived
        propagated domain), so no later session -- on this lane or any
        other -- can adopt state a poisoned record computed."""
        self.cache.evict(self._cache_key("istate"))
        self.cache.evict(self._cache_key("dom"))
        super().discard_record_state()
        self._refuted = False
        self._set_state(dict(self.bounds), [], [])


class HybridOracle(FeasibilityOracle):
    """Interval masks + SMT confirmation: LeJIT's default configuration."""

    def __init__(
        self,
        rules: RuleSet,
        bounds: Bounds,
        meter: Optional[BudgetMeter] = None,
        cache: Optional[OracleCache] = None,
        mask_stats: Optional[MaskLookupStats] = None,
    ):
        super().__init__(rules, bounds, meter, cache=cache, mask_stats=mask_stats)
        # The sub-oracles share the (possibly private) cache built above.
        self.interval = IntervalOracle(
            rules, bounds, meter, cache=self.cache, mask_stats=mask_stats
        )
        self.smt = SmtOracle(
            rules, bounds, meter, cache=self.cache, mask_stats=mask_stats
        )

    def begin_record(self, fixed: Optional[Mapping[str, int]] = None) -> None:
        self.fixed = {k: int(v) for k, v in (fixed or {}).items()}
        self._reset_state_key(self.fixed)
        self.interval.begin_record(self.fixed)  # raises on interval refutation
        self.smt.begin_record(self.fixed)  # raises on exact refutation

    def feasible_set(self, variable: str) -> FeasibleSet:
        return self.interval.feasible_set(variable)

    def confirm(self, variable: str, value: int) -> bool:
        return self.confirm_status(variable, value) == SAT

    def confirm_status(self, variable: str, value: int) -> str:
        # Cheap refutation first, exact check second.
        if not self.interval.confirm(variable, value):
            return UNSAT
        return self.smt.confirm_status(variable, value)

    def fix(self, variable: str, value: int) -> None:
        self.fixed[variable] = value
        self._extend_state_key(variable, value)
        self.interval.fix(variable, value)
        self.smt.fix(variable, value)

    def discard_record_state(self) -> None:
        # An abort between the paired interval/smt updates in fix() leaves
        # the two sub-oracles disagreeing on state -- reset both.
        super().discard_record_state()
        self.interval.discard_record_state()
        self.smt.discard_record_state()

    def any_model(self) -> Dict[str, int]:
        return self.smt.any_model()
