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
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

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
from ..smt.intervals import Interval, PreparedSystem
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
    through its compiled rows instead (:func:`residualize_pack`), which
    yields the same residuals without rebuilding every rule's tree.
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
    :class:`LinCon`), which residualizes by integer substitution.  Every
    other rule keeps its ``simplify(to_nnf(rule))`` tree plus its variable
    set; :func:`_substitute_simplify` specializes that tree and returns
    untouched subtrees as they are.  Rule order is kept: it is assertion
    order, part of the determinism contract.

    Memoized like :func:`~repro.rules.io.rules_fingerprint`: a weak key,
    and a length guard so a rule added after compiling recompiles.
    """
    cached = _PACKS.get(rules)
    if cached is not None and cached[0] == len(rules):
        return cached[1]
    entries: List[PackEntry] = []
    for formula in rules.formulas():
        names = frozenset(formula.variables())
        if isinstance(formula, Atom):
            row = LinCon(formula.expr.items, formula.expr.const, formula.op)
            entries.append((row, None, names))
        else:
            entries.append((None, simplify(to_nnf(formula)), names))
    pack = tuple(entries)
    _PACKS[rules] = (len(rules), pack)
    return pack


def residualize_pack(
    pack: Tuple[PackEntry, ...], fixed: Mapping[str, int], harvest: bool
) -> Optional[Tuple[List[LinCon], List[Disjunct]]]:
    """Residualize every rule of ``pack`` against ``fixed``.

    Returns the conjunctive linear constraints and the residual
    disjunctions, both in rule order, or None when a rule is refuted.
    Rules that residualize to TRUE drop out.  With ``harvest`` a
    disjunction also contributes, in its place, the rows it conjunctively
    implies (see :func:`_conjuncts`).
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


def _route(
    residual: Formula,
    names: FrozenSet[str],
    conjunctive: List[LinCon],
    disjunctive: List[Disjunct],
    harvest: bool,
) -> bool:
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
        residual = residualize_pack(compiled_pack(self.rules), self.fixed, harvest=False)
        if residual is None:
            raise InfeasibleRecordError(f"rule refuted by fixed values {self.fixed}")
        conjunctive, disjunctive = residual
        # Fold the (typically hundreds of) conjunctive residual constraints
        # down to the strongest bound per linear form -- the solver then sees
        # tens of atoms instead of hundreds, which matters per token.
        folded_bounds, folded_rows = _fold_lincons(conjunctive, self.bounds)
        for name, (low, high) in folded_bounds.items():
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
        for row in folded_rows:
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


def _fold_lincons(
    constraints: List[LinCon], base_bounds: Bounds
) -> Tuple[Dict[str, Tuple[int, int]], List[LinCon]]:
    """Tighten per-variable bounds and keep only the strongest constraint
    per multi-variable linear form.

    Returns (bounds, rows): the rows are the normalized equalities and
    disequalities in input order, then the strongest ``<=`` per form in
    first-seen order; a ground-false input leaves the ground-false marker
    row in its place.
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
    # Close any half-open bounds back to the base domain.
    closed: Dict[str, Tuple[int, int]] = {}
    for name, (low, high) in bounds.items():
        base_low, base_high = base_bounds.get(name, (0, 0))
        closed[name] = (
            base_low if low is None else low,
            base_high if high is None else high,
        )
    return closed, rows


def _row_formula(row: LinCon) -> Formula:
    """A folded row as the formula the solver asserts."""
    if row.is_ground():
        return FALSE  # check() then reports the record infeasible
    return Atom(LinExpr(dict(row.items), row.const), row.op)


class IntervalOracle(FeasibilityOracle):
    """Bounds-propagation tier: fast, sound for pruning, incomplete.

    ``begin_record`` residualizes the rule set's compiled pack (built once
    per rule set) and folds the result: single-variable residual
    constraints collapse into a per-variable *box*, multi-variable ones keep
    only the strongest bound per linear form, and disjunctive residuals are
    held back symbolically (they only inform propagation once all but one
    branch dies).  Each ``fix`` is incremental: only the rows and
    disjunctions that mention the fixed variable are substituted, the rest
    pass through in order, and the result is refolded.  Queries run
    propagation over a system prepared once per such state.
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
        self._prepared: Optional[PreparedSystem] = None
        self._initial: Optional[Dict[str, Interval]] = None

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
        # from the (exact) refold state instead.
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
            self._refuted = False
            residual = residualize_pack(
                compiled_pack(self.rules), self.fixed, harvest=True
            )
            if residual is None:
                self._refuted = True
            else:
                self._fold(*residual, self.fixed, None)
            self._store_istate()
        if self._refuted or self._propagate(None, None) is None:
            raise InfeasibleRecordError(
                f"bounds propagation refutes fixed values {self.fixed}"
            )

    def _fold(
        self,
        conjunctive: List[LinCon],
        disjunctive: List[Disjunct],
        checked: Mapping[str, int],
        previous_box: Optional[Dict[str, Tuple[int, int]]],
    ) -> None:
        """Fold residualized constraints into the refold state.

        ``checked`` holds the values just substituted, each of which must
        lie in its folded bounds.  Folding starts from the schema bounds, so
        an incremental fold passes the ``previous_box`` to keep earlier
        tightenings.  On refutation the old state stays as it was.
        """
        box, rows = _fold_lincons(conjunctive, self.bounds)
        for name, (low, high) in box.items():
            if low > high or (
                name in checked and not low <= checked[name] <= high
            ):
                self._refuted = True
                return
        if any(row.is_ground() for row in rows):
            self._refuted = True
            return
        if previous_box is not None:
            for name, (low, high) in box.items():
                prev_low, prev_high = previous_box.get(name, (low, high))
                low, high = max(low, prev_low), min(high, prev_high)
                box[name] = (low, high)
                if low > high and name not in self.fixed:
                    self._refuted = True
        self._set_state(box, rows, disjunctive)

    def _initial_domain(self) -> Dict[str, Interval]:
        if self._initial is None:
            initial = {
                name: Interval(low, high) for name, (low, high) in self._box.items()
            }
            for name, value in self.fixed.items():
                initial[name] = Interval(value, value)
            self._initial = initial
        return self._initial

    def _propagate(self, extra_var: Optional[str], extra_value: Optional[int]):
        """Domain after propagation, optionally pinning one trial value."""
        if self._refuted:
            return None
        if extra_var is None and self._domain_cache is not None:
            return self._domain_cache
        if extra_var is None:
            # The propagated domain is a pure function of the refold state,
            # which the state key pins exactly -- so unlike ``_domain_cache``
            # (which must be dropped on every state change) the shared entry
            # can never leak a stale, wider domain into a narrower state.
            key = self._cache_key("dom")
            hit = self.cache.lookup(key)
            if hit is not None:
                domain = hit[0]
                self._domain_cache = domain
                return domain
        if self._prepared is None:
            self._prepared = PreparedSystem(self._multi_cons)
        initial = self._initial_domain()
        extra: List[LinCon] = []
        if extra_var is not None:
            pin = initial.get(extra_var, Interval(extra_value, extra_value))
            if not pin.contains(extra_value):
                return None
            initial = dict(initial)
            initial[extra_var] = Interval(extra_value, extra_value)
            # The trial value may collapse disjunctions; harvest those.  A
            # disjunction without the variable residualizes to itself, and
            # what it implies is already folded into this state.
            trial = {extra_var: extra_value}
            for formula, names in self._disjunctive:
                if extra_var not in names:
                    continue
                reduced = _substitute_simplify(formula, trial)
                if isinstance(reduced, BoolConst):
                    if not reduced.value:
                        return None
                    continue
                _conjuncts(reduced, extra)
        result = self._prepared.run(initial, extra)
        domain = result.domain if result.feasible else None
        if extra_var is None:
            self._domain_cache = domain
            # Wrapped in a tuple so a legitimately-infeasible None is
            # distinguishable from a cache miss.
            self.cache.store(self._cache_key("dom"), (domain,))
        return domain

    def feasible_set(self, variable: str) -> FeasibleSet:
        self._count_query()
        return self._cached_feasible_set(variable, lambda: self._feasible_set(variable))

    def _feasible_set(self, variable: str) -> FeasibleSet:
        domain = self._propagate(None, None)
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
        verdict = self._propagate(variable, value) is not None
        # Propagation is deterministic and budget-free here, so both
        # verdicts are definite and safe to cache.
        self.cache.store(key, SAT if verdict else UNSAT)
        return verdict

    def fix(self, variable: str, value: int) -> None:
        self.fixed[variable] = value
        self._extend_state_key(variable, value)
        if self._restore_istate():
            return
        if self._refuted:
            self._store_istate()
            return
        assignment = {variable: int(value)}
        conjunctive: List[LinCon] = []
        disjunctive: List[Disjunct] = []
        refuted = not all(
            _route_row(con, assignment, conjunctive) for con in self._multi_cons
        )
        for formula, names in self._disjunctive:
            if refuted:
                break
            if variable in names:
                formula = _substitute_simplify(formula, assignment)
            refuted = not _route(formula, names, conjunctive, disjunctive, True)
        if refuted:
            self._refuted = True
        else:
            self._fold(conjunctive, disjunctive, assignment, self._box)
        self._store_istate()

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
