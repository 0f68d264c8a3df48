"""The JIT enforcer: solver-guided token-by-token generation.

This is the paper's contribution.  For each record variable, in generation
order:

1. ask the feasibility oracle for the variable's feasible set given the
   rules and every value generated so far (dynamic partial instantiation);
2. build a :class:`DigitTransitionSystem` over that set and let the LM
   sample the literal character by character, masking inadmissible
   characters (minimal invasiveness: admissible characters keep the LM's
   own probabilities, renormalized);
3. at the literal boundary, *confirm* with the solver that the value admits
   a rule-compliant completion (lookahead).  A refuted value is removed
   from the feasible set and the literal is resampled; after bounded
   retries the solver's own model value is emitted (forced step).

The final record is rule-compliant by construction whenever the oracle's
``confirm`` is exact (the default hybrid/SMT tiers).

The per-record logic -- including the full degradation ladder
(``smt-confirm`` > ``interval-audit`` > ``forced-model`` >
``posthoc-repair`` > ``clamped``) and the budget backoff -- lives in
:class:`repro.core.session.EnforcementSession`, a resumable state machine.
This class builds lanes and sessions; its record-level API runs one
session at a time on a one-lane :class:`~repro.core.engine.LanePool`,
the same lock-step driver the batched engine and the serving scheduler
run with many lanes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import variable_bounds
from ..data.telemetry import COARSE_FIELDS, TelemetryConfig, fine_field
from ..lm.base import LanguageModel
from ..obs import OBS, Sample
from ..rules.dsl import RuleSet
from ..rules.audit import compliance_check
from ..rules.registry import RuleSetHandle
from ..smt import BudgetMeter
from .engine import LanePool
from .feasible import (
    FeasibilityOracle,
    HybridOracle,
    IntervalOracle,
    MaskLookupStats,
    OracleCache,
    SmtOracle,
)
from .session import (
    LADDER_STAGES,
    EnforcementSession,
    EnforcementTrace,
    EnforcerConfig,
    Lane,
    RecordOutcome,
)

__all__ = [
    "EnforcerConfig",
    "EnforcementTrace",
    "JitEnforcer",
    "RecordOutcome",
    "LADDER_STAGES",
    "record_rng",
]

_ORACLES = {"hybrid": HybridOracle, "smt": SmtOracle, "interval": IntervalOracle}


def _enforcer_samples(enforcer: "JitEnforcer") -> List[Sample]:
    """Render the enforcer's trace/cache/meter state as registry samples.

    Registered as a weakly-owned collector (see
    :meth:`~repro.obs.registry.MetricsRegistry.register_collector`), so the
    counters appear in every scrape without the hot path paying for a
    second set of increments, and vanish when the enforcer is collected.
    Ladder-stage counters are emitted for every rung -- a zero is
    operator-visible evidence that a rung was never hit.
    """
    trace = enforcer.trace
    samples = [
        Sample.counter("repro_enforcer_records_total", trace.records,
                       help="Records whose enforcement was started"),
        Sample.counter("repro_enforcer_degraded_records_total",
                       trace.degraded_records,
                       help="Records produced below the top ladder stage"),
        Sample.counter("repro_enforcer_budget_exhaustions_total",
                       trace.budget_exhaustions,
                       help="SolverBudgetExceeded observed"),
        Sample.counter("repro_enforcer_budget_retries_total",
                       trace.budget_retries,
                       help="Record retries under a scaled-up budget"),
        Sample.counter("repro_enforcer_dead_ends_total", trace.dead_ends,
                       help="Dead ends hit during literal sampling"),
        Sample.counter("repro_enforcer_unknown_confirms_total",
                       trace.unknown_confirms,
                       help="Confirm queries that returned UNKNOWN"),
        Sample.counter("repro_enforcer_var_retries_total", trace.var_retries,
                       help="Refuted literals that were resampled"),
        Sample.counter("repro_enforcer_solver_forced_vars_total",
                       trace.solver_forced_vars,
                       help="Variables forced from a solver model"),
        Sample.counter("repro_enforcer_fallback_records_total",
                       trace.fallback_records,
                       help="Records generated under a fallback rule tier"),
        Sample.counter("repro_enforcer_infeasible_records_total",
                       trace.infeasible_records,
                       help="Records infeasible under every rule tier"),
        Sample.counter("repro_enforcer_phase2_records_total",
                       trace.phase2_records,
                       help="Optimistic phase failures re-run under full SMT"),
        Sample.counter("repro_enforcer_lm_calls_total", trace.lm_calls,
                       help="Model invocations (a batched call counts once)"),
    ]
    ladder_help = "Records emitted per degradation-ladder rung"
    for stage in LADDER_STAGES:
        samples.append(Sample.counter(
            "repro_enforcer_ladder_records_total",
            trace.ladder.get(stage, 0),
            labels={"stage": stage},
            help=ladder_help,
        ))
    for resource, total in enforcer.meter.snapshot().items():
        samples.append(Sample.counter(
            "repro_enforcer_solver_work_total", total,
            labels={"resource": resource},
            help="Deterministic solver work on the enforcer's own lane",
        ))
    stats = enforcer.oracle_cache.stats()
    for key in ("hits", "misses", "evictions"):
        samples.append(Sample.counter(
            f"repro_enforcer_oracle_cache_{key}_total", stats[key],
            help=f"Oracle cache {key}",
        ))
    samples.append(Sample.gauge(
        "repro_enforcer_oracle_cache_entries", stats["entries"],
        help="Oracle cache resident entries",
    ))
    # Per-partition breakdown (partition = rule-set fingerprint): makes
    # each tenant's oracle traffic attributable.
    for partition, row in stats["partitions"].items():
        labels = {"fingerprint": str(partition)}
        for key in ("hits", "misses", "evictions"):
            samples.append(Sample.counter(
                f"repro_oracle_cache_partition_{key}_total", row[key],
                labels=labels,
                help=f"Oracle cache {key} per rule-set fingerprint",
            ))
        samples.append(Sample.gauge(
            "repro_oracle_cache_partition_entries", row["entries"],
            labels=labels,
            help="Oracle cache resident entries per rule-set fingerprint",
        ))
    # LM-side cache counters, uniform across backends: the transformer
    # aggregates its KV caches, the n-gram its context-row memo -- both
    # expose lm_cache_stats() with the same hit/miss/invalidation keys.
    lm_cache_stats = getattr(enforcer.model, "lm_cache_stats", None)
    if callable(lm_cache_stats):
        stats = lm_cache_stats()
        backend = str(stats.get("backend", "unknown"))
        for key in ("hits", "misses", "invalidations"):
            samples.append(Sample.counter(
                f"repro_lm_cache_{key}_total", stats.get(key, 0),
                labels={"backend": backend},
                help=f"LM decode cache {key}",
            ))
    # Oracle-operation accounting; hits and fallbacks always read 0 (see
    # MaskLookupStats).
    mask = enforcer.mask_stats
    samples.extend([
        Sample.counter("repro_mask_lookup_hits_total", mask.hits,
                       help="Mask-store hits (always 0: no mask store)"),
        Sample.counter("repro_mask_lookup_fallbacks_total", mask.fallbacks,
                       help="Mask-store fallbacks (always 0: no mask store)"),
        Sample.counter("repro_mask_lookup_live_queries_total",
                       mask.live_queries,
                       help="Oracle queries that reached live solver "
                            "machinery"),
    ])
    return samples


def record_rng(seed: Optional[int], index: int = 0) -> np.random.Generator:
    """The private random stream record ``index`` gets under ``seed``.

    This is the determinism contract shared by every driver: the
    synchronous enforcer, the batched engine, and the serving scheduler all
    derive record streams the same way, so a record generated anywhere is
    byte-identical to the serial path given the same (seed, index).
    """
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(index,))
    )


class JitEnforcer:
    """Wraps any :class:`LanguageModel` with JIT logic enforcement.

    ``oracle_wrapper`` is the fault-injection seam: every oracle (primary,
    fallback, and degraded-stage tiers) is passed through it at
    construction, so chaos tests can interpose failures (see
    :mod:`repro.testing.faults`) without touching the enforcement logic;
    :func:`repro.testing.uncached_oracle` builds the uncached parity
    reference through the same seam.
    """

    def __init__(
        self,
        model: LanguageModel,
        rules: RuleSet,
        telemetry_config: Optional[TelemetryConfig] = None,
        config: Optional[EnforcerConfig] = None,
        fallback_rules: Sequence[RuleSet] = (),
        bounds: Optional[Mapping[str, Tuple[int, int]]] = None,
        oracle_wrapper: Optional[
            Callable[[FeasibilityOracle], FeasibilityOracle]
        ] = None,
    ):
        self.model = model
        self.rules = rules
        self.telemetry_config = telemetry_config or TelemetryConfig()
        self.config = config or EnforcerConfig()
        self.bounds = dict(bounds or variable_bounds(self.telemetry_config))
        self.fallback_rules: List[RuleSet] = list(fallback_rules)
        self._all_rules: List[RuleSet] = [rules, *fallback_rules]
        self._oracle_wrapper = oracle_wrapper or (lambda oracle: oracle)
        # The constructor rules wrapped as an unregistered handle (version
        # 0): lanes not bound to a tenant pack enforce these, and rebinds
        # compare content hashes against it.
        self.default_handle = RuleSetHandle.for_rules(rules)
        # One cache shared by every lane of every pool on this enforcer
        # (and every oracle tier within a lane): keys embed the rule set's
        # content fingerprint + the exact assignment history, so concurrent
        # sessions -- and lanes rebound across tenant packs -- safely share
        # answers within a partition while differing rule content can
        # never alias.
        self.oracle_cache = OracleCache(OracleCache.DEFAULT_ENTRIES)
        # Shared by every oracle tier of every lane: the counters describe
        # the enforcer, not a tier.
        self.mask_stats = MaskLookupStats()
        # The record-level API runs on a one-lane pool.
        self._pool = LanePool(self, 1)
        self._lane = self._pool.lanes[0]
        self.meter = self._lane.meter
        self._rng_entropy = self.config.seed
        self._record_counter = 0
        self.trace = EnforcementTrace()
        self.last_outcome: Optional[RecordOutcome] = None
        # Scrape-time metrics: weakly owned, so transient enforcers (tests,
        # benchmarks) drop out of exposition once garbage collected.  Last
        # registration wins the "repro_enforcer" collector slot -- one
        # enforcer per serving process is the deployment shape.
        OBS.registry.register_collector("enforcer", _enforcer_samples, owner=self)

    @property
    def tokenizer(self):
        return self.model.tokenizer

    # -- lane / rng factories (shared with LanePool) ---------------------------

    def _build_lane(
        self,
        handle: Optional[RuleSetHandle] = None,
        meter: Optional[BudgetMeter] = None,
    ) -> Lane:
        """A fresh oracle lane: one tier set + meter, fault-wrapped.

        Each lane is an isolated solver context: a :class:`LanePool` builds
        one per slot over the enforcer's shared oracle cache, so concurrent
        sessions never share solver state.

        ``handle`` selects the primary rule pack (defaulting to the
        constructor rules); the fallback tiers stay the enforcer's own.
        ``meter`` is passed by :meth:`bind_lane` so a rebound lane keeps
        its cumulative solver-work accounting.
        """
        wrap = self._oracle_wrapper
        oracle_cls = _ORACLES[self.config.oracle]
        if meter is None:
            meter = BudgetMeter(self.config.budget)
        handle = handle or self.default_handle
        all_rules = [handle.rules, *self.fallback_rules]
        kwargs = dict(cache=self.oracle_cache, mask_stats=self.mask_stats)
        tiers = [
            (tier_rules, wrap(oracle_cls(
                tier_rules, self.bounds, meter=meter, **kwargs)))
            for tier_rules in all_rules
        ]
        # Interval-only tiers for the "interval-audit" ladder stage: pure
        # bounds propagation, no solver, so they survive budget exhaustion.
        interval_tiers = [
            (tier_rules, wrap(IntervalOracle(
                tier_rules, self.bounds, meter=meter, **kwargs)))
            for tier_rules in all_rules
        ]
        return Lane(
            tiers=tiers,
            interval_tiers=interval_tiers,
            meter=meter,
            handle=handle,
        )

    def bind_lane(
        self, lane: Lane, handle: Optional[RuleSetHandle]
    ) -> Lane:
        """Rebind ``lane`` to ``handle``'s rules in place (hot swap).

        Lanes are sticky: when the incoming handle's content hash matches
        the lane's current binding, only the handle metadata is updated --
        no oracle churn.  On a real content change the tiers are rebuilt
        while the *same* meter keeps accumulating (cumulative solver-work
        totals must survive rebinds) and the same partitioned cache is
        reused, which is safe because every key embeds the content
        fingerprint.
        """
        target = handle or self.default_handle
        current = lane.handle or self.default_handle
        if current.content_hash == target.content_hash:
            lane.handle = target
            return lane
        rebuilt = self._build_lane(handle=target, meter=lane.meter)
        lane.tiers = rebuilt.tiers
        lane.interval_tiers = rebuilt.interval_tiers
        lane.handle = target
        return lane

    def _next_rng(self) -> np.random.Generator:
        """This record's private random stream.

        Streams are derived from the configured seed by *submission index*,
        so record i samples identically whether it runs alone or as one of
        a batch -- the batched engine's determinism-parity guarantee.
        """
        index = self._record_counter
        self._record_counter += 1
        return record_rng(self._rng_entropy, index)

    # -- record-level API ------------------------------------------------------

    def impute(
        self,
        coarse: Mapping[str, int],
        context: Optional[Mapping[str, int]] = None,
        rule_set: Optional[RuleSetHandle] = None,
    ) -> Dict[str, int]:
        """Generate the fine-grained values given coarse counters.

        ``context`` carries extra fixed variables the rules may reference
        but the record does not serialize -- e.g. ``prev_*`` variables for
        temporal cross-window rules (the Section 5 extension).
        ``rule_set`` (a resolved handle) enforces a registry pack instead
        of the constructor rules.
        """
        return self.impute_record(coarse, context, rule_set=rule_set).values

    def impute_record(
        self,
        coarse: Mapping[str, int],
        context: Optional[Mapping[str, int]] = None,
        rule_set: Optional[RuleSetHandle] = None,
    ) -> RecordOutcome:
        """Like :meth:`impute` but returns the full :class:`RecordOutcome`."""
        fixed, prompt, variables = self.impute_plan(coarse, context)
        return self._generate_record(fixed, prompt, variables, rule_set=rule_set)

    def impute_plan(
        self,
        coarse: Mapping[str, int],
        context: Optional[Mapping[str, int]] = None,
    ) -> Tuple[Dict[str, int], str, List[str]]:
        """The (fixed values, prompt text, variable order) of an imputation."""
        window = self.telemetry_config.window
        prompt = (
            " ".join(str(int(coarse[name])) for name in COARSE_FIELDS) + ">"
        )
        fine_names = [fine_field(t) for t in range(window)]
        fixed = {name: int(coarse[name]) for name in COARSE_FIELDS}
        for name, value in (context or {}).items():
            fixed[name] = int(value)
        return fixed, prompt, fine_names

    def synthesize(
        self,
        context: Optional[Mapping[str, int]] = None,
        rule_set: Optional[RuleSetHandle] = None,
    ) -> Dict[str, int]:
        """Generate a full record unconditionally (the synthesis task).

        ``context`` works as in :meth:`impute` (extra fixed variables for
        temporal rules; not part of the serialized record).
        """
        return self.synthesize_record(context, rule_set=rule_set).values

    def synthesize_record(
        self,
        context: Optional[Mapping[str, int]] = None,
        rule_set: Optional[RuleSetHandle] = None,
    ) -> RecordOutcome:
        """Like :meth:`synthesize` but returns the :class:`RecordOutcome`."""
        fixed, prompt, variables = self.synthesize_plan(context)
        return self._generate_record(fixed, prompt, variables, rule_set=rule_set)

    def synthesize_plan(
        self, context: Optional[Mapping[str, int]] = None
    ) -> Tuple[Dict[str, int], str, List[str]]:
        """The (fixed values, prompt text, variable order) of a synthesis."""
        window = self.telemetry_config.window
        names = list(COARSE_FIELDS) + [fine_field(t) for t in range(window)]
        fixed = {name: int(value) for name, value in (context or {}).items()}
        return fixed, "", names

    # -- sessions ---------------------------------------------------------------

    def open_session(
        self,
        fixed: Mapping[str, int],
        prompt_text: str,
        variables: Sequence[str],
        lane: Optional[Lane] = None,
        rng: Optional[np.random.Generator] = None,
        checkpoint: Optional[Callable[[], None]] = None,
        rule_set: Optional[RuleSetHandle] = None,
        trace: Optional[Mapping[str, object]] = None,
    ) -> EnforcementSession:
        """A resumable session for one record (the engine's entry point).

        ``rng`` overrides the enforcer's submission-indexed stream -- the
        serving scheduler passes per-request streams (see
        :func:`record_rng`) so a request's output is independent of what
        else the server happens to be running.  ``checkpoint`` is called at
        every suspension boundary; raising from it aborts just this session
        (deadline/cancellation enforcement).  ``rule_set`` is a resolved
        :class:`~repro.rules.registry.RuleSetHandle`: the lane is rebound
        to it (or back to the constructor rules when None) before the
        session opens, so mixed-tenant records can interleave on shared
        lanes.  ``trace`` is the optional distributed trace context
        (``trace_id``/``parent``/``attempt``) stamped onto the record span;
        it never reaches generation itself.
        """
        lane = lane or self._lane
        if rule_set is not None or lane.handle is not self.default_handle:
            self.bind_lane(lane, rule_set)
        return EnforcementSession(
            self,
            lane,
            fixed,
            prompt_text,
            variables,
            rng=rng if rng is not None else self._next_rng(),
            checkpoint=checkpoint,
            trace=trace,
        )

    def _generate_record(
        self,
        fixed: Mapping[str, int],
        prompt_text: str,
        variables: Sequence[str],
        rule_set: Optional[RuleSetHandle] = None,
    ) -> RecordOutcome:
        start_time = OBS.clock.now()
        try:
            session = self.open_session(
                fixed, prompt_text, variables, rule_set=rule_set
            )
            return self._pool.run(session)
        finally:
            self.trace.wall_time += OBS.clock.now() - start_time
            self.trace.solver_work = self.meter.snapshot()

    def _compliant(self, rules: RuleSet, values: Mapping[str, int]) -> bool:
        """The exact audit: every rule whose variables ``values`` all
        assigns holds.

        Rules referencing variables outside the record (e.g. ``prev_*``
        context absent on the first window of a sequence) are not binding
        on this record and cannot be evaluated against it.  The predicate
        is generated once per rule content and variable scope
        (:func:`~repro.rules.audit.compliance_check`), so lanes rebound
        across tenant packs and fresh enforcers over one pack share it.
        """
        return compliance_check(rules, values)(values)
