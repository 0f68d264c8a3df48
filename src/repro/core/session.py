"""Resumable per-record enforcement sessions.

:class:`EnforcementSession` is the per-record core of the JIT enforcer,
inverted into a state machine: instead of calling the language model
directly, the session *suspends* whenever it needs a next-token
distribution and resumes when one is supplied via :meth:`step`.  The full
degradation ladder -- solver-confirmed generation with budget backoff,
interval-audit, forced-model, post-hoc repair, clamping -- runs inside the
session, so a record driven one distribution at a time behaves exactly like
the legacy synchronous path (it is literally the same code, suspended).

The inversion is what makes lock-step batching possible: the engine in
:mod:`repro.core.engine` holds N sessions, gathers their pending prefixes,
makes ONE batched model call per step, and feeds each distribution back to
its session.  The synchronous enforcer drives a single session with plain
``model.next_distribution`` calls -- both drivers share this file's logic
and the same per-record rng stream, so they emit byte-identical records.

Implementation note: the suspension points thread through the ladder as a
generator-coroutine chain -- every method between :meth:`_drive` and the
token sampler is a generator delegating with ``yield from``, bottoming out
in :func:`repro.lm.sampler.sample_steps` which yields the prefix ids and
receives the distribution.  Solver work (feasibility, confirmation, fixes,
degradation stages that never sample) runs eagerly between suspensions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Generator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..data.telemetry import COARSE_FIELDS
from ..errors import DeadEnd, DegradedResult, SolverBudgetExceeded
from ..lm.sampler import DeadEndError, SampleTrace, sample_steps
from ..obs import DEFAULT_LATENCY_BUCKETS_MS, OBS, format_kv
from ..rules.dsl import RuleSet
from ..smt import SAT, UNKNOWN_STATUS, BudgetMeter, SolverBudget
from .feasible import FeasibilityOracle, InfeasibleRecordError
from .transition import SEPARATOR, DigitTransitionSystem, FeasibleSet

__all__ = [
    "EnforcerConfig",
    "EnforcementTrace",
    "EnforcementSession",
    "Lane",
    "RecordOutcome",
    "LADDER_STAGES",
]

logger = logging.getLogger(__name__)

# Process-wide memo for the literal-sampling mask hook: admissible token
# ids keyed by (feasible segments, digit cap, emitted suffix ids,
# separator id).  Mirrors DigitTransitionSystem._MEMO one level up, saving
# the per-step decode + char->id translation.  Bounded; cleared wholesale
# on overflow.
_MASK_MEMO: Dict[tuple, frozenset] = {}
_MASK_MEMO_LIMIT = 1 << 16

# Hot-path step instruments, created lazily against the current registry
# and touched only while tracing is active (OBS.active); the cache avoids
# re-taking the registry lock on every variable step.
_STEP_INSTRUMENTS = None
_FEASIBLE_SIZE_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 250, 500, 1000, 10_000)


def _step_instruments():
    global _STEP_INSTRUMENTS
    registry = OBS.registry
    if _STEP_INSTRUMENTS is None or _STEP_INSTRUMENTS[0] is not registry:
        _STEP_INSTRUMENTS = (
            registry,
            registry.histogram(
                "repro_enforcer_step_latency_ms",
                DEFAULT_LATENCY_BUCKETS_MS,
                help="Wall time of one variable's generation step",
            ),
            registry.histogram(
                "repro_enforcer_feasible_set_size",
                _FEASIBLE_SIZE_BUCKETS,
                help="Cardinality of the oracle's feasible set per step",
            ),
        )
    return _STEP_INSTRUMENTS[1], _STEP_INSTRUMENTS[2]


# The degradation ladder, most exact first.  Each record's outcome names
# the stage that produced it; only "smt-confirm" is non-degraded.
LADDER_STAGES = (
    "smt-confirm",
    "interval-audit",
    "forced-model",
    "posthoc-repair",
    "clamped",
)


class _StrictRetryExhausted(RuntimeError):
    """Internal: the optimistic phase could not place a variable."""


@dataclass
class EnforcerConfig:
    oracle: str = "hybrid"  # hybrid | smt | interval (DESIGN.md ablation)
    max_var_retries: int = 6
    temperature: float = 1.0
    max_literal_digits: int = 6
    seed: Optional[int] = None
    # Optimistic two-phase generation (hybrid tier only): phase 1 masks with
    # interval propagation alone and audits the finished record exactly;
    # only records failing the audit re-generate under per-variable SMT
    # confirmation.  Preserves the compliance guarantee at a fraction of the
    # solver cost because the fast phase almost always succeeds.
    optimistic: bool = True
    # Deterministic per-query solver work budget; None = unlimited (the
    # hard theory-round/branching backstops still apply and degrade to
    # UNKNOWN rather than raising).
    budget: Optional[SolverBudget] = None
    # On budget exhaustion the whole record is retried with the budget
    # scaled by budget_backoff**attempt, at most max_budget_retries times,
    # before stepping down the degradation ladder.
    max_budget_retries: int = 2
    budget_backoff: float = 2.0
    # Allow the posthoc-repair ladder stage (uses baselines.posthoc).
    posthoc_repair: bool = True
    # Strict mode: raise DegradedResult instead of returning a record that
    # only exists via a degraded ladder stage.
    raise_on_degraded: bool = False
    # Keep one solver per oracle across this many consecutive records
    # (reset via push/pop) instead of rebuilding per record; 0 disables
    # pooling (the legacy behavior).
    solver_pool: int = 0
    # Share feasible sets / interval states / confirm verdicts across
    # records and concurrent sessions through an OracleCache of this many
    # entries; 0 disables caching (the legacy behavior).
    oracle_cache_entries: int = 0

    def __post_init__(self) -> None:
        if self.oracle not in ("hybrid", "smt", "interval"):
            raise ValueError(f"unknown oracle tier {self.oracle!r}")


@dataclass
class RecordOutcome:
    """Provenance of one emitted record: audited-compliant or flagged.

    The pipeline invariant is that every record satisfies
    ``compliant or degraded`` -- a record is either proven rule-compliant
    by the exact audit or explicitly marked as produced by a degraded
    ladder stage (never silently wrong).
    """

    values: Dict[str, int]
    compliant: bool  # passed the exact audit of the producing tier's rules
    degraded: bool  # produced below the top ladder stage
    stage: str  # LADDER_STAGES entry that produced the record
    tier_index: int = 0  # 0 = primary rules, >0 = fallback rule tier
    budget_retries: int = 0  # record-level budget backoff retries consumed
    # -- per-record resource attribution (filled in by the session) ------------
    # These are deltas scoped to THIS record, never cumulative lifetime
    # totals: the session snapshots its lane's meter and the clock at open
    # and subtracts at close, so outcome N is isolated from outcomes 0..N-1
    # even when the enforcer, lane, and meter are reused across records.
    wall_time: float = 0.0  # seconds from session open to outcome
    lm_steps: int = 0  # distributions this record consumed
    solver_work: Dict[str, int] = field(default_factory=dict)  # meter delta


@dataclass
class EnforcementTrace:
    """Aggregated guidance statistics (the minimal-invasiveness evidence)."""

    records: int = 0
    sample: SampleTrace = field(default_factory=SampleTrace)
    var_retries: int = 0
    solver_forced_vars: int = 0
    fallback_records: int = 0  # records generated under a fallback rule tier
    infeasible_records: int = 0  # records infeasible under every tier
    phase2_records: int = 0  # optimistic phase failed; re-ran with full SMT
    wall_time: float = 0.0
    # -- robustness / degradation counters ------------------------------------
    degraded_records: int = 0  # records produced below the top ladder stage
    ladder: Dict[str, int] = field(default_factory=dict)  # stage -> records
    budget_exhaustions: int = 0  # SolverBudgetExceeded observed
    budget_retries: int = 0  # record retries with a scaled-up budget
    dead_ends: int = 0  # DeadEnd raised during literal sampling
    unknown_confirms: int = 0  # confirm() came back UNKNOWN
    solver_work: Dict[str, int] = field(default_factory=dict)  # meter totals
    lm_calls: int = 0  # model invocations (a batched call counts once)

    def guidance_rate(self) -> float:
        """Fraction of steps where masking actually pruned model mass."""
        if self.sample.steps == 0:
            return 0.0
        return self.sample.masked_steps / self.sample.steps

    def diversion_rate(self) -> float:
        if self.sample.steps == 0:
            return 0.0
        return self.sample.diverted_steps / self.sample.steps

    def count_stage(self, stage: str) -> None:
        self.ladder[stage] = self.ladder.get(stage, 0) + 1

    def comparable_counters(self) -> Dict[str, object]:
        """The deterministic counters (everything except timing and the
        solver's internal work totals, which legitimately vary with solver
        pooling and batching)."""
        return {
            "records": self.records,
            "sample": (
                self.sample.steps,
                self.sample.masked_steps,
                self.sample.diverted_steps,
                self.sample.forced_steps,
                round(self.sample.pruned_probability, 9),
            ),
            "var_retries": self.var_retries,
            "solver_forced_vars": self.solver_forced_vars,
            "fallback_records": self.fallback_records,
            "infeasible_records": self.infeasible_records,
            "phase2_records": self.phase2_records,
            "degraded_records": self.degraded_records,
            "ladder": dict(self.ladder),
            "budget_exhaustions": self.budget_exhaustions,
            "budget_retries": self.budget_retries,
            "dead_ends": self.dead_ends,
            "unknown_confirms": self.unknown_confirms,
        }

    def degradation_summary(self) -> str:
        """One operator-facing line of ``key=value`` pairs.

        The format is deliberately machine-parseable (single line, no
        brackets, ``key=value`` tokens separated by single spaces) so the
        serving load harness and log scrapers can consume it with a split.
        """
        pairs = [
            ("records", self.records),
            ("degraded", self.degraded_records),
        ]
        for stage, count in sorted(self.ladder.items()):
            pairs.append((f"stage.{stage}", count))
        pairs.extend(
            [
                ("budget_exhausted", self.budget_exhaustions),
                ("budget_retries", self.budget_retries),
                ("dead_ends", self.dead_ends),
                ("unknown_confirms", self.unknown_confirms),
            ]
        )
        for name, value in self.solver_work.items():
            if value:
                pairs.append((f"solver.{name}", value))
        return format_kv(pairs)


@dataclass
class Lane:
    """One slot's worth of oracle state: tier list + interval tiers + meter.

    A :class:`~repro.core.engine.LanePool` builds one per slot -- a single
    lane for the serial enforcer, one per concurrent slot for the batched
    drivers -- so sessions never share solver state or budget meters (a
    stuck record in one lane cannot starve its batch-mates).

    A lane is also the rule-set binding point: ``handle`` names the
    resolved :class:`~repro.rules.registry.RuleSetHandle` whose rules the
    tier oracles were built from.  ``JitEnforcer.bind_lane`` rebinds a
    lane in place when a record resolved a different pack -- rebuilding
    the tiers but *keeping the meter* (cumulative solver-work accounting
    survives rebinds) and the shared cache (whose content-hash partitions
    make cross-pack reuse safe by construction).  ``cache``/``pool_reuse``
    remember the build parameters so a rebind reproduces them.
    """

    tiers: List[Tuple[RuleSet, FeasibilityOracle]]
    interval_tiers: List[Tuple[RuleSet, FeasibilityOracle]]
    meter: BudgetMeter
    handle: Optional[object] = None  # RuleSetHandle (untyped: no core dep)
    cache: Optional[object] = None  # OracleCache used to build the tiers
    pool_reuse: Optional[int] = None

    def reset(self) -> None:
        """Quarantine-reset after a session died mid-record on this lane.

        Every oracle tier discards its per-record state (pooled solver
        frames, refold snapshots, and the shared-cache ``istate``/``dom``
        entries stored under the dying record's state key), so the next
        admitted record rebuilds from the rules instead of adopting state a
        poisoned session left behind.  ``LanePool.retire`` pairs this with
        dropping the lane's KV-cache row -- both halves of "a crashed record
        leaks nothing into its lane's next tenant".
        """
        for tier_list in (self.tiers, self.interval_tiers):
            for _, oracle in tier_list:
                discard = getattr(oracle, "discard_record_state", None)
                if discard is not None:
                    discard()


# What ``start()``/``step()`` return: the prefix ids awaiting a distribution.
Request = Optional[List[int]]


class EnforcementSession:
    """One record's enforcement, resumable one distribution at a time.

    ``owner`` is the :class:`~repro.core.enforcer.JitEnforcer` (duck-typed:
    the session reads its config, bounds, trace, tokenizer, and audit
    helper).  ``lane`` carries the oracle tiers and budget meter this
    session may mutate.  ``rng`` is this record's private random stream --
    derived per-record so scheduling order cannot perturb sampling.

    Driving protocol (every driver runs it through
    :meth:`~repro.core.engine.LanePool.step`): ``start()`` and then
    ``step(distribution)`` return the prefix ids the session needs a
    distribution for, until None; ``result()`` returns the outcome or
    raises.  A session never lets an exception escape ``start``/``step``:
    failures are captured in ``error`` (and re-raised by ``result``), which
    is what keeps a faulty record from aborting its batch-mates.
    """

    def __init__(
        self,
        owner,
        lane: Lane,
        fixed: Mapping[str, int],
        prompt_text: str,
        variables: Sequence[str],
        rng: np.random.Generator,
        checkpoint: Optional[Callable[[], None]] = None,
        trace: Optional[Mapping[str, object]] = None,
    ):
        self._owner = owner
        self._lane = lane
        # Lifecycle checkpoint: called at every suspension boundary (before
        # each resume).  The serving scheduler uses it to abort a session
        # whose request was cancelled or blew its deadline -- the raised
        # exception is captured like any other per-session failure, so
        # batch-mates are untouched and the lane is immediately reusable.
        self._checkpoint = checkpoint
        self._config: EnforcerConfig = owner.config
        self._bounds: Dict[str, Tuple[int, int]] = owner.bounds
        self._trace: EnforcementTrace = owner.trace
        self._tokenizer = owner.model.tokenizer
        self._fixed = dict(fixed)
        self._prompt_text = prompt_text
        self._variables = list(variables)
        self._rng = rng
        self.emitted_ids: List[int] = []  # every token emitted, in order
        self.outcome: Optional[RecordOutcome] = None
        self.error: Optional[BaseException] = None
        self._trace.records += 1
        # Per-record resource attribution: snapshot the lane meter and the
        # clock now, subtract at close (see RecordOutcome.solver_work).
        self._opened_at = OBS.clock.now()
        self._meter_start = lane.meter.snapshot()
        self._lm_steps = 0
        # The record span parents every child span this session emits.  It
        # is None whenever tracing is inactive (the common case).
        span_attrs: Dict[str, object] = {"variables": len(self._variables)}
        handle = getattr(lane, "handle", None)
        if handle is not None:
            span_attrs["tenant"] = handle.name
            span_attrs["rule_set"] = handle.ref
            span_attrs["fingerprint"] = handle.content_hash
        # Distributed trace context (see repro.obs.merge): the record span
        # carries the request's correlation id so a worker-side trace can
        # be re-parented under the router's request span after the fact;
        # in-process drivers pass a live ``parent`` span id instead.  A
        # crash-replayed unit keeps its trace_id and self-identifies via
        # ``replay_of``/``attempt``.
        span_parent: Optional[int] = None
        if trace is not None:
            trace_id = trace.get("trace_id")
            if trace_id is not None:
                span_attrs["trace_id"] = trace_id
            span_parent = trace.get("parent")  # type: ignore[assignment]
            attempt = int(trace.get("attempt") or 0)  # type: ignore[arg-type]
            if attempt > 0:
                span_attrs["attempt"] = attempt
                if trace_id is not None:
                    span_attrs["replay_of"] = trace_id
        self.span: Optional[int] = OBS.start_span(
            "record", parent=span_parent, attrs=span_attrs
        )
        self._step_span: Optional[int] = None
        self._gen: Generator[List[int], np.ndarray, RecordOutcome] = self._drive()

    # -- driver-facing surface -------------------------------------------------

    @property
    def done(self) -> bool:
        return self.outcome is not None or self.error is not None

    def start(self) -> Request:
        """Run until the first distribution is needed (or completion)."""
        return self._advance(lambda: next(self._gen))

    def step(self, distribution: np.ndarray) -> Request:
        """Feed one next-token distribution; run until the next need."""
        self._lm_steps += 1
        return self._advance(lambda: self._gen.send(distribution))

    def result(self) -> RecordOutcome:
        if self.error is not None:
            raise self.error
        if self.outcome is None:
            raise RuntimeError("session has not finished")
        return self.outcome

    def _advance(self, resume: Callable[[], List[int]]) -> Request:
        # While the generator runs, child spans (step, smt_confirm, ...)
        # nest under this record even though many sessions interleave on
        # one thread -- the parent stack is pushed per-resume, per-session.
        tracing = self.span is not None and OBS.active
        if tracing:
            OBS._push_parent(self.span)
        try:
            if self._checkpoint is not None:
                self._checkpoint()
            return resume()
        except StopIteration as stop:
            self._finish(stop.value)
        except BaseException as exc:  # noqa: BLE001 -- isolated per session
            self._lane.meter.set_budget(self._config.budget)
            self.error = exc
            self._close_record_span({"error": type(exc).__name__})
        finally:
            if tracing:
                OBS._pop_parent()
        return None

    def _record_usage(self) -> Tuple[float, Dict[str, int]]:
        """This record's (wall seconds, solver-work delta) since open."""
        wall = OBS.clock.now() - self._opened_at
        start = self._meter_start
        delta = {
            name: total - start.get(name, 0)
            for name, total in self._lane.meter.snapshot().items()
            if total - start.get(name, 0)
        }
        return wall, delta

    def _close_record_span(self, attrs: Optional[Dict] = None) -> None:
        if self.span is not None:
            OBS.end_span(self.span, attrs)
            self.span = None

    def _finish(self, outcome: RecordOutcome) -> None:
        # Restore the configured budget for the lane's next record.
        self._lane.meter.set_budget(self._config.budget)
        outcome.wall_time, outcome.solver_work = self._record_usage()
        outcome.lm_steps = self._lm_steps
        self._close_record_span(
            {
                "stage": outcome.stage,
                "compliant": outcome.compliant,
                "degraded": outcome.degraded,
                "lm_steps": outcome.lm_steps,
            }
        )
        self._trace.count_stage(outcome.stage)
        if outcome.degraded:
            self._trace.degraded_records += 1
        if outcome.tier_index > 0:
            self._trace.fallback_records += 1
        self._owner.last_outcome = outcome
        if outcome.degraded and self._config.raise_on_degraded:
            self.error = DegradedResult(
                f"record produced via degraded stage {outcome.stage!r}",
                outcome=outcome,
            )
            return
        self.outcome = outcome

    # -- ladder orchestration (generator chain) --------------------------------

    def _drive(self) -> Generator[List[int], np.ndarray, RecordOutcome]:
        """Full-confirmation generation with budget backoff, then degrade."""
        retries_used = 0
        meter = self._lane.meter
        for attempt in range(self._config.max_budget_retries + 1):
            if self._config.budget is not None and attempt > 0:
                meter.set_budget(
                    self._config.budget.scaled(
                        self._config.budget_backoff ** attempt
                    )
                )
            try:
                values, tier_index = yield from self._generate_confirmed()
            except SolverBudgetExceeded as exc:
                self._trace.budget_exhaustions += 1
                logger.debug(
                    "budget exhausted on attempt %d (%s); %s",
                    attempt,
                    exc,
                    "retrying with backoff"
                    if attempt < self._config.max_budget_retries
                    else "stepping down the ladder",
                )
                if attempt < self._config.max_budget_retries:
                    self._trace.budget_retries += 1
                    retries_used += 1
                    continue
                break
            return RecordOutcome(
                values,
                compliant=True,
                degraded=False,
                stage="smt-confirm",
                tier_index=tier_index,
                budget_retries=retries_used,
            )
        return (yield from self._degrade(retries_used))

    def _degrade(
        self, retries_used: int
    ) -> Generator[List[int], np.ndarray, RecordOutcome]:
        """Step down the ladder after the confirmed path gave up."""
        # Later stages still touch the solver (forced model, repair); give
        # them one further backoff step beyond the retried budgets.
        if self._config.budget is not None:
            self._lane.meter.set_budget(
                self._config.budget.scaled(
                    self._config.budget_backoff
                    ** (self._config.max_budget_retries + 1)
                )
            )
        candidate: Optional[Dict[str, int]] = None
        candidate_tier = 0

        # Stage: interval-only masking + exact audit (no solver involved in
        # masking; the audit is plain rule evaluation).
        for tier_index, (tier_rules, oracle) in enumerate(
            self._lane.interval_tiers
        ):
            try:
                oracle.begin_record(self._fixed)
                values = yield from self._run_generation(oracle, strict=False)
            except (InfeasibleRecordError, SolverBudgetExceeded, DeadEnd):
                continue
            if candidate is None:
                candidate, candidate_tier = values, tier_index
            if self._owner._auditable(tier_rules, values).compliant(values):
                logger.debug("degraded to interval-audit (tier %d)", tier_index)
                return RecordOutcome(
                    values,
                    compliant=True,
                    degraded=True,
                    stage="interval-audit",
                    tier_index=tier_index,
                    budget_retries=retries_used,
                )

        # Stage: solver-model forced values (no sampling; the solver's own
        # model completes the record, exact by construction when it checks).
        for tier_index, (tier_rules, oracle) in enumerate(self._lane.tiers):
            any_model = getattr(oracle, "any_model", None)
            if any_model is None:
                continue
            try:
                oracle.begin_record(self._fixed)
                model = any_model()
            except (InfeasibleRecordError, SolverBudgetExceeded):
                continue
            values = dict(self._fixed)
            for name in self._variables:
                values[name] = int(model.get(name, self._bounds[name][0]))
            self._trace.solver_forced_vars += len(self._variables)
            if self._owner._auditable(tier_rules, values).compliant(values):
                logger.debug("degraded to forced-model (tier %d)", tier_index)
                return RecordOutcome(
                    values,
                    compliant=True,
                    degraded=True,
                    stage="forced-model",
                    tier_index=tier_index,
                    budget_retries=retries_used,
                )
            if candidate is None:
                candidate, candidate_tier = values, tier_index

        # Stage: post-hoc repair of the best-effort candidate.
        if self._config.posthoc_repair:
            with OBS.profile("repair", parent=self.span):
                outcome = self._posthoc_stage(candidate, retries_used)
            if outcome is not None:
                return outcome

        # Last resort: clamp the candidate (or domain minima) into bounds.
        # Audit against the lane's *bound* primary rules, not the owner's
        # constructor rules: under per-record rule sets they differ, and a
        # tenant's clamped record must be judged by its own pack.
        values = self._clamped_values(candidate)
        primary_rules = (
            self._lane.tiers[0][0] if self._lane.tiers else self._owner.rules
        )
        compliant = self._owner._auditable(
            primary_rules, values
        ).compliant(values)
        logger.warning(
            "record degraded to clamped values (compliant=%s)", compliant
        )
        return RecordOutcome(
            values,
            compliant=compliant,
            degraded=True,
            stage="clamped",
            tier_index=candidate_tier,
            budget_retries=retries_used,
        )

    def _posthoc_stage(
        self,
        candidate: Optional[Dict[str, int]],
        retries_used: int,
    ) -> Optional[RecordOutcome]:
        # Imported lazily: repro.baselines pulls in core.pipeline at package
        # import time, which would cycle at module load.
        from ..baselines.posthoc import PosthocRepairer, RepairError

        base = self._clamped_values(candidate)
        full = dict(base)
        for name, (low, high) in self._bounds.items():
            full.setdefault(name, min(max(0, low), high))
        frozen = [name for name in self._fixed if name in self._bounds]
        for tier_index, (tier_rules, _) in enumerate(self._lane.tiers):
            repairer = PosthocRepairer(
                tier_rules,
                self._owner.telemetry_config,
                mode="nearest",
                bounds=self._bounds,
                meter=self._lane.meter,
            )
            try:
                repaired = repairer.repair(full, frozen=frozen)
            except (RepairError, SolverBudgetExceeded, ValueError):
                continue
            values = dict(self._fixed)
            for name in self._variables:
                values[name] = int(repaired.get(name, full[name]))
            if self._owner._auditable(tier_rules, values).compliant(values):
                logger.debug("degraded to posthoc-repair (tier %d)", tier_index)
                return RecordOutcome(
                    values,
                    compliant=True,
                    degraded=True,
                    stage="posthoc-repair",
                    tier_index=tier_index,
                    budget_retries=retries_used,
                )
        return None

    def _clamped_values(
        self, candidate: Optional[Dict[str, int]]
    ) -> Dict[str, int]:
        values = dict(self._fixed)
        for name in self._variables:
            low, high = self._bounds[name]
            raw = (candidate or {}).get(name, min(max(0, low), high))
            values[name] = min(max(int(raw), low), high)
        return values

    # -- generation engine -----------------------------------------------------

    def _generate_confirmed(
        self,
    ) -> Generator[List[int], np.ndarray, Tuple[Dict[str, int], int]]:
        """The top ladder stage: fully solver-confirmed generation."""
        if self._config.optimistic and self._config.oracle == "hybrid":
            optimistic = yield from self._try_optimistic()
            if optimistic is not None:
                return optimistic
            self._trace.phase2_records += 1
        oracle, _, tier_index = self._begin_with_fallback()
        values = yield from self._run_generation(oracle, strict=False)
        return values, tier_index

    def _try_optimistic(
        self,
    ) -> Generator[List[int], np.ndarray, Optional[Tuple[Dict[str, int], int]]]:
        """Phase 1: interval-only masking, exact audit at the end."""
        for tier_index, (rules, oracle) in enumerate(self._lane.tiers):
            interval_oracle = oracle.interval  # type: ignore[attr-defined]
            try:
                interval_oracle.begin_record(self._fixed)
                values = yield from self._run_generation(
                    interval_oracle, strict=True
                )
            except InfeasibleRecordError:
                continue  # truly infeasible prefix: try the next rule tier
            except _StrictRetryExhausted:
                return None  # maybe interval incompleteness: go to SMT phase
            if self._owner._auditable(rules, values).compliant(values):
                return values, tier_index
            return None  # audit failed: fall through to the SMT phase
        return None

    def _begin_with_fallback(self) -> Tuple[FeasibilityOracle, RuleSet, int]:
        for tier_index, (rules, oracle) in enumerate(self._lane.tiers):
            try:
                oracle.begin_record(self._fixed)
            except InfeasibleRecordError:
                continue
            return oracle, rules, tier_index
        self._trace.infeasible_records += 1
        raise InfeasibleRecordError(
            f"every rule tier is infeasible for fixed values {self._fixed}"
        )

    def _separator_char(self, variable: str, all_names: Sequence[str]) -> str:
        index = all_names.index(variable)
        if index == len(all_names) - 1:
            return "\n"
        if variable == COARSE_FIELDS[-1]:
            return ">"
        return " "

    def _run_generation(
        self,
        oracle: FeasibilityOracle,
        strict: bool,
    ) -> Generator[List[int], np.ndarray, Dict[str, int]]:
        ids = self._tokenizer.encode(self._prompt_text)
        values: Dict[str, int] = dict(self._fixed)
        all_names = list(self._fixed) + list(self._variables)
        for name in self._variables:
            value, new_ids = yield from self._generate_variable(
                oracle, name, ids, self._separator_char(name, all_names), strict
            )
            values[name] = value
            ids = new_ids
        return values

    def _generate_variable(
        self,
        oracle: FeasibilityOracle,
        name: str,
        ids: List[int],
        separator_char: str,
        strict: bool = False,
    ) -> Generator[List[int], np.ndarray, Tuple[int, List[int]]]:
        if OBS.active:
            return (
                yield from self._generate_variable_traced(
                    oracle, name, ids, separator_char, strict
                )
            )
        return (
            yield from self._generate_variable_inner(
                oracle, name, ids, separator_char, strict
            )
        )

    def _generate_variable_traced(
        self,
        oracle: FeasibilityOracle,
        name: str,
        ids: List[int],
        separator_char: str,
        strict: bool,
    ) -> Generator[List[int], np.ndarray, Tuple[int, List[int]]]:
        """Span-wrapped variable generation (tracing-active path only).

        The step span is opened and closed with explicit calls rather than
        a ``with`` block because the body suspends (``yield from``); its
        duration therefore includes time spent waiting for distributions,
        which in batched drivers covers batch-mates' work too -- per-step
        *compute* attribution comes from the child spans instead.
        """
        step_latency, _ = _step_instruments()
        span = OBS.start_span("step", parent=self.span, attrs={"variable": name})
        started = OBS.clock.now()
        self._step_span = span
        try:
            result = yield from self._generate_variable_inner(
                oracle, name, ids, separator_char, strict
            )
        except BaseException as exc:
            OBS.end_span(span, {"error": type(exc).__name__})
            step_latency.observe((OBS.clock.now() - started) * 1000.0)
            raise
        finally:
            self._step_span = None
        OBS.end_span(span, {"value": result[0]})
        step_latency.observe((OBS.clock.now() - started) * 1000.0)
        return result

    def _generate_variable_inner(
        self,
        oracle: FeasibilityOracle,
        name: str,
        ids: List[int],
        separator_char: str,
        strict: bool,
    ) -> Generator[List[int], np.ndarray, Tuple[int, List[int]]]:
        tokenizer = self._tokenizer
        separator_id = tokenizer.id_of(separator_char)
        feasible = self._feasible_set_observed(oracle, name)
        for _ in range(self._config.max_var_retries):
            if feasible.is_empty():
                break
            system = DigitTransitionSystem(
                feasible, max_digits=min(self._config.max_literal_digits,
                                         len(str(feasible.max_value))),
            )
            attempt = yield from self._sample_literal(
                system, ids, separator_id, name
            )
            if attempt is None:
                break  # model had no admissible path; go force a value
            value, new_ids = attempt
            status = self._confirm_observed(oracle, name, value)
            if status == SAT:
                oracle.fix(name, value)
                return value, new_ids
            if status == UNKNOWN_STATUS:
                # Budget ran out mid-confirm (or a fault injector said so):
                # the value is *not* refuted, but without confirmation we
                # cannot emit it.  Drop it and keep sampling -- if the
                # solver stays exhausted, the forced step below escalates
                # via SolverBudgetExceeded to the record-level ladder.
                self._trace.unknown_confirms += 1
            self._trace.var_retries += 1
            feasible = feasible.remove(value)
        if strict:
            # Optimistic phase: never force -- bail out to the SMT phase.
            raise _StrictRetryExhausted(name)
        # Forced fallback: pin the canonical feasible minimum, confirmed
        # like any sampled value so the stage's guarantee (every emitted
        # value solver-checked) survives the forcing.
        value = self._forced_value(oracle, name, feasible)
        if self._confirm_observed(oracle, name, value) != SAT:
            # An exact oracle's feasible minimum is attained, hence always
            # confirmable -- a refusal here means budget widening corrupted
            # the interval (or the set was empty and we fell back to the
            # domain floor).  Escalate as exhaustion: the record-level
            # ladder retries with backoff, then degrades.
            raise SolverBudgetExceeded(
                f"forced value for {name} not confirmable",
                resource="forced-confirm",
            )
        oracle.fix(name, value)
        self._trace.solver_forced_vars += 1
        literal_ids = [tokenizer.id_of(c) for c in str(value)] + [separator_id]
        return value, ids + literal_ids

    # -- observed oracle queries (span + histogram when tracing is active) -----

    def _feasible_set_observed(
        self, oracle: FeasibilityOracle, name: str
    ) -> FeasibleSet:
        if not OBS.active:
            return oracle.feasible_set(name)
        _, size_hist = _step_instruments()
        with OBS.profile(
            "feasible_digits", parent=self._step_span or self.span, variable=name
        ) as ctx:
            feasible = oracle.feasible_set(name)
            size = feasible.count()
            ctx.annotate(size=size)
        size_hist.observe(size)
        return feasible

    def _confirm_observed(
        self, oracle: FeasibilityOracle, name: str, value: int
    ) -> str:
        if not OBS.active:
            return oracle.confirm_status(name, value)
        with OBS.profile(
            "smt_confirm",
            parent=self._step_span or self.span,
            variable=name,
            value=value,
        ) as ctx:
            status = oracle.confirm_status(name, value)
            ctx.annotate(status=status)
        return status

    def _sample_literal(
        self,
        system: DigitTransitionSystem,
        ids: List[int],
        separator_id: int,
        variable: str,
    ) -> Generator[List[int], np.ndarray, Optional[Tuple[int, List[int]]]]:
        """Sample one literal under transition-system masking."""
        tokenizer = self._tokenizer
        base_len = len(ids)

        def mask_hook(prefix_ids: Sequence[int]):
            # Memoized end-to-end: the admissible id set is a pure function
            # of (feasible segments, digit cap, emitted suffix, separator),
            # so repeats across steps/records skip the decode and the
            # per-char id translation entirely.  (The char->id map itself
            # is fixed: CharTokenizer has one static vocabulary.)
            suffix = tuple(prefix_ids[base_len:])
            key = (
                system.feasible.segments,
                system.max_digits,
                suffix,
                separator_id,
            )
            cached = _MASK_MEMO.get(key)
            if cached is not None:
                return cached
            allowed_chars = system.allowed_next(tokenizer.decode(suffix))
            allowed_ids = set()
            for char in allowed_chars:
                if char == SEPARATOR:
                    allowed_ids.add(separator_id)
                else:
                    allowed_ids.add(tokenizer.id_of(char))
            result = frozenset(allowed_ids)
            if len(_MASK_MEMO) >= _MASK_MEMO_LIMIT:
                _MASK_MEMO.clear()
            _MASK_MEMO[key] = result
            return result

        try:
            generated = yield from sample_steps(
                tokenizer,
                ids,
                stop_id=separator_id,
                max_new_tokens=system.max_digits + 1,
                mask_hook=mask_hook,
                temperature=self._config.temperature,
                rng=self._rng,
                trace=self._trace.sample,
                on_token=self.emitted_ids.append,
            )
        except DeadEndError as exc:
            self._trace.dead_ends += 1
            logger.debug(
                "dead end while sampling: %s", exc.with_context(variable=variable)
            )
            return None
        if not generated or generated[-1] != separator_id:
            return None  # ran out of budget without closing the literal
        literal = tokenizer.decode(generated[:-1])
        if not literal:
            return None
        return int(literal), ids + generated

    def _forced_value(
        self,
        oracle: FeasibilityOracle,
        name: str,
        feasible: FeasibleSet,
    ) -> int:
        # Canonical choice: the minimum of the remaining feasible set.  An
        # exact oracle's interval minimum is *attained* by some model, so
        # it can never have been refuted out of ``feasible`` and fixing it
        # keeps the record satisfiable.  Unlike a solver model -- whose
        # value depends on clause-database history, e.g. the lemmas a
        # pooled solver retains from earlier records -- it is a pure
        # function of verdicts, so identical on pooled and fresh lanes.
        # Forced values land in emitted bytes; they must not see solver
        # search state.
        if not feasible.is_empty():
            return feasible.min_value
        low, _ = self._bounds[name]
        return low
