"""Closed offline batches: ``impute-mined`` and ``synth-tinygpt``.

Both drive ``EnforcementEngine(batch_size=8)`` -- imputation over distinct
test-window prompts with the n-gram LM and the mined imputation pack,
synthesis from the empty prefix with TinyGPT and the mined synthesis pack.

A run is a number of *passes* (proportional to ``--seconds``).  Each pass
builds a fresh system (LM, enforcer, engine; untimed) and runs the same
batch through one ``impute_many`` / ``synthesize_many`` call, so every pass
is the same work and produces the same records.  An untimed pass first
fills the process-wide memos.  ``records_per_s`` is the median over passes
of records completed per second inside the engine, and the latency
percentiles are the median over passes of each pass's percentile of
``RecordOutcome.wall_time`` (session open to outcome, lock-step waits
included).  The median keeps a burst of lost CPU time, which slows one
pass, out of the figure.  A probe window before each pass and after the
last measures the machine's speed regime, and the figures are reported in
reference seconds (see ``common.probe_window``).
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import EnforcementEngine
from repro.core.enforcer import record_rng
from repro.smt.budget import RESOURCES

from .common import (
    BATCH_SIZE,
    REFERENCE_SAMPLE,
    SETUP_BUDGET_S,
    Accounting,
    Packs,
    Setting,
    delta,
    encode_record,
    fit_ngram,
    load_tinygpt,
    log,
    mine_packs,
    new_enforcer,
    peak_rss_mb,
    percentile,
    probe_window,
    ratio,
    reference_scale,
    reset_peak_rss,
    timed_setup,
)
from .probes import TimedLM, Totals, oracle_wrapper

# Records per pass at full size.  Passes of a few seconds each: long
# enough to hold many records, short enough that a run has several.
PASS_RECORDS = {"impute": 160, "synthesize": 256}
# Fresh-system records per wall second on the reference machine in its
# slower speed regime (see common.probe_window): with
# PASS_RECORDS they set the number of passes, so that a run measures about
# --seconds.  The count is fixed per --seconds, so a faster program does not
# also get a different workload.
RECORDS_PER_SECOND = {"impute": 40, "synthesize": 80}
MIN_PASSES = 3


def pass_shape(kind: str, seconds: float) -> Tuple[int, int]:
    """(passes, records per pass) for a run of ``seconds``."""
    budget = RECORDS_PER_SECOND[kind] * seconds
    size = min(PASS_RECORDS[kind], max(BATCH_SIZE, round(budget / MIN_PASSES)))
    return max(MIN_PASSES, round(budget / size)), size


@dataclass
class OfflineSystem:
    kind: str  # "impute" | "synthesize"
    model: object  # the LM itself, never a tracing proxy
    packs: Packs
    engine: EnforcementEngine

    @property
    def enforcer(self):
        return self.engine.enforcer


def attach(setting: Setting, kind: str, packs: Packs, model, seed: int,
           totals: Optional[Totals] = None) -> OfflineSystem:
    """Enforcer + engine over an already-built model and packs."""
    rules = packs.imputation if kind == "impute" else packs.synthesis
    wrapped = model if totals is None else TimedLM(model, totals)
    enforcer = new_enforcer(
        wrapped, rules, packs, setting, seed,
        oracle_wrapper=None if totals is None else oracle_wrapper(totals),
    )
    return OfflineSystem(kind, model, packs,
                         EnforcementEngine(enforcer, batch_size=BATCH_SIZE))


def new_model(setting: Setting, kind: str):
    """A fresh LM: the n-gram fit, or TinyGPT with the cached weights."""
    return fit_ngram(setting) if kind == "impute" else load_tinygpt(setting)


def build(setting: Setting, kind: str, seed: int) -> OfflineSystem:
    """The timed set-up: mine packs, fit or load the LM, build the engine."""
    return attach(setting, kind, mine_packs(setting), new_model(setting, kind),
                  seed)


def batch_prompts(setting: Setting, seed: int, size: int) -> List[Dict[str, int]]:
    """``size`` distinct test-window prompts, drawn in seed order."""
    pool = setting.test_prompts()
    order = np.random.default_rng([seed, 0]).permutation(len(pool))
    return [pool[i] for i in order[:size].tolist()]


@dataclass
class Batch:
    outcomes: List[object]  # RecordOutcome, or the exception that replaced it
    wall: float  # seconds inside the engine call


def run_pass(system: OfflineSystem, prompts: Optional[List[Dict[str, int]]],
             size: int, probes: Optional[List[float]] = None) -> Batch:
    """One closed batch of ``size`` records, timing only the engine call.

    With ``probes``, a probe window runs first, just before the timing.
    """
    gc.collect()
    if probes is not None:
        probe_window(probes)
    started = time.perf_counter()
    if system.kind == "impute":
        outcomes = system.engine.impute_many(prompts, return_exceptions=True)
    else:
        outcomes = system.engine.synthesize_many(size, return_exceptions=True)
    return Batch(outcomes, time.perf_counter() - started)


def encoded(outcomes: List[object]) -> List[bytes]:
    return [
        f"error:{type(o).__name__}".encode()
        if isinstance(o, BaseException)
        else encode_record(o.values)
        for o in outcomes
    ]


def audit(system: OfflineSystem, batch: Batch, accounting: Accounting) -> None:
    for outcome in batch.outcomes:
        accounting.attempted += 1
        if isinstance(outcome, BaseException):
            accounting.fail(f"error:{type(outcome).__name__}")
        elif accounting.check_record(outcome.values, system.packs,
                                     system.enforcer.rules,
                                     outcome.tier_index, outcome.degraded):
            accounting.succeeded += 1


def reference_check(setting: Setting, system: OfflineSystem, seed: int,
                    prompts: Optional[List[Dict[str, int]]], batch: Batch,
                    accounting: Accounting) -> None:
    """The first records of a pass, replayed one by one on a serial enforcer.

    Each replay drives one ``EnforcementSession`` with plain
    ``next_distribution`` calls on the record's own stream
    ``record_rng(seed, index)`` -- the session's documented driving
    protocol, i.e. what ``JitEnforcer`` does for one record.
    """
    sample = min(REFERENCE_SAMPLE, len(batch.outcomes))
    serial = new_enforcer(system.model, system.enforcer.rules, system.packs,
                          setting, seed)
    want = []
    for offset in range(sample):
        if system.kind == "impute":
            plan = serial.impute_plan(prompts[offset])
        else:
            plan = serial.synthesize_plan()
        session = serial.open_session(*plan, rng=record_rng(seed, offset))
        request = session.start()
        while request is not None:
            request = session.step(system.model.next_distribution(request))
        if session.error is not None:
            want.append(f"error:{type(session.error).__name__}".encode())
        else:
            want.append(encode_record(session.outcome.values))
    accounting.compare("reference", encoded(batch.outcomes[:sample]), want)


def successes(batch: Batch) -> List[object]:
    return [o for o in batch.outcomes if not isinstance(o, BaseException)]


def counters(system: OfflineSystem) -> Dict[str, float]:
    """A fresh system's public counters; a traced run sums its passes'."""
    trace = system.enforcer.trace
    mask = system.enforcer.mask_stats
    cache = system.engine.pool.cache_stats() or {}
    # LM decode cache: the engine's KV rows (TinyGPT), else the model's
    # context-row memo (n-gram).
    lm_cache = system.engine.pool.lm_cache_stats()
    if lm_cache is None:
        lm_cache = getattr(system.model, "lm_cache_stats", lambda: {})()
    return {
        "records": trace.records,
        "phase2": trace.phase2_records,
        "retries": trace.var_retries + trace.budget_retries,
        "mask_hits": mask.hits,
        "mask_fallbacks": mask.fallbacks,
        "mask_live": mask.live_queries,
        "cache_hits": cache.get("hits", 0),
        "cache_misses": cache.get("misses", 0),
        "lm_hits": lm_cache.get("hits", 0),
        "lm_misses": lm_cache.get("misses", 0),
    }


def layer_metrics(batch: Batch, t: Dict[str, float], c: Dict[str, float],
                  untraced_wall: float,
                  accounting: Accounting) -> Dict[str, float]:
    """Per-layer split of a traced batch from timer (t) and counter (c) deltas.

    Layer times are wall time: the traced and untraced passes alternate, so
    they share the machine's drift.
    """
    records = len(batch.outcomes)
    done = successes(batch)
    engine_self = batch.wall - t["lm_s"] - t["oracle_s"]
    if engine_self < 0:
        accounting.integrity_errors.append(
            f"LM + oracle time exceeds engine wall by {-engine_self:.4f}s"
        )
    work = {r: sum(o.solver_work.get(r, 0) for o in done) for r in RESOURCES}
    return {
        "lm.busy_ms_per_record": ratio(t["lm_s"] * 1000.0, records),
        "lm.rows_per_call": ratio(t["lm_rows"], t["lm_calls"]),
        "lm.cache_hit_rate": ratio(c["lm_hits"], c["lm_hits"] + c["lm_misses"]),
        "oracle.busy_ms_per_record": ratio(t["oracle_s"] * 1000.0, records),
        "oracle.calls_per_record": ratio(t["oracle_calls"], records),
        "oracle.cache_hit_rate": ratio(
            c["cache_hits"], c["cache_hits"] + c["cache_misses"]
        ),
        "mask.live_queries_per_record": ratio(c["mask_live"], records),
        "mask.hit_rate": ratio(
            c["mask_hits"], c["mask_hits"] + c["mask_fallbacks"]
        ),
        **{f"smt.work_per_record.{r}": ratio(v, records) for r, v in work.items()},
        "session.phase2_share": ratio(c["phase2"], c["records"]),
        "session.retries_per_record": ratio(c["retries"], c["records"]),
        "engine.self_ms_per_record": ratio(engine_self * 1000.0, records),
        "record.wall_ms_p50": percentile([o.wall_time * 1000.0 for o in done], 50),
        "pool.overhead_ms_p50": 0.0,
        "pool.overhead_ms_p90": 0.0,
        "http.overhead_ms_p50": 0.0,
        "client.late_ms_p90": 0.0,
        "share.lm": ratio(t["lm_s"], batch.wall),
        "share.oracle": ratio(t["oracle_s"], batch.wall),
        "share.engine": ratio(engine_self, batch.wall),
        "share.pool": 0.0,
        "share.http": 0.0,
        "share.client": 0.0,
        "trace.overhead_pct": ratio(batch.wall - untraced_wall,
                                    untraced_wall) * 100.0,
    }


def merged(batches: Sequence[Batch]) -> Batch:
    return Batch([o for b in batches for o in b.outcomes],
                 sum(b.wall for b in batches))


def pass_metrics(batches: Sequence[Batch], scale: float) -> Dict[str, float]:
    """Median over passes of throughput and latency, in reference seconds."""
    rates, p50s, p90s = [], [], []
    for batch in batches:
        latencies = [o.wall_time * 1000.0 for o in successes(batch)]
        rates.append(ratio(len(latencies), batch.wall))
        p50s.append(percentile(latencies, 50))
        p90s.append(percentile(latencies, 90))
    log("pass records/s (wall): " + " ".join(f"{r:.2f}" for r in rates)
        + f"; scale {scale:.3f}")
    return {
        "records_per_s": statistics.median(rates) / scale,
        "latency_p50_ms": statistics.median(p50s) * scale,
        "latency_p90_ms": statistics.median(p90s) * scale,
    }


def run(setting: Setting, kind: str, seed: int, seconds: float, trace: bool,
        setup_budget_s: float = SETUP_BUDGET_S,
        tamper: Optional[Callable[[Batch], None]] = None):
    """One offline workload run; returns (accounting, metrics, samples).

    ``tamper`` lets the smoke test corrupt the first measured pass before it
    is audited, proving that corruption is counted as failed.
    """
    reset_peak_rss()
    setup_s, system = timed_setup(
        lambda: build(setting, kind, seed), close=lambda s: None,
        budget_s=setup_budget_s,
    )
    passes, size = pass_shape(kind, seconds)
    prompts = batch_prompts(setting, seed, size) if kind == "impute" else None
    packs = system.packs
    # Untimed warm-up: the same batch fills the process-wide memos.
    run_pass(system, prompts, size)
    if trace:
        # The traced side builds its own fresh systems, and the two sides
        # take turns pass by pass, so both see the same drift in the
        # machine's speed.
        totals = Totals()
        run_pass(attach(setting, kind, packs, new_model(setting, kind), seed,
                        totals), prompts, size)
        before = totals.snapshot()
        traced_counts: Dict[str, float] = {}
        traced_batches: List[Batch] = []
    batches: List[Batch] = []
    probes: List[float] = []
    for _ in range(passes):
        batches.append(run_pass(
            attach(setting, kind, packs, new_model(setting, kind), seed),
            prompts, size, probes,
        ))
        if trace:
            traced = attach(setting, kind, packs, new_model(setting, kind),
                            seed, totals)
            traced_batches.append(run_pass(traced, prompts, size))
            for key, value in counters(traced).items():
                traced_counts[key] = traced_counts.get(key, 0) + value
    probe_window(probes)
    log(f"{passes} passes of {size} records")

    accounting = Accounting()
    if tamper is not None:
        tamper(batches[0])
    for batch in batches:
        audit(system, batch, accounting)
    first = encoded(batches[0].outcomes)
    for batch in batches[1:]:
        accounting.compare("repeat", encoded(batch.outcomes), first)
    reference_check(setting, system, seed, prompts, batches[0], accounting)
    samples = {"passes": passes, "records": passes * size}
    if not trace:
        metrics = {
            **pass_metrics(batches, reference_scale(probes)),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        return accounting, metrics, samples

    for batch in traced_batches:
        audit(system, batch, accounting)
        accounting.compare("trace", encoded(batch.outcomes), first)
    untraced, traced_batch = merged(batches), merged(traced_batches)
    log(f"traced wall {traced_batch.wall:.3f}s vs untraced {untraced.wall:.3f}s")
    metrics = layer_metrics(
        traced_batch, delta(totals.snapshot(), before), traced_counts,
        untraced.wall, accounting,
    )
    return accounting, metrics, samples
