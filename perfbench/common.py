"""Setting, timed set-up, correctness checks and reporting for every workload.

The *setting* is the configuration of ``repro.bench.common.get_context`` at
its default seed: 16 train racks x 120 windows, the mined
imputation pack (428 rules) and mined synthesis pack (65 rules) with the
zoom2net manual and domain-bound fallback tiers.  It is fixed, so every run
enforces the same packs; the workload seed (``--seed``) only drives the
inputs: prompt order, per-record and per-request seeds, arrival schedule.

Set-up (``setup_s``) is what an operator pays before the first request:
mining both packs, fitting or loading the LM, building the enforcer and its
driver (and, when serving, the worker pool and the HTTP listener).  Dataset
generation and TinyGPT training are benchmark input and stay outside it.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import re
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.enforcer import EnforcerConfig, JitEnforcer
from repro.data import COARSE_FIELDS, build_dataset, fine_field
from repro.data.dataset import variable_bounds
from repro.lm import NgramLM, TrainConfig, train_lm
from repro.lm.model import TransformerConfig, TransformerLM
from repro.rules import (
    MinerOptions,
    RuleSet,
    domain_bound_rules,
    mine_rules,
    zoom2net_manual_rules,
)
from repro.smt.budget import RESOURCES

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".perfbench_cache"

SETTING_SEED = 1  # get_context's default
TRAIN_RACKS = 16
# get_context has 4 test racks; 6 more from the same fleet (the train racks,
# hence the mined packs, are unchanged) give 1200 distinct prompts, the pool
# each seed draws its imputation batch from.
TEST_RACKS = 10
WINDOWS_PER_RACK = 120
NGRAM_ORDER = 6
TINYGPT_STEPS = 150
BATCH_SIZE = 8
# Set-up is sub-second, so one timing is mostly scheduler noise: every run
# sets up at least SETUP_MIN_REPS times, and more until SETUP_BUDGET_S of
# set-up has been timed, and reports the median.  A fixed count left the
# ~35 ms TinyGPT set-up (5 reps, 0.2 s timed) spreading 0.34 over seeds;
# the reference machine also runs up to 1.7x faster for a second or two at
# a time, so the reps span several seconds.
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 200
SETUP_BUDGET_S = 4.0
# Records per workload compared byte for byte with the serial JitEnforcer.
REFERENCE_SAMPLE = 16

E2E_METRICS: Dict[str, str] = {
    "records_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Shares split the measured time (offline: engine wall; serving: mean
# client latency) into named parts that add up to 1 by construction.
SHARES = ("lm", "oracle", "engine", "pool", "http", "client")

LAYER_METRICS: Dict[str, str] = {
    "lm.busy_ms_per_record": "ms",
    "lm.rows_per_call": "rows",
    "lm.cache_hit_rate": "ratio",
    "oracle.busy_ms_per_record": "ms",
    "oracle.calls_per_record": "count",
    "oracle.cache_hit_rate": "ratio",
    "mask.live_queries_per_record": "count",
    "mask.hit_rate": "ratio",
    **{f"smt.work_per_record.{r}": "count" for r in RESOURCES},
    "session.phase2_share": "ratio",
    "session.retries_per_record": "count",
    "engine.self_ms_per_record": "ms",
    "record.wall_ms_p50": "ms",
    "pool.overhead_ms_p50": "ms",
    "pool.overhead_ms_p90": "ms",
    "http.overhead_ms_p50": "ms",
    "client.late_ms_p90": "ms",
    **{f"share.{part}": "ratio" for part in SHARES},
    "trace.overhead_pct": "%",
}


# -- machine speed --------------------------------------------------------------
#
# The reference machine's vCPUs run in two speed regimes and flip between
# them, at times every few hundred milliseconds, at times staying in one for
# minutes.  The probe loop below takes either about 0.16 ms or about
# 0.28 ms, and the imputation batch ran 75-80 records/s through one
# minute-long stretch and 43-50 through the next.  No median inside a run
# removes a stretch longer than the run.  So the CPU-bound phases of a run
# (the offline passes, the set-ups) are bracketed by probe windows, which
# time a short fixed loop back to back, and the phase's timings are
# reported in *reference seconds*: scaled by PROBE_REFERENCE_S over the mean
# probe time, i.e. the time the same work takes on a CPU that runs the
# probe in PROBE_REFERENCE_S.  The mean over some thousands of probes
# estimates the share of time spent in each regime.  The probe is the
# benchmark's own code and runs between the program's phases, never inside
# them (inside a TinyGPT pass it read 1.6x slower: the program's own effect
# on the CPU), so a change to the program moves the scaled figure exactly
# as much as the raw one.

PROBE_DEPTH = 16
PROBE_WINDOW_S = 0.25
PROBE_REFERENCE_S = 0.00016  # the probe on the reference machine, fast regime


def _probe_work(depth: int = PROBE_DEPTH) -> int:
    """Calls and small-int arithmetic only: no allocation, no collection."""
    if depth < 2:
        return depth
    return (_probe_work(depth - 1) + _probe_work(depth - 2)) & 0xFFFF


def probe_window(samples: List[float]) -> None:
    """Time the probe back to back for ``PROBE_WINDOW_S``, into ``samples``."""
    end = time.perf_counter() + PROBE_WINDOW_S
    while True:
        started = time.perf_counter()
        if started >= end:
            return
        _probe_work()
        samples.append(time.perf_counter() - started)


def reference_scale(samples: Sequence[float]) -> float:
    """Factor from wall seconds to reference seconds."""
    return PROBE_REFERENCE_S / statistics.fmean(samples)


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]; 0.0 when empty."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def delta(after: Mapping[str, float],
          before: Mapping[str, float]) -> Dict[str, float]:
    """Per-key growth of a counter snapshot over one phase."""
    return {key: after[key] - before[key] for key in after}


# -- the fixed setting ----------------------------------------------------------


@dataclass
class Setting:
    """Benchmark input built before any timing starts."""

    dataset: object
    train_assignments: List[Dict[str, int]]
    tinygpt: Optional[Tuple[object, Dict[str, np.ndarray]]] = None

    @property
    def config(self):
        return self.dataset.config

    def test_prompts(self) -> List[Dict[str, int]]:
        return [w.coarse() for w in self.dataset.test_windows()]

    def train_prompts(self) -> List[Dict[str, int]]:
        return [w.coarse() for w in self.dataset.train_windows()]


def _train_tinygpt(texts: List[str], steps: int, conn) -> None:
    model, _ = train_lm(texts, train_config=TrainConfig(steps=steps))
    conn.send((model.config, model.state_dict()))
    conn.close()


def _tinygpt_weights(texts: List[str], steps: int):
    """TinyGPT (config, weights), trained once per checkout and cached.

    Training is deterministic, so the cache only saves time.  It runs in a
    child process so its memory never counts toward ``peak_rss_mb``.
    """
    path = CACHE_DIR / f"tinygpt-seed{SETTING_SEED}-steps{steps}.npz"
    if path.is_file():
        with np.load(path) as data:
            config_json = str(data["__config__"])
            weights = {k: data[k] for k in data.files if k != "__config__"}
        return TransformerConfig(**json.loads(config_json)), weights
    # fork: no thread exists yet in this process, and the child needs the
    # texts already in memory.
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_train_tinygpt, args=(texts, steps, child_conn))
    child.start()
    child_conn.close()
    try:
        config, weights = parent_conn.recv()
    finally:
        parent_conn.close()
        child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"TinyGPT training exited with {child.exitcode}")
    CACHE_DIR.mkdir(exist_ok=True)
    partial = path.with_suffix(".tmp.npz")
    np.savez(partial, __config__=json.dumps(config.__dict__), **weights)
    os.replace(partial, path)
    return config, weights


def build_setting(tinygpt_steps: Optional[int] = None) -> Setting:
    dataset = build_dataset(
        num_train_racks=TRAIN_RACKS,
        num_test_racks=TEST_RACKS,
        windows_per_rack=WINDOWS_PER_RACK,
        seed=SETTING_SEED,
    )
    setting = Setting(
        dataset=dataset,
        train_assignments=[w.variables() for w in dataset.train_windows()],
    )
    if tinygpt_steps is not None:
        setting.tinygpt = _tinygpt_weights(dataset.train_texts(), tinygpt_steps)
    return setting


# -- set-up (timed) -------------------------------------------------------------


@dataclass
class Packs:
    imputation: RuleSet
    synthesis: RuleSet
    fallback: List[RuleSet]
    # Every tier's oracle also enforces the physical domain of each variable.
    bounds: Dict[str, Tuple[int, int]]


def mine_packs(setting: Setting) -> Packs:
    """Both mined packs plus fallback tiers, exactly as get_context builds them."""
    options = MinerOptions(slack=2)
    variables = list(setting.dataset.variables)
    fine_names = [fine_field(t) for t in range(setting.config.window)]
    imputation = mine_rules(
        setting.train_assignments,
        variables,
        options,
        fine_variables=fine_names,
        name="netnomos-imputation",
    )
    coarse = [
        {name: a[name] for name in COARSE_FIELDS}
        for a in setting.train_assignments
    ]
    synthesis = mine_rules(
        coarse, list(COARSE_FIELDS), options, name="netnomos-synthesis"
    )
    fallback = [
        zoom2net_manual_rules(setting.config),
        domain_bound_rules(setting.config),
    ]
    return Packs(imputation, synthesis, fallback,
                 variable_bounds(setting.config))


def fit_ngram(setting: Setting) -> NgramLM:
    return NgramLM(order=NGRAM_ORDER).fit(setting.dataset.train_texts())


def load_tinygpt(setting: Setting) -> TransformerLM:
    config, weights = setting.tinygpt
    model = TransformerLM(config)
    model.load_state_dict({k: v.copy() for k, v in weights.items()})
    return model


def timed_setup(build: Callable[[], object], close: Callable[[object], None],
                budget_s: float = SETUP_BUDGET_S) -> Tuple[float, object]:
    """Median reference time of repeated builds; returns (seconds, last build).

    Builds at least ``SETUP_MIN_REPS`` times and goes on until ``budget_s``
    of build time has been timed (at most ``SETUP_MAX_REPS`` builds).  Every
    build but the last is closed untimed.  A collection before each build
    keeps garbage from earlier builds out of the timing.  The median is
    scaled to reference seconds by probe windows before, during (once a
    second of builds) and after the builds.
    """
    timings: List[float] = []
    samples: List[float] = []
    probe_window(samples)
    since_probe = 0.0
    system = None
    while len(timings) < SETUP_MIN_REPS or (
        sum(timings) < budget_s and len(timings) < SETUP_MAX_REPS
    ):
        if system is not None:
            close(system)
            system = None
        if since_probe >= 1.0:
            probe_window(samples)
            since_probe = 0.0
        gc.collect()
        started = time.perf_counter()
        system = build()
        timings.append(time.perf_counter() - started)
        since_probe += timings[-1]
    probe_window(samples)
    scale = reference_scale(samples)
    log(f"setup_s {len(timings)} reps: wall median {statistics.median(timings):.4f}"
        f" min {min(timings):.4f} max {max(timings):.4f}; scale {scale:.3f}")
    return statistics.median(timings) * scale, system


# -- memory ---------------------------------------------------------------------


def reset_peak_rss() -> None:
    """Reset this process's VmHWM, so earlier work (training) is excluded."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        log("cannot reset peak RSS; peak_rss_mb includes input generation")


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM of ``pid`` (default: this process) in MiB."""
    with open(f"/proc/{pid or 'self'}/status") as handle:
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", handle.read(), re.M)
    return int(match.group(1)) / 1024.0


# -- correctness ----------------------------------------------------------------


def encode_record(values: Mapping[str, int]) -> bytes:
    """The record's canonical bytes (insertion-ordered JSON)."""
    return json.dumps(dict(values), separators=(",", ":")).encode()


def audit_violations(values: Mapping[str, int], packs: Packs,
                     primary: RuleSet, tier_index: int) -> List[str]:
    """Domain bounds and rules of the producing tier the record breaks.

    Tier 0 is the ``primary`` pack, tiers 1.. the fallback packs.  Only rules
    whose variables the record assigns are binding, as in the enforcer.
    """
    broken = [
        f"domain:{name}"
        for name, value in values.items()
        if name in packs.bounds
        and not packs.bounds[name][0] <= value <= packs.bounds[name][1]
    ]
    tier = [primary, *packs.fallback][tier_index]
    rules = tier.restricted_to(list(values))
    return broken + [rule.name for rule in rules.violations(values)]


@dataclass
class Accounting:
    """Attempted / failed operations plus the reason for every failure."""

    attempted: int = 0
    succeeded: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    integrity_errors: List[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def check_record(
        self,
        values: Mapping[str, int],
        packs: Packs,
        primary: RuleSet,
        tier_index: int,
        degraded: bool,
    ) -> bool:
        """Audit one emitted record; a violation not flagged degraded fails."""
        if audit_violations(values, packs, primary, tier_index) and not degraded:
            self.fail("undegraded_violation")
            return False
        return True

    def compare(self, label: str, got: Sequence[bytes],
                want: Sequence[bytes]) -> None:
        """Byte-compare two record sequences; each mismatch fails."""
        if len(got) != len(want):
            self.integrity_errors.append(
                f"{label}: {len(got)} records vs {len(want)}"
            )
        for a, b in zip(got, want):
            if a != b:
                self.fail(f"{label}_mismatch")


def report(
    workload: str,
    accounting: Accounting,
    metrics: Mapping[str, float],
    units: Mapping[str, str],
    samples: Mapping[str, int],
) -> Dict[str, object]:
    """Log a human summary to stderr and build the result object."""
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    for error in accounting.integrity_errors:
        log(f"integrity: {error}")
    log(
        f"{workload}: attempted={accounting.attempted} "
        f"succeeded={accounting.succeeded} failed={accounting.failed} "
        f"failures={accounting.failures or {}} "
        + " ".join(f"samples.{k}={v}" for k, v in samples.items())
    )
    for name in units:
        log(f"  {name} = {metrics[name]:.6g} {units[name]}")
    return {
        "correct": accounting.failed == 0 and not accounting.integrity_errors,
        "attempted": max(1, accounting.attempted),
        "failed": accounting.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }


def new_enforcer(model, rules: RuleSet, packs: Packs, setting: Setting,
                 seed: int, oracle_wrapper=None) -> JitEnforcer:
    """An enforcer at the program's default config, seeded per workload."""
    return JitEnforcer(
        model,
        rules,
        setting.config,
        EnforcerConfig(seed=seed),
        fallback_rules=packs.fallback,
        oracle_wrapper=oracle_wrapper,
    )
