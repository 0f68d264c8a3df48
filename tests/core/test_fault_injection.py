"""Chaos tests: the enforcement loop under injected model/solver faults.

The robustness contract under test: with faults firing at every seam
(NaN/zero model distributions, spurious UNKNOWN confirmations, forced dead
ends, budget exhaustion), the pipeline still completes every record with
zero unhandled exceptions, and every emitted record is either proven
rule-compliant or explicitly flagged degraded.
"""

import os

import numpy as np
import pytest

from repro.core import (
    EnforcementEngine,
    EnforcerConfig,
    JitEnforcer,
    LADDER_STAGES,
    Lane,
)
from repro.data import build_dataset
from repro.errors import DeadEnd, InjectedFault
from repro.lm import NgramLM, TransformerConfig, TransformerLM
from repro.lm.sampler import sample_tokens
from repro.rules import domain_bound_rules, paper_rules
from repro.smt import SolverBudget
from repro.testing import (
    CrashingLM,
    FaultConfig,
    FaultInjector,
    FaultyLM,
    FaultyOracle,
    StallingOracle,
)


@pytest.fixture(scope="module")
def setting():
    dataset = build_dataset(
        num_train_racks=4, num_test_racks=1, windows_per_rack=40, seed=2
    )
    model = NgramLM(order=6).fit(dataset.train_texts())
    return dataset, model, paper_rules(dataset.config)


def _chaos_enforcer(dataset, model, rules, fault_config, enforcer_seed=0):
    injector = FaultInjector(fault_config)
    enforcer = JitEnforcer(
        FaultyLM(model, injector),
        rules,
        dataset.config,
        EnforcerConfig(
            seed=enforcer_seed,
            budget=SolverBudget.default(),
            max_budget_retries=1,
        ),
        fallback_rules=[domain_bound_rules(dataset.config)],
        oracle_wrapper=lambda oracle: FaultyOracle(oracle, injector),
    )
    return enforcer, injector


def _run_chaos(dataset, enforcer, count=10):
    outcomes = []
    for window in dataset.test_windows()[:count]:
        outcome = enforcer.impute_record(window.coarse())
        # Contract: compliant or explicitly flagged, never silently wrong.
        assert outcome.compliant or outcome.degraded
        assert outcome.stage in LADDER_STAGES
        for name, value in window.coarse().items():
            assert outcome.values[name] == value  # prompt echo survives
        outcomes.append(outcome)
    return outcomes


class TestChaosCompliance:
    def test_acceptance_rates(self, setting):
        """The ISSUE acceptance bar: >=20% UNKNOWNs, >=5% dead ends."""
        dataset, model, rules = setting
        enforcer, injector = _chaos_enforcer(
            dataset, model, rules,
            FaultConfig(
                seed=7,
                nan_logits=0.03,
                zero_logits=0.05,
                spurious_unknown=0.25,
                forced_dead_end=0.08,
                budget_exhaustion=0.10,
            ),
        )
        _run_chaos(dataset, enforcer, count=10)
        trace = enforcer.trace
        assert trace.records == 10
        # Every fault kind actually fired (the run exercised the seams).
        for kind in ("spurious_unknown", "budget_exhaustion",
                     "forced_dead_end"):
            assert injector.stats.fired.get(kind, 0) > 0, kind
        # Every record is accounted to exactly one ladder stage.
        assert sum(trace.ladder.values()) == trace.records
        # The faults left visible footprints in the trace.
        assert trace.unknown_confirms > 0
        assert trace.budget_exhaustions > 0

    @pytest.mark.parametrize("rate", [0.0, 0.15, 0.5])
    def test_fault_rate_sweep(self, setting, rate):
        dataset, model, rules = setting
        enforcer, _ = _chaos_enforcer(
            dataset, model, rules,
            FaultConfig(
                seed=11,
                spurious_unknown=rate,
                forced_dead_end=rate / 2,
                budget_exhaustion=rate / 2,
            ),
        )
        outcomes = _run_chaos(dataset, enforcer, count=6)
        if rate == 0.0:
            # No faults: nothing may degrade.
            assert enforcer.trace.degraded_records == 0
            assert all(o.stage == "smt-confirm" for o in outcomes)

    def test_heavy_lm_corruption(self, setting):
        """NaN/zero distributions surface as counted dead ends, not NaNs."""
        dataset, model, rules = setting
        enforcer, injector = _chaos_enforcer(
            dataset, model, rules,
            FaultConfig(seed=3, nan_logits=0.2, zero_logits=0.2),
        )
        _run_chaos(dataset, enforcer, count=6)
        assert injector.stats.fired.get("zero_logits", 0) > 0
        assert enforcer.trace.dead_ends > 0
        # Despite the corruption the solver path still confirms records.
        assert enforcer.trace.ladder.get("smt-confirm", 0) > 0

    def test_total_solver_outage_still_completes(self, setting):
        """budget_exhaustion=1.0: every solver entry point fails, yet
        generation completes via solver-free ladder stages."""
        dataset, model, rules = setting
        enforcer, _ = _chaos_enforcer(
            dataset, model, rules,
            FaultConfig(seed=5, budget_exhaustion=1.0),
        )
        outcomes = _run_chaos(dataset, enforcer, count=4)
        assert all(o.degraded for o in outcomes)
        assert enforcer.trace.degraded_records == 4


class TestDegradationReport:
    def test_batch_report_aggregates_outcomes(self, setting):
        from repro.core import degradation_report

        dataset, model, rules = setting
        enforcer, _ = _chaos_enforcer(
            dataset, model, rules,
            FaultConfig(seed=17, spurious_unknown=0.3, budget_exhaustion=0.1),
        )
        outcomes = _run_chaos(dataset, enforcer, count=6)
        report = degradation_report(outcomes)
        assert report["records"] == 6
        assert report["all_compliant_or_flagged"] is True
        assert sum(report["stages"].values()) == 6
        assert report["degraded"] == enforcer.trace.degraded_records


class TestChaosDeterminism:
    def test_same_seeds_same_trace(self, setting):
        """Same fault seed + enforcer seed + budget -> identical ladder,
        counters, deterministic solver work, and records."""
        dataset, model, rules = setting
        config = FaultConfig(
            seed=13,
            nan_logits=0.02,
            zero_logits=0.04,
            spurious_unknown=0.2,
            forced_dead_end=0.06,
            budget_exhaustion=0.08,
        )
        runs = []
        for _ in range(2):
            enforcer, injector = _chaos_enforcer(dataset, model, rules, config)
            outcomes = _run_chaos(dataset, enforcer, count=8)
            trace = enforcer.trace
            runs.append({
                "values": [o.values for o in outcomes],
                "stages": [o.stage for o in outcomes],
                "ladder": dict(trace.ladder),
                "degraded": trace.degraded_records,
                "exhaustions": trace.budget_exhaustions,
                "retries": trace.budget_retries,
                "dead_ends": trace.dead_ends,
                "unknowns": trace.unknown_confirms,
                "solver_work": dict(trace.solver_work),
                "faults": dict(injector.stats.fired),
            })
        assert runs[0] == runs[1]


class TestChaosUnderEngine:
    """The same robustness contract, batched: faults fire inside lanes of a
    lock-step engine and must stay contained to their own slot."""

    def test_batched_chaos_contract(self, setting):
        dataset, model, rules = setting
        enforcer, injector = _chaos_enforcer(
            dataset, model, rules,
            FaultConfig(
                seed=7,
                nan_logits=0.03,
                zero_logits=0.05,
                spurious_unknown=0.25,
                forced_dead_end=0.08,
                budget_exhaustion=0.10,
            ),
        )
        engine = EnforcementEngine(enforcer, batch_size=4)
        windows = dataset.test_windows()[:12]
        results = engine.impute_many(
            [w.coarse() for w in windows], return_exceptions=True
        )
        for window, outcome in zip(windows, results):
            # Zero unhandled exceptions: the ladder absorbs every fault.
            assert not isinstance(outcome, BaseException)
            assert outcome.compliant or outcome.degraded
            assert outcome.stage in LADDER_STAGES
            for name, value in window.coarse().items():
                assert outcome.values[name] == value
        assert sum(injector.stats.fired.values()) > 0
        assert sum(enforcer.trace.ladder.values()) == len(windows)

    def test_total_solver_outage_under_engine(self, setting):
        dataset, model, rules = setting
        enforcer, _ = _chaos_enforcer(
            dataset, model, rules, FaultConfig(seed=5, budget_exhaustion=1.0)
        )
        engine = EnforcementEngine(enforcer, batch_size=4)
        results = engine.impute_many(
            [w.coarse() for w in dataset.test_windows()[:8]],
            return_exceptions=True,
        )
        assert all(not isinstance(o, BaseException) for o in results)
        assert all(o.degraded for o in results)
        assert engine.stats.completed == 8

    def test_crashing_slot_never_perturbs_batch_mates(self, setting):
        """A hard oracle crash in one session leaves every batch-mate
        byte-identical to a fault-free run over the same submission list."""
        dataset, model, rules = setting
        prompts = [w.coarse() for w in dataset.test_windows()[:8]]
        poison = {"total": 77, "cong": 1, "retx": 0, "egr": 80}
        prompts[3] = poison

        class _PoisonOracle:
            def __init__(self, inner):
                self._inner = inner

            def begin_record(self, fixed=None):
                if fixed and all(
                    fixed.get(k) == v for k, v in poison.items()
                ) and len(fixed) == len(poison):
                    raise RuntimeError("injected oracle crash")
                return self._inner.begin_record(fixed)

            @property
            def interval(self):
                # The optimistic phase reaches the hybrid tier's interval
                # sub-oracle directly; poison that seam too (mirrors
                # FaultyOracle's nested wrapping).
                return _PoisonOracle(self._inner.interval)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        def build(wrapper=None):
            return JitEnforcer(
                model,
                rules,
                dataset.config,
                EnforcerConfig(seed=21),
                fallback_rules=[domain_bound_rules(dataset.config)],
                oracle_wrapper=wrapper,
            )

        clean_engine = EnforcementEngine(build(), batch_size=4)
        clean = clean_engine.impute_many(prompts, return_exceptions=True)
        poisoned_engine = EnforcementEngine(
            build(lambda oracle: _PoisonOracle(oracle)), batch_size=4
        )
        poisoned = poisoned_engine.impute_many(prompts, return_exceptions=True)

        assert isinstance(poisoned[3], RuntimeError)
        for index in range(len(prompts)):
            if index == 3:
                continue
            assert poisoned[index].values == clean[index].values
            assert poisoned[index].stage == clean[index].stage
        assert poisoned_engine.stats.failed == 1
        assert poisoned_engine.stats.completed == len(prompts) - 1


class TestFaultHarness:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(spurious_unknown=1.5)
        with pytest.raises(ValueError):
            FaultConfig(nan_logits=-0.1)

    def test_zero_rates_never_fire(self):
        injector = FaultInjector(FaultConfig(seed=0))
        assert not any(
            injector.fire(kind, 0.0) for kind in ("a", "b", "c")
        )
        assert injector.stats.total() == 0

    def test_faulty_lm_nan_handled_by_sampler(self, setting):
        """A NaN distribution must raise a typed DeadEnd, not emit NaN."""
        dataset, model, _ = setting
        injector = FaultInjector(FaultConfig(seed=0, nan_logits=1.0))
        faulty = FaultyLM(model, injector)
        ids = model.tokenizer.encode("")
        probs = faulty.next_distribution(ids)
        assert np.isnan(probs).any()
        rng = np.random.default_rng(0)
        with pytest.raises(DeadEnd):
            # Masking to {pad} leaves zero finite mass -> dead end.
            sample_tokens(
                faulty, ids, stop_id=model.tokenizer.record_end_id,
                max_new_tokens=3, rng=rng,
                mask_hook=lambda _ids: {model.tokenizer.pad_id},
            )

    def test_crashing_lm_fires_typed_fault_on_schedule(self, setting):
        """crash_at indices raise InjectedFault (typed, attributed);
        every other call is byte-identical to the wrapped model."""
        dataset, model, _ = setting
        crashing = CrashingLM(model, crash_at={2})
        ids = model.tokenizer.encode("")
        for _ in range(2):  # calls 0 and 1 pass through untouched
            np.testing.assert_array_equal(
                crashing.next_distribution(ids), model.next_distribution(ids)
            )
        with pytest.raises(InjectedFault) as excinfo:
            crashing.next_distribution(ids)
        assert excinfo.value.site == "next_distribution"
        assert excinfo.value.call_index == 2
        # The schedule is spent: call 3 is healthy again.
        np.testing.assert_array_equal(
            crashing.next_distribution(ids), model.next_distribution(ids)
        )
        assert crashing.calls == 4

    def test_crash_once_sentinel_disarms_next_incarnation(
        self, setting, tmp_path
    ):
        """The sentinel file models 'a restarted worker must not re-crash':
        the first incarnation fires and arms it, the second stays healthy."""
        dataset, model, _ = setting
        sentinel = str(tmp_path / "fired")
        ids = model.tokenizer.encode("")
        first = CrashingLM(model, crash_at={0}, crash_once_path=sentinel)
        with pytest.raises(InjectedFault):
            first.next_distribution(ids)
        assert os.path.exists(sentinel)
        second = CrashingLM(model, crash_at={0}, crash_once_path=sentinel)
        np.testing.assert_array_equal(
            second.next_distribution(ids), model.next_distribution(ids)
        )

    def test_stalling_oracle_counts_and_delegates(self, setting):
        """feasible_set and confirm_status share one query counter; the
        injectable sleep lets tests count stalls without waiting."""
        dataset, _, rules = setting
        from repro.core.feasible import IntervalOracle
        from repro.data.dataset import variable_bounds

        naps = []
        oracle = StallingOracle(
            IntervalOracle(rules, variable_bounds(dataset.config)),
            stall_at={0, 2},
            stall_s=0.5,
            sleep=naps.append,
        )
        oracle.begin_record(None)
        oracle.feasible_set("total")  # query 0 -> stalls
        oracle.confirm_status("total", 40)  # query 1
        oracle.feasible_set("cong")  # query 2 -> stalls
        assert oracle.queries == 3
        assert oracle.stalls_fired == 2
        assert naps == [0.5, 0.5]
        oracle.discard_record_state()  # delegated; must not raise
        assert oracle._oracle.fixed == {}

    def test_stalls_never_perturb_bytes(self, setting):
        """A stalled solver is slow, not wrong: records match a clean run."""
        dataset, model, rules = setting
        window = dataset.test_windows()[0]

        def build(wrapper=None):
            return JitEnforcer(
                model,
                rules,
                dataset.config,
                EnforcerConfig(seed=31),
                fallback_rules=[domain_bound_rules(dataset.config)],
                oracle_wrapper=wrapper,
            )

        clean = build().impute_record(window.coarse())
        stalled = build(
            lambda oracle: StallingOracle(
                oracle, stall_at={1, 4, 9}, stall_s=1.0, sleep=lambda _s: None
            )
        ).impute_record(window.coarse())
        assert stalled.values == clean.values
        assert stalled.stage == clean.stage

    def test_wrapped_hybrid_exposes_sub_oracles(self, setting):
        dataset, _, rules = setting
        from repro.core.feasible import HybridOracle
        from repro.data import window_variables
        from repro.data.dataset import variable_bounds

        bounds = variable_bounds(dataset.config)
        injector = FaultInjector(FaultConfig(seed=0))
        wrapped = FaultyOracle(HybridOracle(rules, bounds), injector)
        assert isinstance(wrapped.interval, FaultyOracle)
        assert isinstance(wrapped.smt, FaultyOracle)
        # Interval tiers have no any_model; the wrapper must not grow one.
        from repro.core.feasible import IntervalOracle

        plain = FaultyOracle(IntervalOracle(rules, bounds), injector)
        assert getattr(plain, "any_model", None) is None


class TestPoisonedLaneQuarantine:
    """Regression for the harvest bugfix: a session that dies mid-record
    must leave nothing behind in its lane -- not a stale KV-cache row, not
    a half-pushed solver, not a cached interval state."""

    def test_poisoned_lane_never_leaks_into_next_tenant(self, setting):
        from repro.serve import ContinuousBatchingScheduler

        dataset, model, rules = setting
        windows = dataset.test_windows()
        poison = windows[0].coarse()
        clean_window = windows[1]

        class _MidDecodePoison:
            """Raises a typed fault from confirm_status, but only while the
            poisoned record is being decoded -- i.e. mid-record, after the
            oracle has accumulated real per-record state.  The ``interval``
            property poisons the hybrid tier's optimistic seam too (the
            session generates against ``oracle.interval`` directly)."""

            def __init__(self, inner):
                self._inner = inner
                self._poisoned = False

            def begin_record(self, fixed=None):
                self._poisoned = bool(fixed) and all(
                    fixed.get(k) == v for k, v in poison.items()
                ) and len(fixed) == len(poison)
                self._inner.begin_record(fixed)

            def confirm_status(self, variable, value):
                if self._poisoned:
                    raise InjectedFault(
                        "poisoned lane", site="confirm_status"
                    )
                return self._inner.confirm_status(variable, value)

            def confirm(self, variable, value):
                from repro.smt import SAT

                return self.confirm_status(variable, value) == SAT

            def feasible_set(self, variable):
                return self._inner.feasible_set(variable)

            def fix(self, variable, value):
                self._inner.fix(variable, value)

            @property
            def interval(self):
                return _MidDecodePoison(self._inner.interval)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        def build(seed=23, wrapper=None):
            return JitEnforcer(
                model,
                rules,
                dataset.config,
                EnforcerConfig(seed=seed),
                fallback_rules=[domain_bound_rules(dataset.config)],
                oracle_wrapper=wrapper,
            )

        def assert_discarded(oracle):
            # Base oracle contract after discard_record_state().
            assert oracle.fixed == {}
            assert oracle._state_key == ((), ())
            if hasattr(oracle, "_solver"):  # SmtOracle
                assert oracle._solver is None
            for sub in ("interval", "smt"):
                inner = getattr(oracle, sub, None)
                if inner is not None and hasattr(inner, "fixed"):
                    assert_discarded(inner)

        from repro.serve import RequestSpec

        scheduler = ContinuousBatchingScheduler(
            build(wrapper=lambda oracle: _MidDecodePoison(oracle)), lanes=1
        )
        with scheduler:
            poisoned = scheduler.submit(
                RequestSpec("impute", coarse=poison, seed=23)
            )
            with pytest.raises(InjectedFault):
                poisoned.result(timeout=120)
            assert scheduler.failed == 1
            # The lane the poisoned session died on is quarantine-reset:
            # every tier oracle is back to its no-record baseline.
            lane = scheduler.pool.lanes[0]
            for tier_list in (lane.tiers, lane.interval_tiers):
                for _tier_rules, tier_oracle in tier_list:
                    assert_discarded(tier_oracle._inner)
            # And the next tenant of that same lane is byte-identical to a
            # fresh serial enforcer: nothing leaked.
            follow_up = scheduler.impute(
                clean_window.coarse(), seed=77, wait_timeout=120
            )
        reference = build(seed=77).impute_record(clean_window.coarse())
        assert follow_up.records == [dict(reference.values)]


class TestLmCrashRetiresLiveLanes:
    """A model call that raises retires every live lane -- the quarantine a
    dying session gets -- in every driver: lanes reset, KV rows dropped."""

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_lm_crash_resets_live_lanes_and_rows(self, setting, monkeypatch):
        from repro.serve import ContinuousBatchingScheduler, RequestSpec

        dataset, ngram, rules = setting
        reset_lanes = []
        original_reset = Lane.reset
        monkeypatch.setattr(
            Lane, "reset",
            lambda lane: (reset_lanes.append(id(lane)), original_reset(lane)),
        )

        def enforcer(model):
            return JitEnforcer(model, rules, dataset.config,
                               EnforcerConfig(seed=4),
                               fallback_rules=[domain_bound_rules(dataset.config)])

        def crashing_tinygpt():  # KV-cached decode; the 8th row raises
            lm = TransformerLM(TransformerConfig(seed=11))
            crashing = CrashingLM(lm, crash_at={7})
            lm.next_distributions = lambda prefixes, cache, rows: np.stack([
                crashing.next_distribution(prefix, cache=cache, row=row)
                for prefix, row in zip(prefixes, rows)
            ])
            return lm

        coarse = [w.coarse() for w in dataset.test_windows()[:4]]
        serial = enforcer(CrashingLM(ngram, crash_at={7}))
        with pytest.raises(InjectedFault):
            serial.impute_record(coarse[0])
        assert reset_lanes == [id(serial._lane)]
        reset_lanes.clear()  # a session that dies inside start() is retired too
        plan = serial.impute_plan(coarse[0])
        session = serial.open_session(*plan, checkpoint=lambda: 1 / 0)
        assert serial._pool.start(0, session) is None and session.error
        assert reset_lanes == [id(serial._lane)]

        for model, run in (
            (CrashingLM(ngram, crash_at={7}), lambda e: e.impute_many(coarse)),
            (crashing_tinygpt(), lambda e: e.synthesize_many(4)),
        ):
            reset_lanes.clear()
            engine = EnforcementEngine(enforcer(model), batch_size=4)
            with pytest.raises(InjectedFault):
                run(engine)
            assert sorted(reset_lanes) == sorted(map(id, engine.pool.lanes))
        assert [engine.pool.kv_cache.length(row) for row in range(4)] == [0] * 4

        reset_lanes.clear()
        scheduler = ContinuousBatchingScheduler(
            enforcer(crashing_tinygpt()), lanes=4
        ).start()
        request = scheduler.submit(RequestSpec("synthesize", count=4, seed=4))
        with pytest.raises(InjectedFault):
            request.result(timeout=60)
        scheduler.stop(drain=False, timeout=60)  # the backstop has run
        assert not scheduler.running
        assert set(reset_lanes) == set(map(id, scheduler.pool.lanes))
        assert [scheduler.pool.kv_cache.length(r) for r in range(4)] == [0] * 4
