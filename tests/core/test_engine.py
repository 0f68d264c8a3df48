"""Batched engine tests: determinism parity, fault isolation, cache soundness.

The engine's contract is that batching is *invisible* in the output: for
the same seed and submission order, every record is byte-identical at any
batch size -- including batch 1 versus the synchronous driver, and versus
an uncached reference enforcer when the solver budget is unlimited -- and
the deterministic trace counters agree exactly.  The speedup comes only
from shared work (batched LM calls, the cross-lane oracle cache), never
from changed behavior.
"""

import numpy as np
import pytest

from repro.core import (
    EnforcementEngine,
    EnforcerConfig,
    JitEnforcer,
    OracleCache,
)
from repro.core.feasible import HybridOracle, IntervalOracle, SmtOracle
from repro.data import (
    TelemetryConfig,
    build_dataset,
    fine_field,
    variable_bounds,
    window_variables,
)
from repro.errors import InfeasibleRecord
from repro.lm import NgramLM
from repro.rules import (
    MinerOptions,
    domain_bound_rules,
    mine_rules,
    paper_rules,
    zoom2net_manual_rules,
)
from repro.smt import SolverBudget
from repro.testing import uncached_oracle


@pytest.fixture(scope="module")
def setting():
    dataset = build_dataset(
        num_train_racks=4, num_test_racks=1, windows_per_rack=40, seed=5
    )
    model = NgramLM(order=6).fit(dataset.train_texts())
    return dataset, model, paper_rules(dataset.config)


def _enforcer(dataset, model, rules, seed=13, oracle_wrapper=None):
    return JitEnforcer(
        model,
        rules,
        dataset.config,
        EnforcerConfig(seed=seed),
        fallback_rules=[domain_bound_rules(dataset.config)],
        oracle_wrapper=oracle_wrapper,
    )


@pytest.fixture(scope="module")
def mined_setting():
    """A small mined imputation pack (~490 rules), as in test_enforcer."""
    dataset = build_dataset(
        num_train_racks=6, num_test_racks=2, windows_per_rack=60, seed=2
    )
    model = NgramLM(order=6).fit(dataset.train_texts())
    mined = mine_rules(
        [w.variables() for w in dataset.train_windows()],
        list(window_variables(dataset.config.window)),
        MinerOptions(slack=2),
        fine_variables=[fine_field(t) for t in range(dataset.config.window)],
    )
    return dataset, model, mined


class TestDeterminismParity:
    """Byte-identical records at every batch size."""

    def test_impute_parity_across_batch_sizes(self, setting):
        dataset, model, rules = setting
        coarse = [w.coarse() for w in dataset.test_windows()[:12]]

        legacy = _enforcer(dataset, model, rules, oracle_wrapper=uncached_oracle)
        reference = [legacy.impute_record(c) for c in coarse]

        for batch_size in (1, 4, 16):
            enforcer = _enforcer(dataset, model, rules)
            engine = EnforcementEngine(enforcer, batch_size=batch_size)
            outcomes = engine.impute_many(coarse)
            assert [o.values for o in outcomes] == [
                r.values for r in reference
            ], f"values diverged at batch_size={batch_size}"
            assert [o.stage for o in outcomes] == [r.stage for r in reference]
            assert (
                enforcer.trace.comparable_counters()
                == legacy.trace.comparable_counters()
            ), f"trace counters diverged at batch_size={batch_size}"

    def test_synthesize_parity_across_batch_sizes(self, setting):
        dataset, model, rules = setting
        count = 10

        legacy = _enforcer(dataset, model, rules, oracle_wrapper=uncached_oracle)
        reference = [legacy.synthesize_record() for _ in range(count)]

        for batch_size in (1, 4, 16):
            enforcer = _enforcer(dataset, model, rules)
            engine = EnforcementEngine(enforcer, batch_size=batch_size)
            outcomes = engine.synthesize_many(count)
            assert [o.values for o in outcomes] == [
                r.values for r in reference
            ], f"values diverged at batch_size={batch_size}"
            assert (
                enforcer.trace.comparable_counters()
                == legacy.trace.comparable_counters()
            )

    @pytest.mark.parametrize("oracle", ["hybrid", "smt"])
    def test_budgeted_records_are_batch_invariant(self, mined_setting, oracle):
        """Under a budget tight enough to exhaust, neither batch size nor
        lane placement may move a record: every record opens a fresh
        solver over the enforcer's one cache, as the serial path does."""
        dataset, model, mined = mined_setting
        windows = dataset.test_windows()
        # Two cheap prompts whose records exhaust the budget (one falls to
        # interval-audit); at batch 1 both run on one lane.
        coarse = [windows[2].coarse(), windows[18].coarse()]
        config = EnforcerConfig(
            seed=13,
            oracle=oracle,
            optimistic=False,
            budget=SolverBudget(
                max_conflicts=3, max_pivots=40, max_theory_rounds=4
            ),
        )

        def enforcer():
            return JitEnforcer(
                model,
                mined,
                dataset.config,
                config,
                fallback_rules=[zoom2net_manual_rules(dataset.config),
                                domain_bound_rules(dataset.config)],
            )

        serial = enforcer()
        reference = [serial.impute_record(c) for c in coarse]
        assert serial.trace.budget_exhaustions > 0
        assert "interval-audit" in {r.stage for r in reference}
        for batch_size in (1, 4, 8):
            outcomes = EnforcementEngine(enforcer(), batch_size).impute_many(
                coarse
            )
            assert [(o.values, o.stage) for o in outcomes] == [
                (r.values, r.stage) for r in reference
            ], f"budgeted records moved at batch_size={batch_size}"

    def test_no_solver_forcing_on_clean_runs(self, setting):
        """Parity runs stay on the happy path: no forced values, no budget."""
        dataset, model, rules = setting
        enforcer = _enforcer(dataset, model, rules)
        engine = EnforcementEngine(enforcer, batch_size=8)
        engine.impute_many([w.coarse() for w in dataset.test_windows()[:8]])
        assert enforcer.trace.solver_forced_vars == 0
        assert enforcer.trace.budget_exhaustions == 0

    def test_batching_reduces_lm_calls(self, setting):
        dataset, model, rules = setting
        coarse = [w.coarse() for w in dataset.test_windows()[:12]]
        calls = {}
        for batch_size in (1, 4):
            enforcer = _enforcer(dataset, model, rules)
            engine = EnforcementEngine(enforcer, batch_size=batch_size)
            engine.impute_many(coarse)
            calls[batch_size] = engine.stats.lm_calls
            assert engine.stats.completed == len(coarse)
        # Lock-stepping 4 lanes must need far fewer batched calls than 1.
        assert calls[4] * 2 < calls[1]


class TestEngineIsolation:
    def test_infeasible_record_never_corrupts_batch_mates(self, setting):
        """One poisoned slot fails; every other record stays byte-identical."""
        dataset, model, rules = setting
        coarse = [w.coarse() for w in dataset.test_windows()[:6]]
        poison_index = 3
        # R3 needs a 30+ burst with congestion, R2 caps the sum at 20: no
        # fallback tiers, so this prompt has no feasible completion at all.
        poisoned = list(coarse)
        poisoned[poison_index] = {"total": 20, "cong": 3, "retx": 0, "egr": 20}

        def strict_enforcer():
            return JitEnforcer(
                model, rules, dataset.config, EnforcerConfig(seed=13)
            )

        reference = []
        legacy = strict_enforcer()
        for index, prompt in enumerate(poisoned):
            if index == poison_index:
                with pytest.raises(InfeasibleRecord):
                    legacy.impute_record(prompt)
                reference.append(None)
            else:
                reference.append(legacy.impute_record(prompt))

        engine = EnforcementEngine(strict_enforcer(), batch_size=4)
        results = engine.impute_many(poisoned, return_exceptions=True)
        assert isinstance(results[poison_index], InfeasibleRecord)
        for index, result in enumerate(results):
            if index == poison_index:
                continue
            assert result.values == reference[index].values
        assert engine.stats.failed == 1
        assert engine.stats.completed == len(coarse) - 1

    def test_run_raises_first_error_without_return_exceptions(self, setting):
        dataset, model, rules = setting
        enforcer = JitEnforcer(model, rules, dataset.config, EnforcerConfig(seed=13))
        engine = EnforcementEngine(enforcer, batch_size=2)
        good = dataset.test_windows()[0].coarse()
        bad = {"total": 20, "cong": 3, "retx": 0, "egr": 20}
        with pytest.raises(InfeasibleRecord):
            engine.impute_many([good, bad, good])

    def test_summary_reports_throughput_and_cache(self, setting):
        dataset, model, rules = setting
        enforcer = _enforcer(dataset, model, rules)
        engine = EnforcementEngine(enforcer, batch_size=4)
        engine.impute_many([w.coarse() for w in dataset.test_windows()[:8]])
        summary = engine.summary()
        assert summary["completed"] == 8
        assert summary["records_per_sec"] > 0
        assert summary["batch_size"] == 4
        assert 0.0 <= summary["cache"]["hit_rate"] <= 1.0
        assert summary["solver_work"]  # non-empty counters


class TestOracleCacheSoundness:
    """Cached oracles must answer exactly like uncached ones."""

    def _records(self, dataset, count=6):
        return [w.coarse() for w in dataset.test_windows()[:count]]

    @pytest.mark.parametrize("oracle_cls", [SmtOracle, IntervalOracle, HybridOracle])
    def test_cached_pooled_oracle_matches_fresh(self, setting, oracle_cls):
        dataset, _, rules = setting
        bounds = variable_bounds(dataset.config)
        cache = OracleCache(4096)
        shared = oracle_cls(rules, bounds, cache=cache)
        window = dataset.config.window
        # Two passes over the same prompts: the second replays every state
        # key from the cache while the fresh oracle recomputes from scratch.
        for prompt in self._records(dataset) * 2:
            fresh = uncached_oracle(oracle_cls(rules, bounds))
            shared.begin_record(prompt)
            fresh.begin_record(prompt)
            for t in range(window):
                name = f"I{t}"
                shared_set = shared.feasible_set(name)
                assert shared_set.segments == fresh.feasible_set(name).segments
                value = shared_set.min_value
                assert shared.confirm(name, value) == fresh.confirm(name, value)
                shared.fix(name, value)
                fresh.fix(name, value)
        assert cache.hits > 0  # the repeats actually exercised the cache

    def test_stale_domain_cannot_widen_after_fix(self, setting):
        """Regression: ``_domain_cache`` must die on every state change.

        A fix() narrows the propagated domain; if the pre-fix cached domain
        survived, a later feasible_set() could *widen* the admissible set
        and admit a value the solver would refute.
        """
        dataset, _, rules = setting
        bounds = variable_bounds(dataset.config)
        oracle = IntervalOracle(rules, bounds, cache=OracleCache(1024))
        prompt = self._records(dataset, 1)[0]
        oracle.begin_record(prompt)
        before = oracle.feasible_set("I1")
        assert oracle._domain_cache is not None  # populated by the query
        oracle.fix("I0", oracle.feasible_set("I0").max_value)
        assert oracle._domain_cache is None  # invalidated by the fix
        after = oracle.feasible_set("I1")
        # Narrowing only: every post-fix admissible value was admissible
        # before (the fix consumed budget from the shared sum).
        for lo, hi in after.segments:
            assert before.intersect_interval(lo, hi).segments == ((lo, hi),)

        # And adopting a cached interval snapshot must also drop any
        # resident domain: pollute the cache with an absurdly wide domain,
        # force the restore path, and verify it recomputes the true set.
        oracle.begin_record(prompt)  # istate now cached => restorable
        oracle._domain_cache = {
            name: [0, 10**9] for name in oracle._domain_cache
        }
        assert oracle._restore_istate()  # snapshot hit for this state key
        assert oracle._domain_cache is None
        assert oracle.feasible_set("I1").segments == before.segments

    def test_confirm_cache_never_stores_unknown(self, setting):
        dataset, _, rules = setting
        bounds = variable_bounds(dataset.config)
        cache = OracleCache(1024)
        oracle = SmtOracle(rules, bounds, cache=cache)
        prompt = self._records(dataset, 1)[0]
        oracle.begin_record(prompt)
        oracle.confirm_status("I0", oracle.feasible_set("I0").min_value)
        for key, value in cache._data.items():
            if key[0] == "confirm":
                assert value in ("sat", "unsat")


class TestEngineRngStability:
    def test_submission_order_pins_streams(self, setting):
        """Shuffled *submission* changes outputs; same order never does."""
        dataset, model, rules = setting
        coarse = [w.coarse() for w in dataset.test_windows()[:6]]
        runs = []
        for _ in range(2):
            enforcer = _enforcer(dataset, model, rules)
            engine = EnforcementEngine(enforcer, batch_size=3)
            runs.append([o.values for o in engine.impute_many(coarse)])
        assert runs[0] == runs[1]

    def test_unseeded_engine_still_completes(self, setting):
        dataset, model, rules = setting
        enforcer = JitEnforcer(
            model,
            rules,
            dataset.config,
            EnforcerConfig(seed=None),
            fallback_rules=[domain_bound_rules(dataset.config)],
        )
        engine = EnforcementEngine(enforcer, batch_size=4)
        outcomes = engine.impute_many(
            [w.coarse() for w in dataset.test_windows()[:4]]
        )
        assert all(o.compliant or o.degraded for o in outcomes)
