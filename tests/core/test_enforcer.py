"""End-to-end enforcer tests: the compliance guarantee and its mechanics."""

import numpy as np
import pytest

from repro.core import EnforcerConfig, InfeasibleRecordError, JitEnforcer
from repro.data import build_dataset, fine_field, window_variables
from repro.lm import NgramLM
from repro.rules import (
    MinerOptions,
    domain_bound_rules,
    mine_rules,
    paper_rules,
    zoom2net_manual_rules,
)


@pytest.fixture(scope="module")
def setting():
    dataset = build_dataset(
        num_train_racks=6, num_test_racks=2, windows_per_rack=60, seed=2
    )
    model = NgramLM(order=6).fit(dataset.train_texts())
    assignments = [w.variables() for w in dataset.train_windows()]
    fine = [fine_field(t) for t in range(dataset.config.window)]
    mined = mine_rules(
        assignments,
        list(window_variables(dataset.config.window)),
        MinerOptions(slack=2),
        fine_variables=fine,
    )
    return dataset, model, mined


class TestImputationCompliance:
    @pytest.mark.parametrize("oracle", ["hybrid", "smt"])
    def test_exact_tiers_always_comply(self, setting, oracle):
        dataset, model, mined = setting
        enforcer = JitEnforcer(
            model,
            mined,
            dataset.config,
            EnforcerConfig(oracle=oracle, seed=0),
            fallback_rules=[zoom2net_manual_rules(dataset.config),
                            domain_bound_rules(dataset.config)],
        )
        for window in dataset.test_windows()[:12]:
            values = enforcer.impute(window.coarse())
            if enforcer.trace.fallback_records == 0:
                assert mined.compliant(values), values
            # Imputation must echo the coarse prompt.
            for name, value in window.coarse().items():
                assert values[name] == value

    def test_paper_rules_enforced(self, setting):
        dataset, model, _ = setting
        rules = paper_rules(dataset.config)
        enforcer = JitEnforcer(
            model, rules, dataset.config, EnforcerConfig(seed=1),
            fallback_rules=[domain_bound_rules(dataset.config)],
        )
        compliant_count = 0
        for window in dataset.test_windows()[:15]:
            values = enforcer.impute(window.coarse())
            if rules.compliant(values):
                compliant_count += 1
        # Only records with genuinely infeasible prompts may fall back.
        assert compliant_count >= 15 - enforcer.trace.fallback_records

    def test_sum_rule_exact(self, setting):
        dataset, model, mined = setting
        enforcer = JitEnforcer(
            model, mined, dataset.config, EnforcerConfig(seed=3),
            fallback_rules=[zoom2net_manual_rules(dataset.config)],
        )
        window = dataset.test_windows()[0]
        values = enforcer.impute(window.coarse())
        fine_sum = sum(values[fine_field(t)] for t in range(dataset.config.window))
        assert fine_sum == window.total

    def test_different_seeds_differ(self, setting):
        dataset, model, mined = setting
        outputs = []
        for seed in (0, 1):
            enforcer = JitEnforcer(
                model, mined, dataset.config, EnforcerConfig(seed=seed),
                fallback_rules=[zoom2net_manual_rules(dataset.config)],
            )
            outputs.append(
                [enforcer.impute(w.coarse()) for w in dataset.test_windows()[:8]]
            )
        assert outputs[0] != outputs[1]

    def test_trace_populated(self, setting):
        dataset, model, mined = setting
        enforcer = JitEnforcer(
            model, mined, dataset.config, EnforcerConfig(seed=0),
            fallback_rules=[zoom2net_manual_rules(dataset.config)],
        )
        for window in dataset.test_windows()[:5]:
            enforcer.impute(window.coarse())
        trace = enforcer.trace
        assert trace.records == 5
        assert trace.sample.steps > 0
        assert 0 <= trace.guidance_rate() <= 1
        assert 0 <= trace.diversion_rate() <= 1
        assert trace.wall_time > 0


class TestSynthesis:
    def test_synthesis_complies(self, setting):
        dataset, model, _ = setting
        from repro.data import COARSE_FIELDS

        assignments = [w.variables() for w in dataset.train_windows()]
        coarse_only = [
            {name: a[name] for name in COARSE_FIELDS} for a in assignments
        ]
        synthesis_rules = mine_rules(
            coarse_only, list(COARSE_FIELDS), MinerOptions(slack=2), name="synth"
        )
        enforcer = JitEnforcer(
            model, synthesis_rules, dataset.config, EnforcerConfig(seed=0),
            fallback_rules=[domain_bound_rules(dataset.config)],
        )
        for _ in range(10):
            values = enforcer.synthesize()
            assert synthesis_rules.compliant(values)
            # Full record generated, including the fine part.
            assert fine_field(0) in values


class TestEdgeCases:
    def test_infeasible_every_tier_raises(self, setting):
        dataset, model, _ = setting
        from repro.rules import RuleSet, Rule, var
        from repro.smt import Le, Ge, And

        impossible = RuleSet(
            [Rule("no", And(Le(var("I0"), 1), Ge(var("I0"), 2)))], name="impossible"
        )
        enforcer = JitEnforcer(
            model, impossible, dataset.config, EnforcerConfig(seed=0)
        )
        with pytest.raises(InfeasibleRecordError):
            enforcer.impute(dataset.test_windows()[0].coarse())

    def test_fallback_tier_used_on_infeasible_primary(self, setting):
        dataset, model, _ = setting
        from repro.rules import RuleSet, Rule, var
        from repro.smt import And, Ge, Le

        impossible = RuleSet(
            [Rule("no", And(Le(var("I0"), 1), Ge(var("I0"), 2)))], name="impossible"
        )
        enforcer = JitEnforcer(
            model, impossible, dataset.config, EnforcerConfig(seed=0),
            fallback_rules=[domain_bound_rules(dataset.config)],
        )
        values = enforcer.impute(dataset.test_windows()[0].coarse())
        assert enforcer.trace.fallback_records == 1
        assert domain_bound_rules(dataset.config).compliant(values)

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError):
            EnforcerConfig(oracle="quantum")

    def test_interval_tier_runs(self, setting):
        """The fast tier alone must still produce parseable records."""
        dataset, model, mined = setting
        enforcer = JitEnforcer(
            model, mined, dataset.config,
            EnforcerConfig(oracle="interval", seed=0),
            fallback_rules=[domain_bound_rules(dataset.config)],
        )
        values = enforcer.impute(dataset.test_windows()[0].coarse())
        assert all(fine_field(t) in values for t in range(dataset.config.window))


class TestForcedValueDeterminism:
    """Forced values must be a pure function of verdicts, not solver state.

    Which model ``oracle.any_model()`` returns depends on solver search
    state -- e.g. which queries the oracle cache answered -- so forcing
    from it would tie a record's bytes to cache history and lane
    placement.  ``_forced_value`` pins the canonical feasible minimum and
    never consults the oracle at all -- passing ``oracle=None`` proves it.
    """

    def test_forced_value_is_the_feasible_minimum(self):
        from repro.core import EnforcementSession, FeasibleSet

        class _Stub:
            _bounds = {"I0": (0, 255)}

        value = EnforcementSession._forced_value(
            _Stub(), None, "I0", FeasibleSet.from_interval(29, 40)
        )
        assert value == 29

    def test_empty_feasible_set_forces_the_domain_floor(self):
        from repro.core import EnforcementSession, FeasibleSet

        class _Stub:
            _bounds = {"I0": (3, 255)}

        value = EnforcementSession._forced_value(
            _Stub(), None, "I0", FeasibleSet.empty()
        )
        assert value == 3
