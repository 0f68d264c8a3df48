"""Per-record trace lifecycle: deltas stay isolated, never accumulated.

Regression guard for the reuse paths (the batched engine and the serving
scheduler run many sessions over one enforcer/lane): each
:class:`~repro.core.session.RecordOutcome` must carry only ITS record's
wall time, LM steps, and solver work -- summing the per-record deltas must
reproduce the enforcer-level totals, and no outcome may silently absorb a
predecessor's spend.  Also covers the observability acceptance bar: span
tracing must not perturb enforcement output.
"""

import collections

import pytest

from repro.core import EnforcementEngine, EnforcerConfig, JitEnforcer
from repro.data import build_dataset
from repro.lm import NgramLM
from repro.obs import OBS, ManualClock, SpanTracer
from repro.rules import domain_bound_rules, paper_rules
from repro.smt import SolverBudget
from repro.stream import EnforcerExecutor


@pytest.fixture(scope="module")
def setting():
    dataset = build_dataset(
        num_train_racks=4, num_test_racks=1, windows_per_rack=40, seed=5
    )
    model = NgramLM(order=6).fit(dataset.train_texts())
    return dataset, model, paper_rules(dataset.config)


def _enforcer(dataset, model, rules, seed=13, budget=None):
    return JitEnforcer(
        model,
        rules,
        dataset.config,
        EnforcerConfig(seed=seed, budget=budget),
        fallback_rules=[domain_bound_rules(dataset.config)],
    )


class TestPerRecordIsolation:
    def test_sync_path_deltas_sum_to_enforcer_totals(self, setting):
        dataset, model, rules = setting
        enforcer = _enforcer(
            dataset, model, rules, budget=SolverBudget.default()
        )
        coarse = [w.coarse() for w in dataset.test_windows()[:8]]
        outcomes = [enforcer.impute_record(c) for c in coarse]

        # Deltas, not cumulative: summed per-record solver work equals the
        # lane meter's lifetime totals exactly.
        summed = collections.Counter()
        for outcome in outcomes:
            summed.update(outcome.solver_work)
        meter = {k: v for k, v in enforcer.meter.snapshot().items() if v}
        assert dict(summed) == meter

        assert sum(o.lm_steps for o in outcomes) == enforcer.trace.lm_calls
        assert all(o.lm_steps > 0 for o in outcomes)
        assert all(o.wall_time > 0 for o in outcomes)
        assert sum(o.wall_time for o in outcomes) <= enforcer.trace.wall_time

        # The stream executor is the other one-lane driver: same accounting.
        streamed = _enforcer(dataset, model, rules)
        executor = EnforcerExecutor(streamed, seed=13)
        steps = []
        for seq, window in enumerate(coarse):
            executor(seq, window, {})
            steps.append(streamed.last_outcome.lm_steps)
        assert sum(steps) == streamed.trace.lm_calls and min(steps) > 0

    def test_reused_lane_does_not_accumulate_into_later_records(self, setting):
        """The regression: outcome N must not include records 0..N-1."""
        dataset, model, rules = setting
        enforcer = _enforcer(
            dataset, model, rules, budget=SolverBudget.default()
        )
        coarse = dataset.test_windows()[0].coarse()
        for _ in range(3):
            lm_before = enforcer.trace.lm_calls
            meter_before = dict(enforcer.meter.snapshot())
            outcome = enforcer.impute_record(coarse)
            # Each outcome's numbers equal the externally-measured delta
            # across exactly that call -- cumulative totals would diverge
            # from the second record on.
            assert outcome.lm_steps == enforcer.trace.lm_calls - lm_before
            expected = {
                resource: total - meter_before.get(resource, 0)
                for resource, total in enforcer.meter.snapshot().items()
                if total - meter_before.get(resource, 0)
            }
            assert outcome.solver_work == expected

    def test_batched_engine_outcomes_carry_per_record_deltas(self, setting):
        dataset, model, rules = setting
        enforcer = _enforcer(dataset, model, rules)
        engine = EnforcementEngine(enforcer, batch_size=4)
        coarse = [w.coarse() for w in dataset.test_windows()[:8]]
        outcomes = engine.impute_many(coarse)

        summed = collections.Counter()
        for outcome in outcomes:
            summed.update(outcome.solver_work)
        pooled = {k: v for k, v in engine.pool.solver_work().items() if v}
        # Lane meters only ever charge inside some session's resume window,
        # so the per-record deltas partition the pooled totals exactly.
        assert dict(summed) == pooled
        assert all(o.lm_steps > 0 for o in outcomes)
        assert all(o.wall_time >= 0 for o in outcomes)


class TestTracingIsInvisible:
    def teardown_method(self):
        OBS.disable()

    def test_enforced_output_is_identical_with_tracing_on(self, setting):
        dataset, model, rules = setting
        coarse = [w.coarse() for w in dataset.test_windows()[:6]]

        plain = _enforcer(dataset, model, rules)
        reference = [plain.impute_record(c) for c in coarse]

        OBS.enable(SpanTracer())
        traced = _enforcer(dataset, model, rules)
        observed = [traced.impute_record(c) for c in coarse]
        OBS.disable()

        assert [o.values for o in observed] == [o.values for o in reference]
        assert [o.stage for o in observed] == [o.stage for o in reference]
        assert (
            traced.trace.comparable_counters()
            == plain.trace.comparable_counters()
        )

    def test_record_spans_nest_step_and_solver_children(self, setting):
        dataset, model, rules = setting
        tracer = OBS.enable(SpanTracer())
        enforcer = _enforcer(dataset, model, rules)
        enforcer.impute_record(dataset.test_windows()[0].coarse())
        OBS.disable()

        spans = tracer.drain()
        by_name = collections.defaultdict(list)
        for span in spans:
            by_name[span["name"]].append(span)
        assert len(by_name["record"]) == 1
        record_id = by_name["record"][0]["span"]
        assert by_name["record"][0]["attrs"]["stage"] == "smt-confirm"
        step_ids = {span["span"] for span in by_name["step"]}
        assert by_name["step"], "no step spans emitted"
        for span in by_name["step"]:
            assert span["parent"] == record_id
        for name in ("feasible_digits", "smt_confirm"):
            assert by_name[name], f"no {name} spans emitted"
            for span in by_name[name]:
                assert span["parent"] in step_ids
        for span in by_name["lm_forward"]:
            assert span["parent"] == record_id
        assert tracer.open_spans == 0

    def test_batched_engine_emits_shared_lm_roots(self, setting):
        dataset, model, rules = setting
        for batch_size in (4, 1):
            tracer = OBS.enable(SpanTracer(ring_size=65536))
            enforcer = _enforcer(dataset, model, rules)
            engine = EnforcementEngine(enforcer, batch_size=batch_size)
            engine.impute_many([w.coarse() for w in dataset.test_windows()[:4]])
            OBS.disable()

            spans = tracer.drain()
            forwards = [s for s in spans if s["name"] == "lm_forward"]
            assert forwards
            assert all(s["attrs"]["rows"] >= 1 for s in forwards)
            records = [s for s in spans if s["name"] == "record"]
            assert len(records) == 4
            parents = collections.Counter(s["parent"] for s in forwards)
            if batch_size > 1:
                assert set(parents) == {None}
            else:  # a one-lane pool's forward belongs to its record
                steps = {r["span"]: r["attrs"]["lm_steps"] for r in records}
                assert parents == steps

    def test_wall_time_uses_the_injected_clock(self, setting):
        dataset, model, rules = setting
        clock = ManualClock()
        original = OBS.clock
        OBS.clock = clock
        try:
            enforcer = _enforcer(dataset, model, rules)
            outcome = enforcer.impute_record(
                dataset.test_windows()[0].coarse()
            )
            assert outcome.wall_time == 0.0  # the manual clock never moved
        finally:
            OBS.clock = original
