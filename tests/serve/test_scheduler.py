"""Scheduler tests: serial parity, deadline isolation, drain, metrics.

The serving contract extends the engine's: batching *and the server
itself* are invisible in the bytes.  A request with ``seed=s`` gets
exactly the records a fresh synchronous ``JitEnforcer`` with
``EnforcerConfig(seed=s)`` would produce, no matter the lane it lands
on or which other requests share its lock-step batch.
"""

import pytest

from repro.core import EnforcerConfig, JitEnforcer
from repro.data import build_dataset
from repro.errors import DeadlineExceeded, RequestCancelled, ServerClosed
from repro.lm import NgramLM
from repro.rules import domain_bound_rules, paper_rules
from repro.serve import ContinuousBatchingScheduler, RequestSpec
from repro.serve.types import CANCELLED, DONE, EXPIRED


@pytest.fixture(scope="module")
def setting():
    dataset = build_dataset(
        num_train_racks=4, num_test_racks=1, windows_per_rack=40, seed=5
    )
    model = NgramLM(order=6).fit(dataset.train_texts())
    return dataset, model, paper_rules(dataset.config)


def _enforcer(dataset, model, rules, seed=13):
    return JitEnforcer(
        model,
        rules,
        dataset.config,
        EnforcerConfig(seed=seed),
        fallback_rules=[domain_bound_rules(dataset.config)],
    )


def _serial_impute(dataset, model, rules, coarse, seed):
    return _enforcer(dataset, model, rules, seed=seed).impute_record(coarse)


class TestSerialParity:
    """ISSUE acceptance: server bytes == serial bytes at the same seed."""

    def test_impute_matches_serial_path(self, setting):
        dataset, model, rules = setting
        coarse = dataset.test_windows()[0].coarse()
        reference = _serial_impute(dataset, model, rules, coarse, seed=41)
        with ContinuousBatchingScheduler(
            _enforcer(dataset, model, rules)
        ) as scheduler:
            result = scheduler.impute(coarse, seed=41, wait_timeout=60)
        assert result.status == DONE
        assert result.records == [dict(reference.values)]
        assert result.outcomes[0]["stage"] == reference.stage

    def test_synthesize_count_matches_serial_stream(self, setting):
        dataset, model, rules = setting
        serial = _enforcer(dataset, model, rules, seed=77)
        reference = [serial.synthesize_record() for _ in range(3)]
        with ContinuousBatchingScheduler(
            _enforcer(dataset, model, rules)
        ) as scheduler:
            result = scheduler.synthesize(count=3, seed=77, wait_timeout=60)
        assert result.records == [dict(r.values) for r in reference]

    def test_index_offset_pins_absolute_record_indices(self, setting):
        """index_offset=k makes the request produce records k..k+count-1 of
        the serial stream -- the contract the worker pool's single-record
        sharding (and crash replay) is built on."""
        dataset, model, rules = setting
        serial = _enforcer(dataset, model, rules, seed=55)
        reference = [serial.synthesize_record() for _ in range(4)]
        with ContinuousBatchingScheduler(
            _enforcer(dataset, model, rules)
        ) as scheduler:
            tail = scheduler.submit(
                RequestSpec("synthesize", count=2, seed=55, index_offset=2)
            ).result(timeout=60)
            head = scheduler.submit(
                RequestSpec("synthesize", count=2, seed=55)
            ).result(timeout=60)
        assert head.records == [dict(r.values) for r in reference[:2]]
        assert tail.records == [dict(r.values) for r in reference[2:]]

    def test_parity_survives_concurrent_batch_mates(self, setting):
        """Lane placement and batch-mates never leak into a request."""
        dataset, model, rules = setting
        prompts = [w.coarse() for w in dataset.test_windows()[:6]]
        reference = [
            _serial_impute(dataset, model, rules, c, seed=100 + i)
            for i, c in enumerate(prompts)
        ]
        with ContinuousBatchingScheduler(
            _enforcer(dataset, model, rules), lanes=3
        ) as scheduler:
            handles = [
                scheduler.submit(
                    RequestSpec("impute", coarse=c, seed=100 + i)
                )
                for i, c in enumerate(prompts)
            ]
            results = [h.result(timeout=60) for h in handles]
        for result, expected in zip(results, reference):
            assert result.records == [dict(expected.values)]


class TestDeadlinesAndCancellation:
    def test_expired_request_fails_without_disturbing_batch_mates(
        self, setting
    ):
        """ISSUE acceptance: a blown deadline is isolated to its request."""
        dataset, model, rules = setting
        prompts = [w.coarse() for w in dataset.test_windows()[:4]]
        reference = [
            _serial_impute(dataset, model, rules, c, seed=200 + i)
            for i, c in enumerate(prompts)
        ]
        with ContinuousBatchingScheduler(
            _enforcer(dataset, model, rules), lanes=2
        ) as scheduler:
            doomed = scheduler.submit(
                RequestSpec(
                    "impute", coarse=prompts[0], seed=999, timeout_ms=0
                )
            )
            survivors = [
                scheduler.submit(
                    RequestSpec("impute", coarse=c, seed=200 + i)
                )
                for i, c in enumerate(prompts)
            ]
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=60)
            results = [h.result(timeout=60) for h in survivors]
        assert doomed.status == EXPIRED
        for result, expected in zip(results, reference):
            assert result.records == [dict(expected.values)]
        assert scheduler.metrics()["requests"]["expired"] == 1

    def test_cancel_queued_request(self, setting):
        dataset, model, rules = setting
        prompts = [w.coarse() for w in dataset.test_windows()[:4]]
        with ContinuousBatchingScheduler(
            _enforcer(dataset, model, rules), lanes=1
        ) as scheduler:
            handles = [
                scheduler.submit(RequestSpec("impute", coarse=c, seed=i))
                for i, c in enumerate(prompts)
            ]
            victim = scheduler.submit(
                RequestSpec("impute", coarse=prompts[0], seed=50)
            )
            assert victim.cancel()
            with pytest.raises(RequestCancelled):
                victim.result(timeout=60)
            for handle in handles:
                assert handle.result(timeout=60).status == DONE
        assert victim.status == CANCELLED
        assert scheduler.metrics()["requests"]["cancelled"] == 1

    def test_timeout_ms_zero_never_consumes_a_lane(self, setting):
        dataset, model, rules = setting
        coarse = dataset.test_windows()[0].coarse()
        with ContinuousBatchingScheduler(
            _enforcer(dataset, model, rules)
        ) as scheduler:
            handle = scheduler.submit(
                RequestSpec("impute", coarse=coarse, timeout_ms=0)
            )
            with pytest.raises(DeadlineExceeded):
                handle.result(timeout=60)
        assert handle.status == EXPIRED


class TestLifecycle:
    def test_submit_before_start_raises_server_closed(self, setting):
        dataset, model, rules = setting
        scheduler = ContinuousBatchingScheduler(
            _enforcer(dataset, model, rules)
        )
        with pytest.raises(ServerClosed):
            scheduler.submit(
                RequestSpec(
                    "impute", coarse=dataset.test_windows()[0].coarse()
                )
            )

    def test_graceful_drain_finishes_all_admitted_work(self, setting):
        dataset, model, rules = setting
        prompts = [w.coarse() for w in dataset.test_windows()[:6]]
        scheduler = ContinuousBatchingScheduler(
            _enforcer(dataset, model, rules), lanes=2
        )
        scheduler.start()
        handles = [
            scheduler.submit(RequestSpec("impute", coarse=c, seed=i))
            for i, c in enumerate(prompts)
        ]
        scheduler.stop(drain=True, timeout=120)
        assert not scheduler.running
        for handle in handles:
            assert handle.status == DONE
        with pytest.raises(ServerClosed):
            scheduler.submit(RequestSpec("impute", coarse=prompts[0]))

    def test_metrics_shape_and_counts(self, setting):
        dataset, model, rules = setting
        prompts = [w.coarse() for w in dataset.test_windows()[:3]]
        with ContinuousBatchingScheduler(
            _enforcer(dataset, model, rules), lanes=2
        ) as scheduler:
            for i, coarse in enumerate(prompts):
                scheduler.impute(coarse, seed=i, wait_timeout=60)
            metrics = scheduler.metrics()
        assert metrics["requests"]["submitted"] == 3
        assert metrics["requests"]["completed"] == 3
        assert metrics["records_completed"] == 3
        assert metrics["latency_ms"]["count"] == 3
        assert metrics["latency_ms"]["p50"] <= metrics["latency_ms"]["p99"]
        assert 0.0 < metrics["lm"]["lane_occupancy"] <= 1.0
        assert metrics["oracle_cache"]["capacity"] > 0
        assert metrics["solver_work"]  # non-empty counters

    def test_summary_line_is_single_line_key_value(self, setting):
        dataset, model, rules = setting
        with ContinuousBatchingScheduler(
            _enforcer(dataset, model, rules)
        ) as scheduler:
            scheduler.impute(
                dataset.test_windows()[0].coarse(), seed=1, wait_timeout=60
            )
            line = scheduler.summary_line()
        assert "\n" not in line
        pairs = dict(token.split("=", 1) for token in line.split())
        assert pairs["requests_completed"] == "1"
        assert "p99_ms" in pairs and "lane_occupancy" in pairs
