"""Serving observability: the registry under concurrent admission and the
Prometheus face of ``GET /metrics``.

The scheduler's counters are read by a scraper thread while the scheduler
thread is mutating them, so the tests poll mid-flight and assert the only
properties that can hold under that race: counters are monotonic between
scrapes, gauges stay inside their configured bounds, and the final totals
balance exactly once the work drains.
"""

import json
import urllib.request

import pytest

from repro.core import EnforcerConfig, JitEnforcer
from repro.data import build_dataset
from repro.lm import NgramLM
from repro.obs import MetricsRegistry
from repro.obs.prometheus import (
    CONTENT_TYPE,
    metric_value,
    parse,
)
from repro.rules import domain_bound_rules, paper_rules
from repro.serve import ContinuousBatchingScheduler, RequestSpec, ServingServer


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


_COUNTERS = (
    "repro_serve_requests_submitted_total",
    "repro_serve_requests_completed_total",
    "repro_serve_records_completed_total",
    "repro_serve_lm_calls_total",
    "repro_serve_lm_rows_total",
)


class TestSchedulerRegistry:
    def test_counters_monotonic_gauges_bounded_under_admission(self, setting):
        dataset, model, rules = setting
        registry = MetricsRegistry()
        prompts = [w.coarse() for w in dataset.test_windows()[:8]]
        lanes = 3
        with ContinuousBatchingScheduler(
            _enforcer(dataset, model, rules), lanes=lanes, registry=registry
        ) as scheduler:
            handles = [
                scheduler.submit(RequestSpec("impute", coarse=c, seed=i))
                for i, c in enumerate(prompts)
            ]
            previous = {name: 0.0 for name in _COUNTERS}
            # Scrape continuously while the scheduler thread is working.
            while any(not h.done for h in handles):
                values = registry.snapshot()
                for name in _COUNTERS:
                    assert values[name] >= previous[name], name
                    previous[name] = values[name]
                assert 0 <= values["repro_serve_lanes_busy"] <= lanes
                assert (
                    values["repro_serve_queue_depth"]
                    <= scheduler.queue.max_depth
                )
            for handle in handles:
                handle.result(timeout=60)

        values = registry.snapshot()
        assert values["repro_serve_requests_submitted_total"] == len(prompts)
        assert values["repro_serve_requests_completed_total"] == len(prompts)
        assert values["repro_serve_records_completed_total"] == len(prompts)
        assert values["repro_serve_request_latency_ms_count"] == len(prompts)
        assert values["repro_serve_lanes"] == lanes

    def test_enforcer_ladder_and_budget_ride_along(self, setting):
        """Satellite: ladder-rung and budget counters reach serving scrape."""
        dataset, model, rules = setting
        registry = MetricsRegistry()
        with ContinuousBatchingScheduler(
            _enforcer(dataset, model, rules), lanes=2, registry=registry
        ) as scheduler:
            scheduler.impute(
                dataset.test_windows()[0].coarse(), seed=3, wait_timeout=60
            )
            text = scheduler.prometheus_text()
        parsed = parse(text)
        assert metric_value(
            parsed, "repro_enforcer_ladder_records_total",
            {"stage": "smt-confirm"},
        ) == 1.0
        # Every rung is present even at zero (operator-visible evidence).
        rungs = {
            labels["stage"]
            for labels, _ in parsed["repro_enforcer_ladder_records_total"]
        }
        assert rungs == {
            "smt-confirm", "interval-audit", "forced-model",
            "posthoc-repair", "clamped",
        }
        assert metric_value(
            parsed, "repro_enforcer_budget_exhaustions_total"
        ) == 0.0
        assert metric_value(
            parsed, "repro_serve_oracle_cache_hits_total"
        ) is not None
        # perfbench's serving workload indexes these three names directly.
        for key in ("hits", "fallbacks"):
            assert metric_value(
                parsed, f"repro_mask_lookup_{key}_total"
            ) == 0.0
        assert metric_value(
            parsed, "repro_mask_lookup_live_queries_total"
        ) > 0

    def test_metrics_json_includes_budget_block(self, setting):
        dataset, model, rules = setting
        with ContinuousBatchingScheduler(
            _enforcer(dataset, model, rules), registry=MetricsRegistry()
        ) as scheduler:
            scheduler.impute(
                dataset.test_windows()[0].coarse(), seed=1, wait_timeout=60
            )
            metrics = scheduler.metrics()
        assert metrics["budget"] == {
            "exhaustions": 0, "retries": 0, "unknown_confirms": 0,
        }


class TestHttpNegotiation:
    @pytest.fixture(scope="class")
    def server(self, setting):
        dataset, model, rules = setting
        scheduler = ContinuousBatchingScheduler(
            _enforcer(dataset, model, rules),
            lanes=2,
            registry=MetricsRegistry(),
        )
        with ServingServer(scheduler, port=0) as srv:
            body = json.dumps(
                {"coarse": dict(dataset.test_windows()[0].coarse()), "seed": 5}
            ).encode()
            urllib.request.urlopen(
                urllib.request.Request(
                    srv.url + "/v1/impute",
                    data=body,
                    headers={"Content-Type": "application/json"},
                )
            )
            yield srv

    def _get(self, server, path, accept=None):
        headers = {"Accept": accept} if accept else {}
        response = urllib.request.urlopen(
            urllib.request.Request(server.url + path, headers=headers)
        )
        return response.headers["Content-Type"], response.read().decode()

    def test_default_scrape_stays_json(self, server):
        content_type, body = self._get(server, "/metrics")
        assert content_type == "application/json"
        assert json.loads(body)["requests"]["completed"] >= 1

    def test_accept_text_plain_negotiates_prometheus(self, server):
        content_type, body = self._get(
            server, "/metrics", accept="text/plain"
        )
        assert content_type == CONTENT_TYPE
        parsed = parse(body)  # raises on any malformed line
        assert (
            metric_value(parsed, "repro_serve_requests_completed_total")
            >= 1.0
        )

    def test_format_query_param_negotiates_prometheus(self, server):
        content_type, body = self._get(server, "/metrics?format=prometheus")
        assert content_type == CONTENT_TYPE
        assert metric_value(
            parse(body), "repro_serve_request_latency_ms_count"
        ) >= 1.0

    def test_openmetrics_accept_header_also_negotiates(self, server):
        content_type, _ = self._get(
            server, "/metrics",
            accept="application/openmetrics-text;version=1.0.0",
        )
        assert content_type == CONTENT_TYPE

    def test_wildcard_accept_stays_json(self, server):
        # curl sends Accept: */* -- the CI smoke's JSON parse must survive.
        content_type, body = self._get(server, "/metrics", accept="*/*")
        assert content_type == "application/json"
        json.loads(body)
