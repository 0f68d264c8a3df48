"""HTTP front-end tests over a real loopback socket (ephemeral port)."""

import http.client
import json
import socketserver
import urllib.request

import pytest

from repro.core import EnforcerConfig, JitEnforcer
from repro.data import build_dataset
from repro.errors import DeadlineExceeded
from repro.lm import NgramLM
from repro.rules import domain_bound_rules, paper_rules
from repro.serve import (
    ContinuousBatchingScheduler,
    ServeClient,
    ServeClientError,
    ServingServer,
)


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


@pytest.fixture(scope="module")
def server(setting):
    dataset, model, rules = setting
    scheduler = ContinuousBatchingScheduler(
        _enforcer(dataset, model, rules), lanes=2
    )
    with ServingServer(scheduler, port=0) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    host, port = server.address
    return ServeClient(host, port, timeout=60)


def _post_raw(server, path, body: bytes, content_type="application/json"):
    """Raw POST that surfaces the HTTP status instead of raising."""
    request = urllib.request.Request(
        server.url + path,
        data=body,
        method="POST",
        headers={"Content-Type": content_type},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestRoundTrips:
    def test_impute_matches_serial_path(self, setting, client):
        dataset, model, rules = setting
        coarse = dataset.test_windows()[0].coarse()
        reference = _enforcer(
            dataset, model, rules, seed=41
        ).impute_record(coarse)
        reply = client.impute(coarse, seed=41)
        assert reply["status"] == "done"
        assert reply["records"] == [dict(reference.values)]

    def test_synthesize_returns_count_records(self, client):
        reply = client.synthesize(count=2, seed=9)
        assert len(reply["records"]) == 2
        assert len(reply["outcomes"]) == 2

    def test_healthz_reports_lanes_and_queue(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["lanes"] == 2
        assert health["queue_depth"] >= 0

    def test_metrics_roundtrip(self, client):
        metrics = client.metrics()
        assert metrics["requests"]["completed"] >= 1
        assert "latency_ms" in metrics and "oracle_cache" in metrics


class TestErrorMapping:
    def test_blown_deadline_maps_to_504(self, setting, client):
        dataset, _, _ = setting
        coarse = dataset.test_windows()[0].coarse()
        with pytest.raises(DeadlineExceeded):
            client.impute(coarse, timeout_ms=0)

    def test_invalid_json_is_400(self, server):
        status, payload = _post_raw(server, "/v1/impute", b"{not json")
        assert status == 400
        assert "invalid JSON" in payload["error"]

    def test_missing_coarse_field_is_400(self, server):
        status, payload = _post_raw(
            server, "/v1/impute", json.dumps({"coarse": {"total": 5}}).encode()
        )
        assert status == 400
        assert "missing" in payload["error"]

    def test_non_integer_count_is_400(self, server):
        status, _ = _post_raw(
            server, "/v1/synthesize", json.dumps({"count": "three"}).encode()
        )
        assert status == 400

    def test_unknown_path_is_404(self, server):
        status, _ = _post_raw(server, "/v1/nothing", b"{}")
        assert status == 404

    def test_unknown_get_path_is_404(self, server, client):
        with pytest.raises(ServeClientError) as info:
            client._request("GET", "/nothing")
        assert info.value.status == 404

    def test_empty_body_is_400(self, server):
        status, payload = _post_raw(server, "/v1/synthesize", b"")
        assert status == 400
        assert "empty" in payload["error"]


class TestKeepAlive:
    def test_each_response_leaves_in_one_write(self, server, monkeypatch):
        """Headers and body share one socket write, so a kept-alive
        client's delayed ACK cannot hold the body back."""
        writes = []
        original = socketserver._SocketWriter.write

        def counting_write(self, data):
            writes.append(bytes(data))
            return original(self, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write", counting_write)
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/healthz")
            first = conn.getresponse()
            assert json.loads(first.read())["status"] == "ok"
            sock = conn.sock
            for seed in (3, 4):
                conn.request(
                    "POST", "/v1/synthesize",
                    body=json.dumps({"count": 1, "seed": seed}),
                    headers={"Content-Type": "application/json"},
                )
                reply = conn.getresponse()
                assert reply.status == 200
                assert len(json.loads(reply.read())["records"]) == 1
            assert conn.sock is sock  # one kept-alive connection throughout
        finally:
            conn.close()
        assert len(writes) == 3
        assert all(w.startswith(b"HTTP/1.1 200") for w in writes)
