"""``POST /v1/stream`` end to end: the serial streaming driver and the
HTTP front end (single scheduler or multi-process worker pool, fixed or
chunked request framing) must produce byte-identical emission lines --
including across a worker crash mid-stream.
"""

import threading

import pytest

from repro.core import EnforcerConfig, JitEnforcer
from repro.data import build_dataset
from repro.lm import NgramLM
from repro.obs.merge import stream_trace_id
from repro.rules import RuleSet, domain_bound_rules, paper_rules
from repro.serve import (
    ContinuousBatchingScheduler,
    ServeClient,
    ServeClientError,
    ServingServer,
    WorkerPool,
    parse_stream_header,
)
from repro.stream import (
    EnforcerExecutor,
    StreamConfig,
    StreamSession,
    combine_rule_sets,
    mine_stream_rules,
    stream_bounds,
)
from repro.testing import (
    CrashingLM,
    FlakyStreamSource,
    kill_worker,
    wait_for_sentinel_pid,
)


@pytest.fixture(scope="module")
def setting():
    dataset = build_dataset(
        num_train_racks=3, num_test_racks=1, windows_per_rack=24, seed=3
    )
    model = NgramLM(order=6).fit(dataset.train_texts())
    temporal = mine_stream_rules(
        [rack.windows for rack in dataset.train_racks], dataset.config
    )
    small = RuleSet(name="http-temporal")
    for rule in list(temporal)[:24]:
        small.add(rule)
    rules = combine_rule_sets(paper_rules(dataset.config), small)
    events = [
        {"seq": i, "event_time": float(i), "coarse": window.coarse()}
        for i, window in enumerate(
            (dataset.test_windows() + dataset.train_windows())[:30]
        )
    ]
    return dataset, model, rules, events


def _enforcer(setting, seed=13, model=None):
    dataset, default_model, rules, _ = setting
    model = default_model if model is None else model
    return JitEnforcer(
        model, rules, dataset.config, EnforcerConfig(seed=seed),
        fallback_rules=[domain_bound_rules(dataset.config)],
        bounds=stream_bounds(dataset.config),
    )


def _serial_lines(setting, events, seed=0, window=2, late_policy="patch"):
    dataset = setting[0]
    # The same deterministic correlation id /v1/stream mints for the
    # default stream id, so emission bytes (including the "trace" key)
    # stay comparable across drivers.
    session = StreamSession(
        StreamConfig(window=window, late_policy=late_policy, seed=seed),
        EnforcerExecutor(_enforcer(setting), seed=seed),
        telemetry_config=dataset.config,
        trace_id=stream_trace_id(f"stream-{seed}", seed),
    )
    emissions = []
    for event in events:
        emissions.extend(session.ingest(event))
    emissions.extend(session.close())
    return [e.encode() for e in emissions]


def _http_lines(client, events, chunked=False, **kwargs):
    import json

    return [
        json.dumps(reply, sort_keys=True, separators=(",", ":"))
        for reply in client.stream(events, chunked=chunked, **kwargs)
        if "error" not in reply
    ]


@pytest.fixture(scope="module")
def server(setting):
    dataset, model, rules, _ = setting
    scheduler = ContinuousBatchingScheduler(_enforcer(setting), lanes=2)
    with ServingServer(
        scheduler, port=0, telemetry_config=dataset.config
    ) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    host, port = server.address
    return ServeClient(host, port, timeout=120)


class TestSchedulerStreamParity:
    def test_http_matches_serial_bytes(self, setting, client):
        events = setting[3]
        serial = _serial_lines(setting, events)
        http = _http_lines(client, events, seed=0, late_policy="patch")
        assert http == serial

    def test_chunked_request_framing_is_byte_invisible(self, setting, client):
        events = setting[3]
        fixed = _http_lines(client, events, seed=0, late_policy="patch")
        chunked = _http_lines(
            client, events, chunked=True, seed=0, late_policy="patch"
        )
        assert chunked == fixed

    def test_disordered_delivery_matches_serial(self, setting, client):
        events = list(FlakyStreamSource(setting[3], seed=2, late_rate=0.1))
        serial = _serial_lines(setting, events)
        http = _http_lines(client, events, seed=0, late_policy="patch")
        assert http == serial

    def test_emissions_arrive_in_seq_order_per_kind(self, setting, client):
        events = setting[3]
        replies = list(client.stream(events, seed=0))
        on_time = [r["seq"] for r in replies if r["kind"] == "record"]
        assert on_time == sorted(on_time)


class TestStreamErrors:
    def test_bad_header_is_a_400(self, setting, client):
        with pytest.raises(ServeClientError) as err:
            list(client.stream(setting[3], window=99))
        assert err.value.status == 400

    def test_unknown_rule_set_is_a_404(self, setting, client):
        with pytest.raises(ServeClientError) as err:
            list(client.stream(setting[3], rule_set="no-such-pack"))
        assert err.value.status == 404

    def test_bad_event_line_reports_and_continues(self, setting, client):
        events = [setting[3][0], {"seq": -4}, setting[3][1]]
        replies = list(client.stream(events, seed=0))
        errors = [r for r in replies if "error" in r]
        records = [r for r in replies if "error" not in r]
        assert len(errors) == 1
        assert [r["seq"] for r in records] == [0, 1]

    def test_header_parser_validates(self):
        config, rule_set, stream_id = parse_stream_header(
            {"seed": 4, "window": 3, "late_policy": "patch"}
        )
        assert config.seed == 4 and config.window == 3
        assert rule_set is None and stream_id == "stream-4"
        with pytest.raises(ValueError):
            parse_stream_header({"late_policy": "retry"})
        with pytest.raises(ValueError):
            parse_stream_header({"window": 0})
        with pytest.raises(ValueError):
            parse_stream_header({"lateness": -1})


class TestWorkerPoolStream:
    def test_pool_stream_matches_serial_bytes(self, setting):
        dataset, model, rules, events = setting
        serial = _serial_lines(setting, events)

        def factory():
            return _enforcer(setting)

        with WorkerPool(
            factory, workers=2, lanes_per_worker=2
        ) as pool, ServingServer(
            pool, port=0, telemetry_config=dataset.config
        ) as srv:
            host, port = srv.address
            pool_client = ServeClient(host, port, timeout=120)
            lines = _http_lines(
                pool_client, events, seed=0, late_policy="patch"
            )
        assert lines == serial

    def test_worker_kill_mid_stream_keeps_byte_parity(
        self, setting, tmp_path
    ):
        dataset, model, rules, events = setting
        serial = _serial_lines(setting, events)
        # The stream's home worker holds one LM call a few records in, so
        # the kill lands while a record is in flight on it.
        sentinel = str(tmp_path / "hold-once")

        def factory():
            return _enforcer(setting, model=CrashingLM(
                model, crash_at={150}, hold_s=60.0, crash_once_path=sentinel
            ))

        with WorkerPool(
            factory, workers=2, lanes_per_worker=2, backoff_base=0.05
        ) as pool, ServingServer(
            pool, port=0, telemetry_config=dataset.config
        ) as srv:
            host, port = srv.address
            pool_client = ServeClient(host, port, timeout=240)

            killed = threading.Event()

            def assassin():
                kill_worker(wait_for_sentinel_pid(sentinel))
                killed.set()

            thread = threading.Thread(target=assassin)
            thread.start()
            try:
                lines = _http_lines(
                    pool_client, events, seed=0, late_policy="patch"
                )
            finally:
                thread.join()
            assert killed.is_set()
            assert pool.worker_crashes >= 1
            assert pool.units_lost == 0
        assert lines == serial
