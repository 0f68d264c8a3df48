"""End-to-end CLI workflow tests."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.jsonl"
    model = root / "model.json"
    rules = root / "rules.json"
    assert main(["dataset", "--out", str(data), "--racks", "4",
                 "--windows", "40", "--seed", "1"]) == 0
    assert main(["train", "--data", str(data), "--out", str(model)]) == 0
    assert main(["mine", "--data", str(data), "--out", str(rules),
                 "--slack", "2"]) == 0
    return root, data, model, rules


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dataset_output_is_jsonl(self, workspace):
        _, data, _, _ = workspace
        lines = data.read_text().strip().splitlines()
        assert len(lines) == 4 * 40
        record = json.loads(lines[0])
        assert "total" in record and "I0" in record

    def test_model_file_loadable(self, workspace):
        from repro.lm import load_ngram

        _, _, model_path, _ = workspace
        model = load_ngram(model_path)
        assert model.order == 6

    def test_rules_file_loadable(self, workspace):
        from repro.rules import load_rules

        _, _, _, rules_path = workspace
        rules = load_rules(rules_path)
        assert len(rules) > 50

    def test_impute_command(self, workspace, capsys):
        _, _, model, rules = workspace
        code = main([
            "impute", "--model", str(model), "--rules", str(rules),
            "--total", "50", "--cong", "0", "--retx", "0", "--egr", "50",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert sum(payload["fine"].values()) == 50  # sum rule enforced

    def test_synth_command(self, workspace, capsys):
        _, _, model, rules_path = workspace
        # Synthesis rules scope: mine them for this test.
        root = workspace[0]
        synth_rules = root / "synth_rules.json"
        assert main(["mine", "--data", str(workspace[1]), "--out",
                     str(synth_rules), "--scope", "synthesis"]) == 0
        capsys.readouterr()
        code = main(["synth", "--model", str(model), "--rules",
                     str(synth_rules), "-n", "3", "--seed", "0"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        from repro.rules import load_rules

        rules = load_rules(synth_rules)
        for line in lines:
            record = json.loads(line)
            assert rules.compliant(record)

    def test_empty_dataset_rejected(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(SystemExit):
            main(["train", "--data", str(empty), "--out",
                  str(tmp_path / "m.json")])


class TestStreamCli:
    @pytest.fixture(scope="class")
    def stream_workspace(self, workspace, tmp_path_factory):
        root = tmp_path_factory.mktemp("stream")
        _, data, model, _ = workspace
        rules = root / "stream_rules.json"
        assert main(["mine", "--data", str(data), "--out", str(rules),
                     "--scope", "stream", "--slack", "2"]) == 0
        return root, data, model, rules

    def test_mine_stream_scope_adds_temporal_rules(self, stream_workspace):
        from repro.rules import load_rules

        rules = load_rules(stream_workspace[3])
        kinds = {rule.kind for rule in rules}
        assert any(kind.startswith("temporal-") for kind in kinds)
        assert "sum" in kinds  # the imputation rules ride along

    def test_impute_with_stream_scope_pack(self, stream_workspace, capsys):
        # A lone record has no history fields: the audit covers the rules
        # it can bind instead of raising on the temporal ones.
        _, _, model, rules = stream_workspace
        code = main([
            "impute", "--model", str(model), "--rules", str(rules),
            "--total", "80", "--cong", "2", "--retx", "1", "--egr", "80",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["compliant"] is True
        assert sum(payload["fine"].values()) == 80

    def test_generate_is_deterministic_jsonl(self, capsys):
        assert main(["stream", "--generate", "12", "--stream-seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["stream", "--generate", "12", "--stream-seed", "5"]) == 0
        second = capsys.readouterr().out
        assert first == second
        events = [json.loads(line) for line in first.strip().splitlines()]
        assert len(events) == 12
        assert sorted(e["seq"] for e in events) == list(range(12))
        arrivals = [e["arrival_time"] for e in events]
        assert arrivals == sorted(arrivals)  # delivered in arrival order

    def test_enforce_replays_byte_identically(
        self, stream_workspace, capsys
    ):
        root, _, model, rules = stream_workspace
        events = root / "events.jsonl"
        assert main(["stream", "--generate", "8", "--stream-seed", "7",
                     "--late-fraction", "0.2"]) == 0
        events.write_text(capsys.readouterr().out)

        def run():
            code = main([
                "stream", "--model", str(model), "--rules", str(rules),
                "--input", str(events), "--late-policy", "patch",
                "--seed", "3", "--progress-every", "4",
            ])
            assert code == 0
            return capsys.readouterr()

        first, second = run(), run()
        assert first.out == second.out
        lines = first.out.strip().splitlines()
        assert len(lines) >= 8  # every event accounted for
        for line in lines:
            emission = json.loads(line)
            assert emission["kind"] in ("record", "late", "reemit")
            assert "watermark" in emission and "record" in emission
        assert "stream_summary" in first.err

    def test_enforce_stamps_deterministic_trace_id(
        self, stream_workspace, capsys
    ):
        from repro.obs import parse_kv
        from repro.obs.merge import stream_trace_id

        root, _, model, rules = stream_workspace
        events = root / "trace_events.jsonl"
        assert main(["stream", "--generate", "5", "--stream-seed", "2"]) == 0
        events.write_text(capsys.readouterr().out)
        assert main([
            "stream", "--model", str(model), "--rules", str(rules),
            "--input", str(events), "--late-policy", "patch", "--seed", "3",
        ]) == 0
        captured = capsys.readouterr()
        expected = stream_trace_id("stream-3", 3)
        for line in captured.out.strip().splitlines():
            assert json.loads(line)["trace"] == expected
        summary = next(
            line for line in captured.err.splitlines()
            if "stream_summary" in line
        )
        _, pairs = parse_kv(summary)
        assert pairs["trace"] == expected

    def test_enforce_evicts_oracle_cache_per_window(
        self, stream_workspace, capsys, monkeypatch
    ):
        # Every enforcer has an oracle cache, so each window roll of the
        # serial executor drops that window's memoized partitions.
        import repro.stream

        executors = []

        class RecordingExecutor(repro.stream.EnforcerExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                executors.append(self)

        monkeypatch.setattr(repro.stream, "EnforcerExecutor", RecordingExecutor)
        root, _, model, rules = stream_workspace
        events = root / "evict_events.jsonl"
        assert main(["stream", "--generate", "6", "--stream-seed", "4"]) == 0
        events.write_text(capsys.readouterr().out)
        assert main([
            "stream", "--model", str(model), "--rules", str(rules),
            "--input", str(events), "--window", "2", "--seed", "3",
        ]) == 0
        capsys.readouterr()
        (executor,) = executors
        assert executor.records == 6
        assert executor.cache_evictions > 0

    def test_enforce_requires_model_and_rules(self):
        with pytest.raises(SystemExit):
            main(["stream", "--input", "-"])


class TestObservabilityCli:
    def test_impute_trace_out_then_obs_report(
        self, workspace, tmp_path, capsys
    ):
        _, _, model, rules = workspace
        trace = tmp_path / "trace.jsonl"
        code = main([
            "impute", "--model", str(model), "--rules", str(rules),
            "--total", "50", "--cong", "0", "--retx", "0", "--egr", "50",
            "--trace-out", str(trace),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert f"trace out={trace}" in captured.err

        from repro.obs.trace import load_trace

        spans = load_trace(trace)  # validates every line
        names = {span["name"] for span in spans}
        assert {"record", "step", "lm_forward", "feasible_digits"} <= names

        assert main(["obs-report", "--trace", str(trace)]) == 0
        captured = capsys.readouterr()
        assert "worker_sinks=0" in captured.err
        assert "per-record breakdown" in captured.out
        assert "1 records" in captured.out

    def test_obs_report_json_on_single_process_trace(
        self, workspace, tmp_path, capsys
    ):
        _, _, model, rules = workspace
        trace = tmp_path / "trace.jsonl"
        main([
            "impute", "--model", str(model), "--rules", str(rules),
            "--total", "40", "--cong", "1", "--retx", "0", "--egr", "40",
            "--trace-out", str(trace),
        ])
        capsys.readouterr()
        assert main(["obs-report", "--trace", str(trace), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["records"] == 1
        assert report["totals"]["lm_ms"] > 0
        assert report["totals"]["solver_ms"] > 0
        assert report["totals"]["lm_share"] + report["totals"][
            "solver_share"
        ] == pytest.approx(1.0)

    def test_obs_report_rejects_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"v": 1, "span": "nope"}\n')
        with pytest.raises(SystemExit, match="malformed trace"):
            main(["obs-report", "--trace", str(bad)])

    def test_stderr_records_parse_with_shared_kv_convention(
        self, workspace, capsys
    ):
        from repro.obs import parse_kv

        _, _, model, rules = workspace
        main([
            "impute", "--model", str(model), "--rules", str(rules),
            "--total", "50", "--cong", "0", "--retx", "0", "--egr", "50",
        ])
        err_lines = capsys.readouterr().err.strip().splitlines()
        events = {}
        for line in err_lines:
            event, pairs = parse_kv(line)
            events[event] = pairs
        assert events["degradation"]["records"] == "1"
        assert "records_per_sec" in events["throughput"]

    def test_serial_impute_reports_oracle_cache_hit_rate(
        self, workspace, capsys
    ):
        # The serial path (no --batch-size) caches oracle answers too.
        from repro.obs import parse_kv

        _, _, model, rules = workspace
        assert main([
            "impute", "--model", str(model), "--rules", str(rules),
            "--total", "50", "--cong", "0", "--retx", "0", "--egr", "50",
        ]) == 0
        throughput = next(
            parse_kv(line)[1]
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("throughput")
        )
        assert 0.0 <= float(throughput["oracle_cache_hit_rate"]) <= 1.0

    def test_obs_report_merges_and_reports(self, tmp_path, capsys):
        from repro.obs import ManualClock, SpanTracer, load_trace

        trace = tmp_path / "trace.jsonl"
        trace_id = "ab" * 16
        parent = SpanTracer(sink=trace, clock=ManualClock())
        parent.end(
            parent.start("request", attrs={"trace_id": trace_id}),
        )
        parent.close()
        worker_sink = tmp_path / "trace.jsonl.w0.g0"
        worker = SpanTracer(sink=worker_sink, clock=ManualClock())
        record = worker.start("record", attrs={"trace_id": trace_id})
        worker.end(worker.start("step", parent=record))
        worker.end(record)
        worker.close()

        merged_out = tmp_path / "merged.jsonl"
        code = main([
            "obs-report", "--trace", str(trace),
            "--merged-out", str(merged_out), "--json",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "worker_sinks=1" in captured.err
        report = json.loads(captured.out)
        assert report["records"] == 1
        assert "w0.g0" in report["by_worker"]
        assert trace_id in report["by_trace"]
        merged = load_trace(merged_out)
        by_name = {span["name"]: span for span in merged}
        assert by_name["record"]["parent"] == by_name["request"]["span"]

    def test_obs_report_tolerates_killed_worker_tail(self, tmp_path, capsys):
        from repro.obs import ManualClock, SpanTracer

        trace = tmp_path / "trace.jsonl"
        tracer = SpanTracer(sink=trace, clock=ManualClock())
        tracer.end(tracer.start("request", attrs={"trace_id": "cd" * 16}))
        tracer.close()
        # A SIGKILLed worker leaves a torn trailing line in its sink.
        (tmp_path / "trace.jsonl.w0.g0").write_text('{"v": 1, "span')
        assert main(["obs-report", "--trace", str(trace), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["spans"] == 1

    def test_tracing_is_disabled_after_the_command(self, workspace, tmp_path):
        from repro.obs import OBS

        _, _, model, rules = workspace
        main([
            "impute", "--model", str(model), "--rules", str(rules),
            "--total", "50", "--cong", "0", "--retx", "0", "--egr", "50",
            "--trace-out", str(tmp_path / "t.jsonl"),
        ])
        assert OBS.active is False
        assert OBS.tracer is None
