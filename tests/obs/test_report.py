"""obs-report aggregation: per-stage tables and the solver-vs-LM split."""

from repro.obs import ManualClock, SpanTracer
from repro.obs.report import SOLVER_SPANS, aggregate, format_report


def _synthetic_trace():
    """Two records with known timing, plus one shared (batched) LM span."""
    clock = ManualClock()
    tracer = SpanTracer(clock=clock)

    rec1 = tracer.start("record")
    step1 = tracer.start("step", parent=rec1)
    lm1 = tracer.start("lm_forward", parent=rec1)
    clock.advance(0.010)
    tracer.end(lm1)
    fs1 = tracer.start("feasible_digits", parent=step1)
    clock.advance(0.020)
    tracer.end(fs1)
    confirm1 = tracer.start("smt_confirm", parent=step1)
    check1 = tracer.start("smt_check", parent=confirm1)
    clock.advance(0.030)
    tracer.end(check1)
    tracer.end(confirm1)
    tracer.end(step1)
    clock.advance(0.040)  # unattributed bookkeeping inside the record
    tracer.end(rec1)

    rec2 = tracer.start("record")
    repair2 = tracer.start("repair", parent=rec2)
    clock.advance(0.050)
    tracer.end(repair2)
    tracer.end(rec2)

    shared = tracer.start("lm_forward", parent=None, attrs={"rows": 2})
    clock.advance(0.005)
    tracer.end(shared)

    return tracer.drain(), rec1, rec2


class TestAggregate:
    def test_per_record_attribution(self):
        spans, rec1, rec2 = _synthetic_trace()
        report = aggregate(spans)
        assert report["records"] == 2
        rows = {row["record_span"]: row for row in report["per_record"]}
        r1 = rows[rec1]
        assert r1["steps"] == 1
        assert r1["lm_ms"] == 10.0
        # smt_check nests inside smt_confirm and must not double-bill:
        # solver time is feasible (20) + confirm (30), not + check (30).
        assert r1["solver_ms"] == 50.0
        assert r1["wall_ms"] == 100.0
        assert r1["other_ms"] == 40.0
        r2 = rows[rec2]
        assert r2["solver_ms"] == 50.0
        assert r2["lm_ms"] == 0.0

    def test_shared_lm_bucket_for_unparented_forwards(self):
        spans, _, _ = _synthetic_trace()
        totals = aggregate(spans)["totals"]
        assert totals["shared_lm_ms"] == 5.0
        assert totals["lm_ms"] == 15.0  # per-record 10 + shared 5
        assert totals["solver_ms"] == 100.0
        assert totals["lm_share"] + totals["solver_share"] == 1.0

    def test_stage_table_counts_every_span_name(self):
        spans, _, _ = _synthetic_trace()
        stages = aggregate(spans)["stages"]
        assert stages["record"]["count"] == 2
        assert stages["lm_forward"]["count"] == 2
        assert stages["smt_check"]["count"] == 1
        assert stages["smt_confirm"]["total_ms"] == 30.0
        assert stages["repair"]["max_ms"] == 50.0

    def test_smt_check_excluded_from_solver_spans(self):
        assert "smt_check" not in SOLVER_SPANS

    def test_orphan_spans_fall_into_shared_bucket(self):
        clock = ManualClock()
        tracer = SpanTracer(clock=clock)
        lm = tracer.start("lm_forward", parent=12345)  # parent never emitted
        clock.advance(0.008)
        tracer.end(lm)
        report = aggregate(tracer.drain())
        assert report["records"] == 0
        assert report["totals"]["shared_lm_ms"] == 8.0

    def test_format_report_renders_tables(self):
        spans, _, _ = _synthetic_trace()
        text = format_report(aggregate(spans))
        assert "2 records" in text
        assert "per-record breakdown" in text
        assert "shared_lm=5.00ms" in text
