"""Aggregate a JSONL span trace into the paper's Fig.-3-style breakdown.

The paper's runtime claim is about *where enforcement time goes*: solver
lookahead vs LM inference per emitted record.  Given a trace produced by
the built-in instrumentation, :func:`aggregate` reconstructs exactly that:

* a per-stage table (count / total / mean / max milliseconds per span name);
* a per-record attribution: for every ``record`` span, the summed duration
  of its ``lm_forward`` descendants (LM time) vs its ``feasible_digits`` +
  ``smt_confirm`` + ``repair`` descendants (solver time), with the record's
  remaining wall time as "other" (sampling arithmetic, bookkeeping);
* trace-wide totals and shares.

Batched drivers emit ``lm_forward`` spans with no parent (one span serves
many records); those are reported in a separate ``shared_lm`` bucket rather
than being misattributed to any single record.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

__all__ = [
    "aggregate",
    "aggregate_distributed",
    "format_report",
    "format_distributed_report",
    "SOLVER_SPANS",
]

#: Top-level solver-side span names.  ``smt_check`` is deliberately absent:
#: it nests *inside* these, and counting both would double-bill the solver.
SOLVER_SPANS = ("feasible_digits", "smt_confirm", "repair", "oracle_begin")

_MS = 1000.0


def _stage_row(durations: Sequence[float]) -> Dict[str, float]:
    total = sum(durations)
    return {
        "count": len(durations),
        "total_ms": round(total * _MS, 3),
        "mean_ms": round(total * _MS / len(durations), 4) if durations else 0.0,
        "max_ms": round(max(durations) * _MS, 3) if durations else 0.0,
    }


def aggregate(spans: Sequence[Dict]) -> Dict:
    """Aggregate validated span dicts (see :func:`repro.obs.trace.load_trace`).

    Parent links may point at spans that never closed (aborted sessions);
    such orphans are attributed to the nearest *known* ancestor, or to the
    shared bucket when no record ancestor exists.
    """
    by_id = {span["span"]: span for span in spans}
    stage_durations: Dict[str, List[float]] = {}
    for span in spans:
        stage_durations.setdefault(span["name"], []).append(span["dur_s"])

    def record_ancestor(span: Dict) -> Optional[int]:
        seen = set()
        current = span
        while True:
            if current["name"] == "record":
                return current["span"]
            parent = current.get("parent")
            if parent is None or parent in seen or parent not in by_id:
                return None
            seen.add(parent)
            current = by_id[parent]

    records: Dict[int, Dict[str, float]] = {}
    shared_lm_s = 0.0
    # LM time split by the lm_forward span's "mode" attr: "incremental" =
    # KV-cached model, "full" = a model without a KV cache (n-gram).  Spans
    # from traces predating the attribute count as "full".
    lm_mode_s: Dict[str, float] = {}
    lm_mode_calls: Dict[str, int] = {}
    # Per rule-set fingerprint (the oracle-cache partition key), so solver
    # traffic is attributable per tenant.
    solver_by_fingerprint: Dict[str, Dict[str, float]] = {}
    for span in spans:
        if span["name"] == "record":
            records.setdefault(
                span["span"],
                {"lm_s": 0.0, "solver_s": 0.0, "wall_s": 0.0, "steps": 0},
            )["wall_s"] = span["dur_s"]
    for span in spans:
        name = span["name"]
        if name not in ("lm_forward", "step") and name not in SOLVER_SPANS:
            continue
        owner = record_ancestor(span)
        if name == "lm_forward":
            mode = str(span.get("attrs", {}).get("mode", "full"))
            lm_mode_s[mode] = lm_mode_s.get(mode, 0.0) + span["dur_s"]
            lm_mode_calls[mode] = lm_mode_calls.get(mode, 0) + 1
            if owner is None:
                shared_lm_s += span["dur_s"]
            else:
                records[owner]["lm_s"] += span["dur_s"]
        elif name == "step":
            if owner is not None:
                records[owner]["steps"] += 1
        elif owner is not None:
            records[owner]["solver_s"] += span["dur_s"]
            fp = str(by_id[owner].get("attrs", {}).get("fingerprint", "default"))
            row = solver_by_fingerprint.setdefault(
                fp, {"queries": 0, "solver_ms": 0.0}
            )
            row["queries"] += 1
            row["solver_ms"] = round(row["solver_ms"] + span["dur_s"] * _MS, 3)

    per_record = []
    for span_id in sorted(records):
        row = records[span_id]
        other = max(0.0, row["wall_s"] - row["lm_s"] - row["solver_s"])
        per_record.append({
            "record_span": span_id,
            "steps": row["steps"],
            "wall_ms": round(row["wall_s"] * _MS, 3),
            "lm_ms": round(row["lm_s"] * _MS, 3),
            "solver_ms": round(row["solver_s"] * _MS, 3),
            "other_ms": round(other * _MS, 3),
        })

    lm_total = sum(r["lm_s"] for r in records.values()) + shared_lm_s
    solver_total = sum(r["solver_s"] for r in records.values())
    wall_total = sum(r["wall_s"] for r in records.values())
    attributed = lm_total + solver_total
    return {
        "spans": len(spans),
        "records": len(records),
        "stages": {
            name: _stage_row(durations)
            for name, durations in sorted(stage_durations.items())
        },
        "per_record": per_record,
        "totals": {
            "record_wall_ms": round(wall_total * _MS, 3),
            "lm_ms": round(lm_total * _MS, 3),
            "solver_ms": round(solver_total * _MS, 3),
            "shared_lm_ms": round(shared_lm_s * _MS, 3),
            "lm_mode_ms": {
                mode: round(seconds * _MS, 3)
                for mode, seconds in sorted(lm_mode_s.items())
            },
            "lm_mode_calls": dict(sorted(lm_mode_calls.items())),
            "lm_share": round(lm_total / attributed, 4) if attributed else 0.0,
            "solver_share": (
                round(solver_total / attributed, 4) if attributed else 0.0
            ),
        },
        "solver_by_fingerprint": dict(sorted(solver_by_fingerprint.items())),
    }


def _group_rows(
    spans: Sequence[Dict], per_record: Sequence[Dict], key_attr: str,
    default: Optional[str],
) -> Dict[str, Dict[str, float]]:
    """Sum per-record attribution rows grouped by a record-span attr."""
    by_id = {span["span"]: span for span in spans}
    groups: Dict[str, Dict[str, float]] = {}
    for row in per_record:
        attrs = by_id[row["record_span"]].get("attrs", {})
        key = attrs.get(key_attr, default)
        if key is None:
            continue
        group = groups.setdefault(str(key), {
            "records": 0, "wall_ms": 0.0, "lm_ms": 0.0,
            "solver_ms": 0.0, "other_ms": 0.0,
        })
        group["records"] += 1
        for field in ("wall_ms", "lm_ms", "solver_ms", "other_ms"):
            group[field] = round(group[field] + row[field], 3)
    return dict(sorted(groups.items()))


def _critical_paths(spans: Sequence[Dict], per_record: Sequence[Dict]) -> List[Dict]:
    """Longest-duration child chain under each ``request`` span.

    The path answers "what single sequence of operations bounded this
    request's latency": request -> record -> step -> (smt_confirm |
    feasible_digits | ...), greedily following the slowest child at each
    level.  Durations along the path are reported per hop.
    """
    children: Dict[int, List[Dict]] = {}
    ids = {span["span"] for span in spans}
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent in ids:
            children.setdefault(parent, []).append(span)
    lm_by_record = {row["record_span"]: row for row in per_record}
    paths = []
    for span in spans:
        if span["name"] != "request":
            continue
        hops = []
        current = span
        seen = set()
        lm_ms = solver_ms = 0.0
        while current["span"] not in seen:
            seen.add(current["span"])
            hops.append({
                "name": current["name"],
                "dur_ms": round(current["dur_s"] * _MS, 3),
            })
            row = lm_by_record.get(current["span"])
            if row is not None:
                lm_ms, solver_ms = row["lm_ms"], row["solver_ms"]
            kids = children.get(current["span"])
            if not kids:
                break
            current = max(kids, key=lambda s: s["dur_s"])
        attrs = span.get("attrs", {})
        paths.append({
            "trace_id": attrs.get("trace_id"),
            "kind": attrs.get("kind"),
            "wall_ms": round(span["dur_s"] * _MS, 3),
            "lm_ms": lm_ms,
            "solver_ms": solver_ms,
            "path": hops,
        })
    paths.sort(key=lambda p: -p["wall_ms"])
    return paths


def aggregate_distributed(spans: Sequence[Dict]) -> Dict:
    """The multi-process report: :func:`aggregate` plus the distributed
    splits a merged trace (see :func:`repro.obs.merge.merge_traces`)
    makes possible.

    Adds to the base report:

    * ``by_worker`` -- per-record attribution grouped by the ``process``
      attr the merge stamps (``parent`` for in-process records);
    * ``by_tenant`` -- grouped by the record span's ``tenant`` attr;
    * ``by_trace`` -- grouped by ``trace_id`` (one group per request --
      or per *stream*, since every record of a stream shares its id);
    * ``critical_paths`` -- the slowest-child chain under each request
      span, slowest request first.
    """
    report = aggregate(spans)
    per_record = report["per_record"]
    report["by_worker"] = _group_rows(spans, per_record, "process", "parent")
    report["by_tenant"] = _group_rows(spans, per_record, "tenant", "default")
    report["by_trace"] = _group_rows(spans, per_record, "trace_id", None)
    report["critical_paths"] = _critical_paths(spans, per_record)
    report["replays"] = sum(
        1 for span in spans
        if span["name"] == "record" and span.get("attrs", {}).get("replay_of")
    )
    return report


def format_distributed_report(report: Dict) -> str:
    """Human-readable tables for ``repro.cli obs-report``."""
    lines = [format_report(report)]
    for title, key in (("worker", "by_worker"), ("tenant", "by_tenant"),
                       ("trace", "by_trace")):
        groups = report.get(key)
        if not groups:
            continue
        lines += [
            "",
            f"by {title} (solver lookahead vs LM inference):",
            f"{title:<34}{'records':>8}{'wall_ms':>10}{'lm_ms':>9}"
            f"{'solver_ms':>11}{'other_ms':>10}",
        ]
        for name, row in groups.items():
            lines.append(
                f"{name[:33]:<34}{row['records']:>8}{row['wall_ms']:>10.2f}"
                f"{row['lm_ms']:>9.2f}{row['solver_ms']:>11.2f}"
                f"{row['other_ms']:>10.2f}"
            )
    paths = report.get("critical_paths")
    if paths:
        lines += ["", "critical paths (slowest request first):"]
        for row in paths[:20]:
            chain = " > ".join(
                f"{hop['name']}:{hop['dur_ms']:.1f}ms" for hop in row["path"]
            )
            trace = row["trace_id"] or "-"
            lines.append(f"  {trace[:16]:<17}{row['wall_ms']:>9.2f}ms  {chain}")
    if report.get("replays"):
        lines += ["", f"crash-replayed records: {report['replays']}"]
    return "\n".join(lines)


def format_report(report: Dict) -> str:
    """Human-readable per-stage tables (the head of ``obs-report``)."""
    lines = [
        f"trace: {report['spans']} spans, {report['records']} records",
        "",
        f"{'stage':<18}{'count':>8}{'total_ms':>12}{'mean_ms':>10}{'max_ms':>10}",
    ]
    for name, row in report["stages"].items():
        lines.append(
            f"{name:<18}{row['count']:>8}{row['total_ms']:>12.2f}"
            f"{row['mean_ms']:>10.3f}{row['max_ms']:>10.2f}"
        )
    totals = report["totals"]
    lines += [
        "",
        "per-record breakdown (solver lookahead vs LM inference):",
        f"{'record':>8}{'steps':>7}{'wall_ms':>10}{'lm_ms':>9}"
        f"{'solver_ms':>11}{'other_ms':>10}",
    ]
    for row in report["per_record"]:
        lines.append(
            f"{row['record_span']:>8}{row['steps']:>7}{row['wall_ms']:>10.2f}"
            f"{row['lm_ms']:>9.2f}{row['solver_ms']:>11.2f}{row['other_ms']:>10.2f}"
        )
    lines += [
        "",
        f"totals: lm={totals['lm_ms']:.2f}ms ({totals['lm_share']:.1%})  "
        f"solver={totals['solver_ms']:.2f}ms ({totals['solver_share']:.1%})  "
        f"record_wall={totals['record_wall_ms']:.2f}ms  "
        f"shared_lm={totals['shared_lm_ms']:.2f}ms",
    ]
    modes = totals.get("lm_mode_ms", {})
    if modes:
        calls = totals.get("lm_mode_calls", {})
        lines.append(
            "lm by decode mode: "
            + "  ".join(
                f"{mode}={modes[mode]:.2f}ms/{calls.get(mode, 0)} calls"
                for mode in sorted(modes)
            )
        )
    partitions = report.get("solver_by_fingerprint", {})
    if len(partitions) > 1 or any(
        fp != "default" for fp in partitions
    ):
        lines += [
            "",
            "solver queries by rule-set fingerprint (cache partition):",
            f"{'fingerprint':<20}{'queries':>8}{'solver_ms':>12}",
        ]
        for fp, row in partitions.items():
            lines.append(
                f"{fp[:18]:<20}{row['queries']:>8}{row['solver_ms']:>12.2f}"
            )
    return "\n".join(lines)
