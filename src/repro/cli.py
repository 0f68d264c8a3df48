"""Command-line interface for the LeJIT workflows.

Subcommands mirror the library's main entry points::

    python -m repro.cli dataset  --out data.jsonl --racks 16
    python -m repro.cli train    --data data.jsonl --out model.json
    python -m repro.cli mine     --data data.jsonl --out rules.json
    python -m repro.cli impute   --model model.json --rules rules.json \
                                 --total 100 --cong 3 --retx 1 --egr 100
    python -m repro.cli synth    --model model.json --rules rules.json -n 10
    python -m repro.cli serve    --model model.json --rules rules.json \
                                 --port 8080 --lanes 4
    python -m repro.cli stream   --generate 500 > events.jsonl
    python -m repro.cli stream   --model model.json --rules rules.json \
                                 --input events.jsonl --late-policy patch
    python -m repro.cli rules    list --dir packs/
    python -m repro.cli bench-serving --out BENCH_serving.json
    python -m repro.cli chaos    --workers 4 --requests 24
    python -m repro.cli obs-report --trace trace.jsonl

The model format is the n-gram JSON checkpoint (fast to train anywhere);
datasets are one JSON record per line.  Diagnostics go to stderr as
single-line ``key=value`` records -- every one of them rendered by
:func:`repro.obs.kv.format_kv` so scrapers face exactly one quoting
convention; stdout stays pure JSON for scripting.  ``--trace-out`` on
``impute``/``synth`` writes a JSONL span trace that ``obs-report``
aggregates into the per-stage solver-vs-LM breakdown.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import List, Optional

from .core import EnforcementEngine, EnforcerConfig, JitEnforcer
from .errors import InfeasibleRecord
from .obs import OBS, SpanTracer, emit_kv
from .smt import SolverBudget
from .data import (
    COARSE_FIELDS,
    TelemetryConfig,
    build_dataset,
    fine_field,
    record_text,
    window_variables,
)
from .data.telemetry import Window
from .lm import NgramLM
from .lm.checkpoint import load_ngram, save_ngram
from .rules import (
    MinerOptions,
    domain_bound_rules,
    mine_rules,
    zoom2net_manual_rules,
)
from .rules.io import load_rules, save_rules

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (lanes, batch sizes...)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type for capacities where 0 means disabled."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _rule_pack_ref(text: str) -> str:
    """argparse type for rule-pack references: ``name`` or ``name@version``.

    Syntax is validated here (fail fast at parse time); whether the pack
    *exists* is checked against the registry at startup, where the error
    can list what is actually available.
    """
    name, sep, version = text.partition("@")
    if not name:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a rule-pack reference (name or name@version)"
        )
    if sep:
        try:
            value = int(version)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"version in {text!r} must be an integer"
            )
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"version in {text!r} must be >= 1"
            )
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="LeJIT: just-in-time logic enforcement"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dataset_cmd = sub.add_parser("dataset", help="generate synthetic telemetry")
    dataset_cmd.add_argument("--out", required=True, type=Path)
    dataset_cmd.add_argument("--racks", type=int, default=16)
    dataset_cmd.add_argument("--windows", type=int, default=120)
    dataset_cmd.add_argument("--seed", type=int, default=0)

    train_cmd = sub.add_parser("train", help="fit the n-gram LM on a dataset")
    train_cmd.add_argument("--data", required=True, type=Path)
    train_cmd.add_argument("--out", required=True, type=Path)
    train_cmd.add_argument("--order", type=int, default=6)

    mine_cmd = sub.add_parser("mine", help="mine a rule set from a dataset")
    mine_cmd.add_argument("--data", required=True, type=Path)
    mine_cmd.add_argument("--out", required=True, type=Path)
    mine_cmd.add_argument("--slack", type=int, default=2)
    mine_cmd.add_argument(
        "--scope", choices=["imputation", "synthesis", "stream"],
        default="imputation",
        help="stream = imputation rules plus cross-record temporal rules "
        "joined at --window-depth (feeds `repro.cli stream` / /v1/stream)",
    )
    mine_cmd.add_argument(
        "--window-depth", type=_positive_int, default=2,
        help="records joined per window when mining temporal rules "
        "(--scope stream only)",
    )

    impute_cmd = sub.add_parser("impute", help="impute fine values for a prompt")
    impute_cmd.add_argument("--model", required=True, type=Path)
    impute_cmd.add_argument("--rules", required=True, type=Path)
    impute_cmd.add_argument("--seed", type=int, default=0)
    for name in COARSE_FIELDS:
        impute_cmd.add_argument(f"--{name}", required=True, type=int)
    _add_trace_args(impute_cmd)
    _add_budget_args(impute_cmd)

    synth_cmd = sub.add_parser("synth", help="generate synthetic records")
    synth_cmd.add_argument("--model", required=True, type=Path)
    synth_cmd.add_argument("--rules", required=True, type=Path)
    synth_cmd.add_argument("-n", "--count", type=_positive_int, default=5)
    synth_cmd.add_argument("--seed", type=int, default=0)
    synth_cmd.add_argument(
        "--batch-size", type=_positive_int, default=1,
        help="records generated per lock-step batch (1 = the serial enforcer)",
    )
    _add_trace_args(synth_cmd)
    _add_budget_args(synth_cmd)

    serve_cmd = sub.add_parser(
        "serve", help="run the continuous-batching HTTP serving front end"
    )
    serve_cmd.add_argument("--model", required=True, type=Path)
    serve_cmd.add_argument("--rules", required=True, type=Path)
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=0,
        help="TCP port to bind (0 = pick an ephemeral port)",
    )
    serve_cmd.add_argument(
        "--lanes", type=_positive_int, default=4,
        help="concurrent enforcement lanes in the scheduler",
    )
    serve_cmd.add_argument(
        "--queue-depth", type=_positive_int, default=64,
        help="admission queue capacity before 429 backpressure",
    )
    serve_cmd.add_argument(
        "--admit-policy", choices=["continuous", "wave"], default="continuous",
        help="mid-flight admission (continuous) or wave barriers (wave)",
    )
    serve_cmd.add_argument(
        "--workers", type=_nonnegative_int, default=0,
        help="supervised worker processes (0 = single-process scheduler; "
        "with N > 0, --lanes means lanes per worker)",
    )
    serve_cmd.add_argument("--seed", type=int, default=0)
    serve_cmd.add_argument(
        "--rule-pack", action="append", type=_rule_pack_ref, default=None,
        metavar="NAME[@VERSION]", dest="rule_packs",
        help="preload (and validate) this registered rule pack at startup; "
        "repeatable.  Unknown names fail fast listing what is available",
    )
    serve_cmd.add_argument(
        "--registry-dir", type=Path, default=None,
        help="persisted rule-pack registry directory (see `rules register`); "
        "packs found there are served alongside the built-in libraries",
    )
    serve_cmd.add_argument(
        "--latency-buckets", type=str, default=None, metavar="MS,MS,...",
        help="comma-separated latency histogram bucket bounds in ms "
        "(strictly increasing; default matches the built-in request scale)",
    )
    serve_cmd.add_argument(
        "--slo-latency-ms", type=float, default=None,
        help="per-tenant latency SLO target in ms (default 250)",
    )
    serve_cmd.add_argument(
        "--slo-objective", type=float, default=None,
        help="fraction of requests that must meet the latency target "
        "(default 0.99)",
    )
    _add_trace_args(serve_cmd)
    _add_budget_args(serve_cmd)

    stream_cmd = sub.add_parser(
        "stream",
        help="drive an unbounded telemetry event stream through windowed "
        "enforcement (or --generate synthetic events)",
    )
    stream_cmd.add_argument("--model", type=Path, default=None)
    stream_cmd.add_argument(
        "--rules", type=Path, default=None,
        help="rule file; mine with `--scope stream` to get cross-record "
        "temporal rules",
    )
    stream_cmd.add_argument(
        "--input", default="-",
        help="event JSONL file (`-` = stdin, the default)",
    )
    stream_cmd.add_argument(
        "--follow", action="store_true",
        help="keep tailing --input for new events instead of stopping at EOF",
    )
    stream_cmd.add_argument("--seed", type=int, default=0)
    stream_cmd.add_argument(
        "--window", type=_positive_int, default=2,
        help="records joined per sliding window (carryover depth)",
    )
    stream_cmd.add_argument(
        "--lateness", type=float, default=0.5,
        help="event-time slack before the watermark declares a gap",
    )
    stream_cmd.add_argument(
        "--late-policy", choices=["drop", "patch", "reemit"], default="drop",
        help="what to do with an event that arrives after its gap closed",
    )
    stream_cmd.add_argument(
        "--progress-every", type=_positive_int, default=100,
        help="events between stream_progress records on stderr",
    )
    stream_cmd.add_argument(
        "--generate", type=_positive_int, default=None, metavar="N",
        help="emit N synthetic stream events as JSONL on stdout and exit "
        "(needs no model; pairs with `--input -`)",
    )
    stream_cmd.add_argument(
        "--stream-seed", type=int, default=0,
        help="generator seed (--generate)",
    )
    stream_cmd.add_argument(
        "--mean-interarrival", type=float, default=1.0,
        help="mean seconds between events in the calm MMPP state "
        "(--generate)",
    )
    stream_cmd.add_argument(
        "--late-fraction", type=float, default=0.05,
        help="fraction of generated events delayed past the watermark "
        "(--generate)",
    )
    stream_cmd.add_argument(
        "--late-delay", type=float, default=6.0,
        help="mean extra delay for late generated events (--generate)",
    )
    _add_trace_args(stream_cmd)
    _add_budget_args(stream_cmd)

    rules_cmd = sub.add_parser(
        "rules", help="inspect and manage the rule-pack registry"
    )
    rules_sub = rules_cmd.add_subparsers(dest="rules_command", required=True)
    rules_list = rules_sub.add_parser(
        "list", help="list registered packs (name, version, hash, active)"
    )
    rules_list.add_argument(
        "--dir", type=Path, default=None,
        help="registry directory (defaults to the built-in libraries)",
    )
    rules_show = rules_sub.add_parser(
        "show", help="print one pack version as rule JSON"
    )
    rules_show.add_argument(
        "ref", type=_rule_pack_ref, metavar="NAME[@VERSION]"
    )
    rules_show.add_argument("--dir", type=Path, default=None)
    rules_register = rules_sub.add_parser(
        "register", help="add a mined/exported pack version to a registry"
    )
    rules_register.add_argument("--file", required=True, type=Path,
                                help="rule JSON written by `mine`/save_rules")
    rules_register.add_argument("--dir", required=True, type=Path,
                                help="registry directory (created if needed)")
    rules_register.add_argument("--name", default=None,
                                help="pack name (defaults to the set's name)")
    rules_register.add_argument(
        "--version", type=_positive_int, default=None,
        help="explicit version (defaults to one past the highest)",
    )
    rules_register.add_argument(
        "--activate", action="store_true",
        help="make this version active immediately (first version always is)",
    )
    rules_promote = rules_sub.add_parser(
        "promote", help="atomically activate a registered pack version"
    )
    rules_promote.add_argument("ref", type=_rule_pack_ref,
                               metavar="NAME@VERSION")
    rules_promote.add_argument("--dir", required=True, type=Path)

    bench_cmd = sub.add_parser(
        "bench-serving", help="open-loop Poisson load benchmark of the server"
    )
    bench_cmd.add_argument(
        "--out", type=Path, default=Path("BENCH_serving.json")
    )
    bench_cmd.add_argument(
        "--loads", type=float, nargs="+", default=[300.0, 600.0],
        help="offered loads in requests/sec (one run per load per policy)",
    )
    bench_cmd.add_argument(
        "--lanes", type=_positive_int, nargs="+", default=[4]
    )
    bench_cmd.add_argument(
        "--requests", type=_positive_int, default=150,
        help="requests replayed per configuration",
    )
    bench_cmd.add_argument("--seed", type=int, default=7)
    bench_cmd.add_argument(
        "--timeout-ms", type=float, default=None,
        help="optional per-request deadline in milliseconds",
    )
    bench_cmd.add_argument(
        "--workers", type=_positive_int, nargs="+", default=None,
        help="also bench the supervised worker pool at these worker counts",
    )
    bench_cmd.add_argument(
        "--kill-worker-at", type=float, default=None,
        help="with --workers: SIGKILL one worker this many seconds into an "
        "extra run and report the before/during/after latency split",
    )
    bench_cmd.add_argument(
        "--tenants", type=str, nargs="*", default=None,
        help="also run a mixed-tenant scenario striping requests across "
        "these tenant specs -- NAME (imputation) or NAME:synthesize -- "
        "(no names = paper-R1-R3 + domain-bounds + "
        "domain-bounds:synthesize); reports per-tenant latency and byte "
        "parity",
    )

    chaos_cmd = sub.add_parser(
        "chaos",
        help="kill workers mid-run; audit availability, byte parity, "
        "and pool reconvergence",
    )
    chaos_cmd.add_argument(
        "--workers", type=_positive_int, default=4,
        help="worker processes in the pool under test",
    )
    chaos_cmd.add_argument(
        "--lanes", type=_positive_int, default=2,
        help="enforcement lanes per worker",
    )
    chaos_cmd.add_argument(
        "--requests", type=_positive_int, default=24,
        help="imputation requests driven through the pool",
    )
    chaos_cmd.add_argument(
        "--kill-fraction", type=float, default=0.25,
        help="fraction of requests completed before the kill fires",
    )
    chaos_cmd.add_argument(
        "--availability-target", type=float, default=0.99,
        help="minimum completed/accepted ratio for a PASS",
    )
    chaos_cmd.add_argument("--seed", type=int, default=5)
    chaos_cmd.add_argument("--base-seed", type=int, default=500)
    chaos_cmd.add_argument(
        "--out", type=Path, default=None,
        help="write the JSON chaos report here",
    )

    obs_cmd = sub.add_parser(
        "obs-report",
        help="aggregate a span trace (one process, or a router plus its "
        "worker sinks) into the solver-vs-LM breakdown split by worker, "
        "tenant, and stream, plus per-request critical paths",
    )
    obs_cmd.add_argument(
        "--trace", required=True, type=Path,
        help="the trace JSONL (any `--trace-out`); worker sinks named "
        "<trace>.w<id>.g<gen> are discovered automatically",
    )
    obs_cmd.add_argument(
        "--worker-glob", type=str, default=None,
        help="override the worker-sink discovery glob",
    )
    obs_cmd.add_argument(
        "--merged-out", type=Path, default=None,
        help="also write the merged, re-parented trace as JSONL here",
    )
    obs_cmd.add_argument(
        "--json", action="store_true",
        help="emit the distributed aggregate as JSON instead of tables",
    )
    return parser


def _add_trace_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--trace-out", type=Path, default=None,
        help="write a JSONL span trace of the run (see obs-report)",
    )


def _add_budget_args(cmd: argparse.ArgumentParser) -> None:
    """Solver work-budget and degradation knobs (see DESIGN.md)."""
    group = cmd.add_argument_group("solver budget")
    group.add_argument("--max-conflicts", type=int, default=None,
                       help="CDCL conflict cap per solver query")
    group.add_argument("--max-decisions", type=int, default=None,
                       help="CDCL decision cap per solver query")
    group.add_argument("--max-pivots", type=int, default=None,
                       help="simplex pivot cap per solver query")
    group.add_argument("--max-theory-rounds", type=int, default=None,
                       help="DPLL(T) theory-round cap per solver query")
    group.add_argument("--max-bb-nodes", type=int, default=None,
                       help="branch-and-bound node cap per solver query")
    group.add_argument("--budget", action="store_true", dest="default_budget",
                       help="enable the default work budget for every cap")
    group.add_argument("--budget-retries", type=int, default=2,
                       help="record retries with exponentially scaled budget")
    group.add_argument("--no-posthoc-repair", action="store_true",
                       help="disable the posthoc-repair degradation stage")


def _budget_from(args) -> Optional[SolverBudget]:
    caps = {
        "max_conflicts": args.max_conflicts,
        "max_decisions": args.max_decisions,
        "max_pivots": args.max_pivots,
        "max_theory_rounds": args.max_theory_rounds,
        "max_bb_nodes": args.max_bb_nodes,
    }
    if args.default_budget:
        base = SolverBudget.default()
        return SolverBudget(**{
            name: value if value is not None else getattr(base, name)
            for name, value in caps.items()
        })
    if all(value is None for value in caps.values()):
        return None
    return SolverBudget(**caps)


def _enforcer_config_from(args) -> EnforcerConfig:
    return EnforcerConfig(
        seed=args.seed,
        budget=_budget_from(args),
        max_budget_retries=args.budget_retries,
        posthoc_repair=not args.no_posthoc_repair,
    )


@contextlib.contextmanager
def _span_sink(args):
    """Activate JSONL span tracing for one command when requested."""
    trace_out = getattr(args, "trace_out", None)
    if trace_out is None:
        yield
        return
    OBS.enable(SpanTracer(sink=trace_out))
    try:
        yield
    finally:
        OBS.disable()
        emit_kv("trace", [("out", trace_out)])


def _report_degradations(
    enforcer: JitEnforcer, engine: Optional[EnforcementEngine] = None
) -> None:
    # stderr keeps stdout pure JSON for scripting; each summary is a
    # single-line key=value record (rendered by obs.kv) so log scrapers
    # need no custom parser.
    print(
        "degradation " + enforcer.trace.degradation_summary(),
        file=sys.stderr,
        flush=True,
    )
    trace = enforcer.trace
    if engine is not None:
        throughput = engine.stats.records_per_sec()
    else:
        throughput = (
            trace.records / trace.wall_time if trace.wall_time > 0 else 0.0
        )
    emit_kv("throughput", [
        ("records_per_sec", f"{throughput:.1f}"),
        ("oracle_cache_hit_rate", f"{enforcer.oracle_cache.hit_rate():.4f}"),
        ("live_queries", enforcer.mask_stats.live_queries),
    ])


def _load_windows(path: Path) -> List[dict]:
    records = []
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    if not records:
        raise SystemExit(f"no records found in {path}")
    return records


def _cmd_dataset(args) -> int:
    dataset = build_dataset(
        num_train_racks=args.racks,
        num_test_racks=max(1, args.racks // 4),
        windows_per_rack=args.windows,
        seed=args.seed,
    )
    with args.out.open("w") as handle:
        for window in dataset.train_windows():
            handle.write(json.dumps(window.variables()) + "\n")
    print(
        f"wrote {len(dataset.train_windows())} training records to {args.out}"
    )
    return 0


def _records_to_texts(records: List[dict], config: TelemetryConfig) -> List[str]:
    texts = []
    for values in records:
        window = Window(
            fine=tuple(values[fine_field(t)] for t in range(config.window)),
            total=values["total"],
            cong=values["cong"],
            retx=values["retx"],
            egr=values["egr"],
        )
        texts.append(record_text(window))
    return texts


def _cmd_train(args) -> int:
    config = TelemetryConfig()
    records = _load_windows(args.data)
    model = NgramLM(order=args.order).fit(_records_to_texts(records, config))
    save_ngram(model, args.out)
    print(f"saved order-{args.order} n-gram model to {args.out}")
    return 0


def _cmd_mine(args) -> int:
    config = TelemetryConfig()
    records = _load_windows(args.data)
    if args.scope == "synthesis":
        coarse = [{k: r[k] for k in COARSE_FIELDS} for r in records]
        rules = mine_rules(
            coarse, list(COARSE_FIELDS), MinerOptions(slack=args.slack),
            name="cli-synthesis",
        )
    else:
        variables = list(window_variables(config.window))
        fine = [fine_field(t) for t in range(config.window)]
        rules = mine_rules(
            records, variables, MinerOptions(slack=args.slack),
            fine_variables=fine, name="cli-imputation",
        )
        if args.scope == "stream":
            from .stream import combine_rule_sets, mine_stream_rules

            # The dataset JSONL carries no rack boundaries, so treat the
            # whole record sequence as one stream: joins across real rack
            # boundaries only widen the mined envelopes, never tighten
            # them, so the result stays sound for any record order.
            windows = [
                Window(
                    fine=tuple(v[fine_field(t)] for t in range(config.window)),
                    total=v["total"], cong=v["cong"],
                    retx=v["retx"], egr=v["egr"],
                )
                for v in records
            ]
            temporal = mine_stream_rules(
                [windows], config, depth=args.window_depth,
                options=MinerOptions(
                    identities=False, burst_implications=False,
                    conditionals=False, slack=args.slack,
                ),
            )
            rules = combine_rule_sets(rules, temporal, name="cli-stream")
    save_rules(rules, args.out)
    print(f"mined {len(rules)} rules ({rules.summary()}) -> {args.out}")
    return 0


def _cmd_impute(args) -> int:
    config = TelemetryConfig()
    model = load_ngram(args.model)
    rules = load_rules(args.rules)
    enforcer = JitEnforcer(
        model, rules, config, _enforcer_config_from(args),
        fallback_rules=[zoom2net_manual_rules(config), domain_bound_rules(config)],
    )
    coarse = {name: getattr(args, name) for name in COARSE_FIELDS}
    try:
        with _span_sink(args):
            outcome = enforcer.impute_record(coarse)
    except InfeasibleRecord as exc:
        raise SystemExit(f"infeasible prompt: {exc}")
    values = outcome.values
    fine = {fine_field(t): values[fine_field(t)] for t in range(config.window)}
    # Audit only the rules this record can bind: a stream-scope pack's
    # temporal rules name history fields that a lone record never has.
    compliant = rules.restricted_to(list(values)).compliant(values)
    print(json.dumps({"coarse": coarse, "fine": fine,
                      "compliant": compliant,
                      "degraded": outcome.degraded, "stage": outcome.stage}))
    _report_degradations(enforcer)
    return 0


def _cmd_synth(args) -> int:
    config = TelemetryConfig()
    model = load_ngram(args.model)
    rules = load_rules(args.rules)
    enforcer = JitEnforcer(
        model, rules, config, _enforcer_config_from(args),
        fallback_rules=[domain_bound_rules(config)],
    )
    engine = None
    if args.batch_size > 1:
        engine = EnforcementEngine(enforcer, batch_size=args.batch_size)
        try:
            with _span_sink(args):
                outcomes = engine.synthesize_many(args.count)
        except InfeasibleRecord as exc:
            raise SystemExit(f"infeasible synthesis: {exc}")
        for outcome in outcomes:
            print(json.dumps(outcome.values))
    else:
        with _span_sink(args):
            values = [enforcer.synthesize() for _ in range(args.count)]
        for record in values:
            print(json.dumps(record))
    _report_degradations(enforcer, engine)
    return 0


def _open_registry(dir_path: Optional[Path], config: TelemetryConfig):
    """A registry seeded with the built-in libraries (+ a persisted dir)."""
    from .rules import builtin_registry

    return builtin_registry(config, root=dir_path)


def _cmd_rules(args) -> int:
    from .errors import RetiredRuleSet, UnknownRuleSet
    from .rules import RuleSetRegistry
    from .rules.io import rules_to_json

    config = TelemetryConfig()
    if args.rules_command == "list":
        registry = _open_registry(args.dir, config)
        print(json.dumps(registry.describe(), indent=2))
        return 0
    if args.rules_command == "show":
        registry = _open_registry(args.dir, config)
        try:
            handle = registry.resolve(args.ref)
        except (UnknownRuleSet, RetiredRuleSet) as exc:
            raise SystemExit(str(exc))
        emit_kv("rule_pack", [
            ("ref", handle.ref), ("hash", handle.content_hash),
            ("rules", len(handle.rules)),
        ])
        print(rules_to_json(handle.rules))
        return 0
    if args.rules_command == "register":
        registry = RuleSetRegistry(root=args.dir)
        rules = load_rules(args.file)
        try:
            handle = registry.register(
                rules,
                name=args.name,
                version=args.version,
                activate=True if args.activate else None,
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
        print(json.dumps({
            "name": handle.name, "version": handle.version,
            "hash": handle.content_hash, "rules": len(handle.rules),
        }))
        return 0
    # promote
    registry = RuleSetRegistry(root=args.dir)
    name, _, version = args.ref.partition("@")
    if not version:
        raise SystemExit("promote needs an explicit NAME@VERSION reference")
    try:
        handle = registry.promote(name, int(version))
    except (UnknownRuleSet, RetiredRuleSet) as exc:
        raise SystemExit(str(exc))
    print(json.dumps({
        "name": handle.name, "version": handle.version,
        "hash": handle.content_hash, "active": True,
    }))
    return 0


@contextlib.contextmanager
def _graceful_sigterm():
    """Route SIGTERM through KeyboardInterrupt so `kill` drains the server.

    Shells run background jobs (`... serve &`) with SIGINT set to SIG_IGN,
    in which case Python never installs its KeyboardInterrupt handler and
    `kill -INT` is silently dropped -- so scripted shutdown must use
    SIGTERM, whose default would skip the drain and the summary line.
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(_signum, _frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _raise)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _cmd_serve(args) -> int:
    from .errors import RetiredRuleSet, UnknownRuleSet
    from .obs import SLOConfig, parse_buckets
    from .rules.io import rules_fingerprint
    from .serve import ContinuousBatchingScheduler, ServingServer, WorkerPool
    from .stream import stream_bounds

    config = TelemetryConfig()
    enforcer_config = _enforcer_config_from(args)
    try:
        latency_buckets = (
            parse_buckets(args.latency_buckets)
            if args.latency_buckets is not None
            else None
        )
    except ValueError as exc:
        raise SystemExit(f"--latency-buckets: {exc}")
    slo = None
    if args.slo_latency_ms is not None or args.slo_objective is not None:
        slo_kwargs = {}
        if args.slo_latency_ms is not None:
            slo_kwargs["latency_target_ms"] = args.slo_latency_ms
        if args.slo_objective is not None:
            slo_kwargs["latency_objective"] = args.slo_objective
        try:
            slo = SLOConfig(**slo_kwargs)
        except ValueError as exc:
            raise SystemExit(f"SLO config: {exc}")
    # Bounds for the prev*_ history variables that /v1/stream carryover
    # contexts reference; inert for plain impute/synthesize requests.
    bounds = stream_bounds(config)

    # Multi-tenant registry: built-in libraries, any persisted packs under
    # --registry-dir, and the --rules file itself (so requests can name it
    # explicitly).  Skip re-registering content the registry already holds
    # -- restarting the server must not bump versions.
    registry = _open_registry(args.registry_dir, config)
    served_rules = load_rules(args.rules)
    served_hash = rules_fingerprint(served_rules)
    already = any(
        row["name"] == served_rules.name and row["hash"] == served_hash
        for row in registry.describe()
    )
    if not already:
        registry.register(served_rules)
    for ref in args.rule_packs or []:
        try:
            handle = registry.resolve(ref)
        except (UnknownRuleSet, RetiredRuleSet) as exc:
            raise SystemExit(f"--rule-pack {ref}: {exc}")
        emit_kv("rule_pack", [
            ("ref", handle.ref), ("hash", handle.content_hash[:12]),
            ("rules", len(handle.rules)),
        ])

    if args.workers:
        # Supervised multi-process pool: each worker builds its own
        # enforcer from the checkpoint files, so a restarted worker is
        # bit-for-bit the one that crashed.
        model_path, rules_path = args.model, args.rules

        def factory():
            model = load_ngram(model_path)
            rules = load_rules(rules_path)
            return JitEnforcer(
                model, rules, config, enforcer_config,
                fallback_rules=[
                    zoom2net_manual_rules(config), domain_bound_rules(config)
                ],
                bounds=stream_bounds(config),
            )

        scheduler = WorkerPool(
            factory,
            workers=args.workers,
            lanes_per_worker=args.lanes,
            queue_depth=args.queue_depth,
            rule_registry=registry,
            latency_buckets=latency_buckets,
            slo=slo,
            # Worker span sinks hang off the router's trace path; the
            # parent's own request spans land in --trace-out itself (via
            # _span_sink below) and `obs-report` merges the family.
            span_sink=(
                str(args.trace_out) if args.trace_out is not None else None
            ),
        )
    else:
        model = load_ngram(args.model)
        rules = load_rules(args.rules)
        enforcer = JitEnforcer(
            model, rules, config, enforcer_config,
            fallback_rules=[
                zoom2net_manual_rules(config), domain_bound_rules(config)
            ],
            bounds=bounds,
        )
        scheduler = ContinuousBatchingScheduler(
            enforcer,
            lanes=args.lanes,
            queue_depth=args.queue_depth,
            admit_policy=args.admit_policy,
            rule_registry=registry,
            latency_buckets=latency_buckets,
            slo=slo,
        )
    server = ServingServer(
        scheduler, host=args.host, port=args.port, telemetry_config=config
    )
    host, port = server.address
    # Single-line key=value records on stderr: scrapable, stdout untouched.
    emit_kv("serving", [
        ("host", host),
        ("port", port),
        ("workers", args.workers),
        ("lanes", args.lanes),
        ("queue_depth", args.queue_depth),
        ("admit_policy", args.admit_policy),
    ])
    with _graceful_sigterm(), _span_sink(args), server:
        try:
            server.wait()
        except KeyboardInterrupt:
            emit_kv("serving", [("shutdown", "graceful-drain")])
    print(scheduler.summary_line(), file=sys.stderr, flush=True)
    return 0


def _stream_input_lines(path_text: str, follow: bool):
    """Lines from the event source; ``--follow`` tails past EOF forever."""
    if path_text == "-":
        yield from sys.stdin
        return
    import time

    with open(path_text) as handle:
        while True:
            line = handle.readline()
            if line:
                yield line
            elif follow:
                time.sleep(0.2)
            else:
                return


def _cmd_stream(args) -> int:
    config = TelemetryConfig()
    if args.generate is not None:
        from .data.workload import StreamParams, TelemetryStream

        params = StreamParams(
            seed=args.stream_seed,
            mean_interarrival=args.mean_interarrival,
            late_fraction=args.late_fraction,
            late_delay=args.late_delay,
        )
        count = 0
        for event in TelemetryStream(params, config).events(args.generate):
            print(json.dumps(event, sort_keys=True))
            count += 1
        emit_kv("stream_generate", [
            ("events", count), ("seed", args.stream_seed),
        ])
        return 0

    if args.model is None or args.rules is None:
        raise SystemExit(
            "stream enforcement needs --model and --rules "
            "(or use --generate N to emit synthetic events)"
        )
    from .obs import ProgressEmitter
    from .stream import (
        EnforcerExecutor,
        StreamConfig,
        StreamSession,
        stream_bounds,
    )

    model = load_ngram(args.model)
    rules = load_rules(args.rules)
    enforcer = JitEnforcer(
        model, rules, config, _enforcer_config_from(args),
        fallback_rules=[
            zoom2net_manual_rules(config), domain_bound_rules(config)
        ],
        bounds=stream_bounds(config),
    )
    stream_config = StreamConfig(
        window=args.window,
        lateness=args.lateness,
        late_policy=args.late_policy,
        seed=args.seed,
    )
    executor = EnforcerExecutor(enforcer, seed=args.seed)
    # The same deterministic correlation id /v1/stream mints for this
    # stream (default stream_id is "stream-<seed>"), so the serial and
    # HTTP drivers stay byte-identical emission for emission.
    from .obs.merge import stream_trace_id

    trace_id = stream_trace_id(f"stream-{args.seed}", args.seed)
    session = StreamSession(
        stream_config, executor, telemetry_config=config, trace_id=trace_id
    )

    def _pairs():
        stats = session.stats()
        pairs = [
            ("emitted", stats["emitted"]),
            ("next_seq", stats["next_seq"]),
            ("pending", stats["pending"]),
            ("watermark", f"{stats['watermark']:.3f}"),
            ("gaps", stats["gaps"]),
            ("late_dropped", stats["late_dropped"]),
            ("late_patched", stats["late_patched"]),
            ("reemitted", stats["reemitted"]),
            ("duplicates", stats["duplicates"]),
            ("carryover_hits", stats["carryover_hits"]),
            ("lag_p50_ms", stats["lag_p50_ms"]),
            ("lag_p99_ms", stats["lag_p99_ms"]),
            ("emitted_per_sec", stats["emitted_per_sec"]),
            ("trace", session.trace_id),
        ]
        kv_stats = executor.kv_stats()
        if kv_stats is not None:
            pairs.append(("kv_row_tokens", int(kv_stats["row_length"])))
        return pairs

    progress = ProgressEmitter(
        "stream_progress", _pairs, every=args.progress_every
    )

    def _write(emissions) -> None:
        for emission in emissions:
            print(emission.encode(), flush=True)

    with _graceful_sigterm(), _span_sink(args):
        try:
            for line in _stream_input_lines(args.input, args.follow):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as exc:
                    emit_kv("stream_error", [("error", f"bad JSON: {exc}")])
                    continue
                try:
                    _write(session.ingest(event))
                except ValueError as exc:
                    emit_kv("stream_error", [("error", str(exc))])
                    continue
                progress.tick()
        except KeyboardInterrupt:
            # SIGTERM/Ctrl-C on a --follow stream: drain and summarize.
            pass
        _write(session.close())
    progress.finish("stream_summary")
    return 0


def _cmd_bench_serving(args) -> int:
    from .serve import (
        format_pool_report,
        format_report,
        format_tenant_report,
        run_mixed_tenant_bench,
        run_pool_scaling_bench,
        run_serving_bench,
    )

    report = run_serving_bench(
        offered_loads=args.loads,
        lane_counts=args.lanes,
        requests=args.requests,
        seed=args.seed,
        timeout_ms=args.timeout_ms,
    )
    print(format_report(report))
    if args.workers:
        pool_report = run_pool_scaling_bench(
            worker_counts=args.workers,
            offered_loads=args.loads,
            requests=args.requests,
            seed=args.seed,
            timeout_ms=args.timeout_ms,
            kill_worker_at=args.kill_worker_at,
        )
        report["worker_pool"] = pool_report
        print()
        print(format_pool_report(pool_report))
    if args.tenants is not None:
        tenant_report = run_mixed_tenant_bench(
            tenants=tuple(args.tenants) or (
                "paper-R1-R3", "domain-bounds", "domain-bounds:synthesize"
            ),
            offered_load=max(args.loads),
            lanes=max(args.lanes),
            requests=min(args.requests, 120),
            seed=args.seed,
            timeout_ms=args.timeout_ms,
        )
        report["mixed_tenant"] = tenant_report
        print()
        print(format_tenant_report(tenant_report))
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    emit_kv("bench_serving", [("out", args.out)])
    return 0


def _cmd_chaos(args) -> int:
    from .serve import format_chaos_report, run_chaos

    report = run_chaos(
        workers=args.workers,
        lanes_per_worker=args.lanes,
        requests=args.requests,
        base_seed=args.base_seed,
        seed=args.seed,
        kill_fraction=args.kill_fraction,
        availability_target=args.availability_target,
    )
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(format_chaos_report(report))
    emit_kv("chaos", [
        ("passed", report["passed"]),
        ("availability", report["availability"]),
        ("parity_mismatches", len(report["parity_mismatches"])),
        ("reconverged", report["reconverged"]),
        ("worker_crashes", report["worker_crashes"]),
        ("units_lost", report["units_lost"]),
    ])
    return 0 if report["passed"] else 1


def _cmd_obs_report(args) -> int:
    import glob as _glob

    from .obs.report import aggregate_distributed, format_distributed_report
    from .obs.merge import load_worker_trace, merge_traces, worker_sink_paths
    from .obs.trace import load_trace

    try:
        parent_spans = load_trace(args.trace)
    except OSError as exc:
        raise SystemExit(f"cannot read trace: {exc}")
    except ValueError as exc:
        raise SystemExit(f"malformed trace: {exc}")
    if args.worker_glob is not None:
        worker_paths = sorted(_glob.glob(args.worker_glob))
    else:
        worker_paths = worker_sink_paths(args.trace)
    worker_traces = []
    base = str(args.trace)
    for path in worker_paths:
        # "trace.jsonl.w0.g1" -> label "w0.g1"; fall back to the basename
        # for globs that do not share the parent trace's prefix.
        label = (
            path[len(base) + 1:]
            if path.startswith(base + ".")
            else Path(path).name
        )
        try:
            # Tolerates the one torn tail line a SIGKILLed worker can leave.
            worker_traces.append((label, load_worker_trace(path)))
        except (OSError, ValueError) as exc:
            raise SystemExit(f"malformed worker trace {path}: {exc}")
    try:
        merged = merge_traces(parent_spans, worker_traces)
    except ValueError as exc:
        raise SystemExit(f"trace merge failed: {exc}")
    if args.merged_out is not None:
        with args.merged_out.open("w") as handle:
            for span in merged:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
    emit_kv("obs_report", [
        ("parent_spans", len(parent_spans)),
        ("worker_sinks", len(worker_traces)),
        ("merged_spans", len(merged)),
    ])
    report = aggregate_distributed(merged)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(format_distributed_report(report))
    return 0


_COMMANDS = {
    "dataset": _cmd_dataset,
    "train": _cmd_train,
    "mine": _cmd_mine,
    "impute": _cmd_impute,
    "synth": _cmd_synth,
    "serve": _cmd_serve,
    "stream": _cmd_stream,
    "rules": _cmd_rules,
    "bench-serving": _cmd_bench_serving,
    "chaos": _cmd_chaos,
    "obs-report": _cmd_obs_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
