"""Scaling study: LeJIT's per-record cost vs rule-set size and record count.

Supports the Section 5 discussion of solver overhead: how does enforcement
cost grow with the number of active rules, and is per-record cost stable as
the workload grows (no cross-record state blow-up)?

Also hosts the batched-engine throughput bench (records/sec at batch sizes
1/8/16 versus the legacy single-record path).  Runnable standalone without
pytest-benchmark::

    PYTHONPATH=src python benchmarks/bench_scaling.py \
        --batch-sizes 1 8 16 --records 800 --out BENCH_throughput.json
"""

import json
import time

import pytest

from repro.core import EnforcementEngine, EnforcerConfig, JitEnforcer
from repro.core import session as _session_module
from repro.core.transition import DigitTransitionSystem
from repro.data import TelemetryConfig, build_dataset
from repro.data.dataset import record_text
from repro.lm import NgramLM, TransformerConfig, TransformerLM
from repro.rules import (
    MinerOptions,
    domain_bound_rules,
    mine_rules,
    paper_rules,
)

from conftest import write_result


@pytest.mark.benchmark(group="scaling")
def test_scaling_rules_and_records(benchmark, context, results_dir):
    variables = list(context.dataset.variables)
    fine = context.fine_names
    cfg = context.dataset.config
    windows = context.test_windows(30)

    def run_all():
        rows = []
        # Rule-count scaling: same records, increasingly rich rule sets.
        sweeps = [
            ("18 rules", MinerOptions(octagon=False, ratios=False,
                                      identities=False, conditionals=False,
                                      burst_implications=False, slack=2)),
            ("~110 rules", MinerOptions(ratios=False, conditionals=False,
                                        burst_implications=False, slack=2)),
            ("~230 rules", MinerOptions(ratios=False, slack=2)),
            ("full", MinerOptions(slack=2)),
        ]
        for label, options in sweeps:
            rules = mine_rules(
                context.train_assignments, variables, options,
                fine_variables=fine,
            )
            enforcer = JitEnforcer(
                context.model, rules, cfg, EnforcerConfig(seed=0),
                fallback_rules=[context.manual_rules, context.domain_rules],
            )
            start = time.perf_counter()
            for window in windows:
                enforcer.impute(window.coarse())
            elapsed = time.perf_counter() - start
            rows.append((label, len(rules), 1000 * elapsed / len(windows)))

        # Record-count scaling: per-record cost must stay flat.
        enforcer = JitEnforcer(
            context.model, context.imputation_rules, cfg,
            EnforcerConfig(seed=0),
            fallback_rules=[context.manual_rules, context.domain_rules],
        )
        per_record = []
        for batch in (10, 20, 40):
            batch_windows = context.test_windows(batch)
            start = time.perf_counter()
            for window in batch_windows:
                enforcer.impute(window.coarse())
            per_record.append(
                (batch, 1000 * (time.perf_counter() - start) / batch)
            )
        return rows, per_record

    rows, per_record = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = ["Scaling: per-record imputation cost", "",
             f"{'rule set':12s}{'rules':>8s}{'ms/record':>12s}"]
    for label, count, cost in rows:
        lines.append(f"{label:12s}{count:>8d}{cost:>12.1f}")
    lines.append("")
    lines.append(f"{'batch':>8s}{'ms/record':>12s}   (same enforcer reused)")
    for batch, cost in per_record:
        lines.append(f"{batch:>8d}{cost:>12.1f}")
    write_result(results_dir, "scaling", "\n".join(lines))

    # Per-record cost must not explode with batch size (no state blow-up).
    costs = [cost for _, cost in per_record]
    assert max(costs) <= 5 * min(costs)


# ---------------------------------------------------------------------------
# Batched-engine throughput: records/sec vs batch size.
# ---------------------------------------------------------------------------

def _clear_process_memos(model):
    """Reset every cross-configuration memo so timings are comparable.

    Three process-wide caches warm monotonically within one interpreter
    (the n-gram distribution-row cache, the digit-transition memo, and the
    mask-hook memo); without clearing, whichever configuration runs second
    inherits the first one's warm state and measures as faster than it is.
    """
    cache = getattr(model, "_dist_cache", None)
    if cache is not None:
        cache.clear()
    DigitTransitionSystem._MEMO.clear()
    _session_module._MASK_MEMO.clear()


def run_batched_throughput(batch_sizes=(1, 8, 16), records=800, trials=3,
                           seed=5):
    """Measure imputation throughput: legacy serial vs engine batch sizes.

    Two workloads bracket the cache regimes the engine is designed for:

    - ``hot``: 2 distinct prompts cycled (repeated re-imputation of the
      same windows -- the prefix-keyed oracle cache and the distribution
      row cache both hit constantly).
    - ``mixed``: 8 distinct prompts cycled (each engine lane still tends
      to serve one prompt, but cross-record reuse is diluted).

    Timings are best-of-``trials`` with all process memos cleared before
    every configuration.  Returns a JSON-able report.
    """
    dataset = build_dataset(
        num_train_racks=4, num_test_racks=1, windows_per_rack=40, seed=seed
    )
    model = NgramLM(order=6).fit(dataset.train_texts())
    rules = paper_rules(dataset.config)
    fallback = [domain_bound_rules(dataset.config)]

    def fresh_enforcer():
        return JitEnforcer(
            model, rules, dataset.config, EnforcerConfig(seed=13),
            fallback_rules=fallback,
        )

    windows = dataset.test_windows()
    # One warm pass outside timing: JIT-compiles nothing, but touches every
    # code path so import/alloc one-offs don't land in the first trial.
    warm = fresh_enforcer()
    for window in windows[:8]:
        warm.impute_record(window.coarse())

    report = {"records": records, "trials": trials, "workloads": {}}
    for workload, distinct in (("hot", 2), ("mixed", 8)):
        prompts = [w.coarse() for w in windows[:distinct]]
        prompts = prompts * (records // distinct)
        count = len(prompts)

        best_legacy = 0.0
        for _ in range(trials):
            _clear_process_memos(model)
            enforcer = fresh_enforcer()
            start = time.perf_counter()
            for prompt in prompts:
                enforcer.impute_record(prompt)
            best_legacy = max(
                best_legacy, count / (time.perf_counter() - start)
            )

        entry = {
            "distinct_prompts": distinct,
            "legacy_records_per_sec": round(best_legacy, 1),
            "engine": {},
        }
        for batch_size in batch_sizes:
            best = 0.0
            summary = None
            for _ in range(trials):
                _clear_process_memos(model)
                engine = EnforcementEngine(
                    fresh_enforcer(), batch_size=batch_size
                )
                start = time.perf_counter()
                engine.impute_many(prompts)
                rate = count / (time.perf_counter() - start)
                if rate > best:
                    best = rate
                    summary = engine.summary()
            entry["engine"][str(batch_size)] = {
                "records_per_sec": round(best, 1),
                "speedup_vs_legacy": round(best / best_legacy, 2),
                "cache_hit_rate": round(summary["cache"]["hit_rate"], 3),
                "solver_work": summary["solver_work"],
            }
        report["workloads"][workload] = entry
    return report


def _format_throughput(report):
    lines = ["Batched engine throughput (records/sec, best-of-%d)"
             % report["trials"], ""]
    for workload, entry in report["workloads"].items():
        lines.append(
            f"{workload} ({entry['distinct_prompts']} distinct prompts):"
            f"  legacy {entry['legacy_records_per_sec']:.1f} rec/s"
        )
        for batch_size, stats in entry["engine"].items():
            lines.append(
                f"  batch {batch_size:>2s}: {stats['records_per_sec']:8.1f}"
                f" rec/s   {stats['speedup_vs_legacy']:.2f}x"
                f"   cache hit-rate {stats['cache_hit_rate']:.2f}"
            )
        lines.append("")
    return "\n".join(lines)


@pytest.mark.benchmark(group="scaling")
def test_batched_engine_throughput(results_dir):
    """CI smoke: the engine must beat the serial path on the hot workload.

    The assertion floor is deliberately lenient (1.2x, while the measured
    speedup at batch 8 is >2x on an idle machine) because CI runners are
    noisy and shared; the full numbers land in BENCH_throughput.json.
    """
    report = run_batched_throughput(batch_sizes=(1, 8), records=400, trials=2)
    out = results_dir / "BENCH_throughput.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    write_result(results_dir, "throughput", _format_throughput(report))
    hot = report["workloads"]["hot"]["engine"]["8"]
    assert hot["speedup_vs_legacy"] >= 1.2


# ---------------------------------------------------------------------------
# Compiled mask-table bench: the solver leaves the decode hot path.
# ---------------------------------------------------------------------------

#: Oracle ablation sweep (DESIGN.md): the optimistic hybrid already keeps
#: SMT off the per-query path, so it brackets the *smallest* win the mask
#: table can show; strict hybrid (per-variable SMT confirmation) is where
#: the paper's solver-in-the-loop guarantee actually costs, and the pure
#: SMT tier is the worst case the table rescues.
MASK_ORACLE_SWEEP = (
    ("hybrid_optimistic", dict(oracle="hybrid", optimistic=True)),
    ("hybrid_strict", dict(oracle="hybrid", optimistic=False)),
    ("smt", dict(oracle="smt")),
)


def run_mask_bench(records=120, trials=3, seed=5):
    """End-to-end imputation with the compiled mask table on vs off.

    Solver-side counterpart to the LM-side decode bench: the LM and the
    prompt stream are identical in both arms of every oracle config, so
    any throughput delta is pure oracle work.  Compilation happens at
    enforcer construction, outside the timed region (that is the point --
    the compile is an offline, per-rule-set cost amortised across every
    record).

    Per (oracle, arm): end-to-end records/s, live solver queries per
    record (queries the oracle had to compute instead of answering from
    the table -- tracked in both arms for comparability), and live
    queries serviced per second.  Each oracle row also carries the mask
    arm's table hit rate, the e2e speedup, the live-query reduction
    factor, and a byte-parity bool over the full output stream.
    """
    dataset = build_dataset(
        num_train_racks=4, num_test_racks=1, windows_per_rack=40, seed=seed
    )
    model = NgramLM(order=6).fit(dataset.train_texts())
    rules = paper_rules(dataset.config)
    fallback = [domain_bound_rules(dataset.config)]
    prompts = [w.coarse() for w in dataset.test_windows()]
    prompts = (prompts * ((records + len(prompts) - 1) // len(prompts)))
    prompts = prompts[:records]

    report = {"records": records, "trials": trials, "oracles": {}}
    for oracle_label, overrides in MASK_ORACLE_SWEEP:
        entry = {"arms": {}}
        outputs = {}
        for mask in (False, True):
            best = 0.0
            stats = None
            for _ in range(trials):
                _clear_process_memos(model)
                enforcer = JitEnforcer(  # compile+prime lands here, untimed
                    model, rules, dataset.config,
                    EnforcerConfig(seed=13, mask_table=mask, **overrides),
                    fallback_rules=fallback,
                )
                start = time.perf_counter()
                outputs[mask] = [
                    enforcer.impute(prompt) for prompt in prompts
                ]
                rate = len(prompts) / (time.perf_counter() - start)
                if rate > best:
                    best = rate
                    stats = enforcer.mask_stats.snapshot()
            queries_per_record = stats["live_queries"] / records
            entry["arms"]["mask" if mask else "live"] = {
                "records_per_sec": round(best, 1),
                "solver_queries_per_record": round(queries_per_record, 2),
                "solver_queries_per_sec": round(queries_per_record * best, 1),
                "mask_hit_rate": round(stats["hit_rate"], 3),
            }
        entry["parity"] = outputs[False] == outputs[True]
        live, masked = entry["arms"]["live"], entry["arms"]["mask"]
        entry["e2e_speedup"] = round(
            masked["records_per_sec"] / live["records_per_sec"], 2
        )
        entry["solver_query_reduction"] = round(
            live["solver_queries_per_record"]
            / max(masked["solver_queries_per_record"], 1e-9), 1,
        )
        report["oracles"][oracle_label] = entry
    return report


def _format_mask(report):
    lines = ["Compiled mask-table bench (paper pack, n-gram LM)", "",
             f"{'oracle':>18s}{'arm':>6s}{'rec/s':>9s}{'q/rec':>8s}"
             f"{'q/s':>9s}{'hit':>7s}{'speedup':>9s}{'q-red':>8s}"
             f"{'parity':>16s}"]
    for oracle_label, entry in report["oracles"].items():
        for arm in ("live", "mask"):
            stats = entry["arms"][arm]
            row = (f"{oracle_label if arm == 'live' else '':>18s}"
                   f"{arm:>6s}{stats['records_per_sec']:>9.1f}"
                   f"{stats['solver_queries_per_record']:>8.2f}"
                   f"{stats['solver_queries_per_sec']:>9.1f}"
                   f"{stats['mask_hit_rate']:>7.3f}")
            if arm == "mask":
                row += (f"{entry['e2e_speedup']:>8.2f}x"
                        f"{entry['solver_query_reduction']:>7.1f}x"
                        f"{'byte-identical' if entry['parity'] else 'DIVERGED':>16s}")
            lines.append(row)
    return "\n".join(lines)


@pytest.mark.benchmark(group="scaling")
def test_mask_table_throughput(results_dir):
    """CI smoke: the mask table must pay for itself on the serial path.

    The assertion floors are lenient for shared runners (the committed
    BENCH_decode.json baseline carries the real numbers: >=2x e2e on the
    strict hybrid and >10x fewer live solver queries per record); byte
    parity has no band in any oracle config.
    """
    report = run_mask_bench(records=60, trials=2)
    write_result(results_dir, "mask", _format_mask(report))
    for entry in report["oracles"].values():
        assert entry["parity"]
    strict = report["oracles"]["hybrid_strict"]
    assert strict["e2e_speedup"] >= 1.5
    assert strict["solver_query_reduction"] >= 4.0


# ---------------------------------------------------------------------------
# Decode-mode bench: incremental (KV cache) vs full re-encode, by length.
# ---------------------------------------------------------------------------

class DecodeParityError(AssertionError):
    """Incremental decoding produced different record bytes than full."""


def run_decode_bench(windows=(5, 12, 16, 20), modes=("full", "incremental"),
                     records=24, trials=3, seed=5):
    """Transformer decode throughput by record length and decode mode.

    Two measurements per (window-size, mode) cell:

    - ``lm_tokens_per_sec``: steady-state LM speed, isolated from solver
      work by teacher-forcing a real record's token sequence through
      ``next_distribution`` one step at a time (exactly the enforcement
      loop's call pattern).  This is where the KV cache's O(1)-per-step
      claim is visible: full mode re-encodes the whole prefix per step, so
      its tokens/s falls with record length while incremental stays flat.
    - ``records_per_sec``: end-to-end enforced imputation (solver included)
      through the serial driver.

    Every window size also byte-compares the enforced records produced by
    the two modes at the same seed and raises :class:`DecodeParityError`
    on any drift -- CI runs this bench precisely to catch parity rot.
    """
    report = {"records": records, "trials": trials, "modes": list(modes),
              "windows": {}}
    for window in windows:
        config = TelemetryConfig(window=window)
        dataset = build_dataset(
            num_train_racks=2, num_test_racks=1, windows_per_rack=24,
            config=config, seed=seed,
        )
        rules = paper_rules(config)
        fallback = [domain_bound_rules(config)]
        sample = max(
            (record_text(w) for w in dataset.test_windows()), key=len
        )
        coarse = [w.coarse() for w in dataset.test_windows()[:8]]
        prompts = (coarse * ((records + len(coarse) - 1) // len(coarse)))
        prompts = prompts[:records]
        entry = {"record_chars": len(sample), "modes": {}}

        def fresh_model():
            return TransformerLM(TransformerConfig(seed=11))

        def fresh_enforcer(mode):
            return JitEnforcer(
                fresh_model(), rules, config,
                EnforcerConfig(seed=13, decode_mode=mode),
                fallback_rules=fallback,
            )

        outputs = {}
        for mode in modes:
            # Steady-state LM tokens/s: teacher-force one record's ids so
            # both modes do identical token-level work.
            model = fresh_model()
            ids = model.tokenizer.encode(sample)
            steps = len(ids) - 1
            cache = model.new_kv_cache(1) if mode == "incremental" else None
            best_lm = 0.0
            for _ in range(trials):
                start = time.perf_counter()
                for position in range(1, len(ids)):
                    if cache is not None:
                        model.next_distribution(
                            ids[:position], cache=cache, row=0
                        )
                    else:
                        model.next_distribution(ids[:position])
                best_lm = max(best_lm, steps / (time.perf_counter() - start))

            # End-to-end enforced imputation through the serial driver.
            best_e2e = 0.0
            values = None
            for _ in range(trials):
                _clear_process_memos(model)
                enforcer = fresh_enforcer(mode)
                start = time.perf_counter()
                values = [enforcer.impute(prompt) for prompt in prompts]
                best_e2e = max(
                    best_e2e, len(prompts) / (time.perf_counter() - start)
                )
            outputs[mode] = values
            entry["modes"][mode] = {
                "lm_tokens_per_sec": round(best_lm, 1),
                "records_per_sec": round(best_e2e, 2),
            }
        if "full" in outputs and "incremental" in outputs:
            if outputs["full"] != outputs["incremental"]:
                raise DecodeParityError(
                    f"window={window}: incremental records diverged from "
                    "full-forward bytes at the same seed"
                )
            entry["parity"] = "byte-identical"
            full_stats = entry["modes"]["full"]
            inc_stats = entry["modes"]["incremental"]
            entry["lm_speedup"] = round(
                inc_stats["lm_tokens_per_sec"]
                / full_stats["lm_tokens_per_sec"], 2,
            )
            entry["e2e_speedup"] = round(
                inc_stats["records_per_sec"] / full_stats["records_per_sec"], 2,
            )
        report["windows"][str(window)] = entry
    return report


# The lanes sweep's one workload (CI smoke and full run alike, so the
# committed rows compare directly): lane counts, syntheses per engine run,
# and the telemetry window of the synthesized records.
LANE_COUNTS = (1, 2, 4, 8, 16)
LANE_RECORDS = 32
LANE_WINDOW = 16


def run_lanes_sweep(trials=3, seed=5):
    """TinyGPT throughput by lane count through the batched engine.

    Per lane count: ``lm_tokens_per_sec`` teacher-forces ``lanes`` real
    records' token ids through cached ``next_distributions`` one lock-step
    at a time (the engine's call pattern, solver excluded), and
    ``records_per_sec`` is enforced synthesis through
    ``EnforcementEngine(batch_size=lanes)``.  Records must be byte-identical
    at every lane count, else :class:`DecodeParityError`.
    """
    config = TelemetryConfig(window=LANE_WINDOW)
    dataset = build_dataset(
        num_train_racks=2, num_test_racks=1, windows_per_rack=24,
        config=config, seed=seed,
    )
    rules = paper_rules(config)
    fallback = [domain_bound_rules(config)]
    texts = [record_text(w) for w in dataset.test_windows()]
    rows, outputs = {}, {}
    for count in LANE_COUNTS:
        model = TransformerLM(TransformerConfig(seed=11))
        id_rows = [model.tokenizer.encode(texts[i % len(texts)])
                   for i in range(count)]
        steps = min(len(ids) for ids in id_rows) - 1
        best_lm = 0.0
        for _ in range(trials):
            cache = model.new_kv_cache(count)
            start = time.perf_counter()
            for position in range(1, steps + 1):
                model.next_distributions(
                    [ids[:position] for ids in id_rows], cache=cache
                )
            best_lm = max(best_lm,
                          count * steps / (time.perf_counter() - start))
        best_e2e = 0.0
        for _ in range(trials):
            _clear_process_memos(model)
            engine = EnforcementEngine(
                JitEnforcer(
                    TransformerLM(TransformerConfig(seed=11)), rules, config,
                    EnforcerConfig(seed=13), fallback_rules=fallback,
                ),
                batch_size=count,
            )
            start = time.perf_counter()
            outputs[count] = [
                o.values for o in engine.synthesize_many(LANE_RECORDS)
            ]
            best_e2e = max(best_e2e,
                           LANE_RECORDS / (time.perf_counter() - start))
        rows[str(count)] = {
            "lm_tokens_per_sec": round(best_lm, 1),
            "records_per_sec": round(best_e2e, 2),
        }
    reference = outputs[LANE_COUNTS[0]]
    for count, values in outputs.items():
        if values != reference:
            raise DecodeParityError(
                f"lanes={count}: records diverged from "
                f"lanes={LANE_COUNTS[0]} at the same seed"
            )
    return {"records": LANE_RECORDS, "window": LANE_WINDOW, "rows": rows,
            "parity": "byte-identical"}


def _format_decode(report):
    lines = ["Decode-mode bench: incremental (KV cache) vs full re-encode",
             ""]
    header = f"{'window':>7s}{'chars':>7s}"
    for mode in report["modes"]:
        header += f"{mode + ' tok/s':>20s}{mode + ' rec/s':>20s}"
    header += f"{'lm speedup':>12s}{'parity':>16s}"
    lines.append(header)
    for window, entry in report["windows"].items():
        row = f"{window:>7s}{entry['record_chars']:>7d}"
        for mode in report["modes"]:
            stats = entry["modes"][mode]
            row += (f"{stats['lm_tokens_per_sec']:>20.1f}"
                    f"{stats['records_per_sec']:>20.2f}")
        row += (f"{entry.get('lm_speedup', 0.0):>12.2f}"
                f"{entry.get('parity', 'n/a'):>16s}")
        lines.append(row)
    lanes = report.get("lanes")
    if lanes:
        lines += ["", f"Lanes sweep: TinyGPT, {lanes['records']} syntheses "
                  f"through the engine (parity {lanes['parity']})",
                  f"{'lanes':>7s}{'lm tok/s':>12s}{'rec/s':>10s}"]
        for count, stats in lanes["rows"].items():
            lines.append(f"{count:>7s}{stats['lm_tokens_per_sec']:>12.1f}"
                         f"{stats['records_per_sec']:>10.2f}")
    return "\n".join(lines)


@pytest.mark.benchmark(group="scaling")
def test_decode_mode_throughput(results_dir):
    """CI smoke: incremental decode must beat full re-encode at length >=48.

    The acceptance bar is >=2x steady-state LM tokens/s at record length
    >= 48 chars; the assertion floor here is the bar itself (measured
    locally at >5x), and the parity raise inside the bench is the real
    guard -- any byte drift between modes fails the job outright.
    """
    report = run_decode_bench(windows=(16,), records=8, trials=2)
    out = results_dir / "BENCH_decode.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    write_result(results_dir, "decode", _format_decode(report))
    entry = report["windows"]["16"]
    assert entry["record_chars"] >= 48
    assert entry["parity"] == "byte-identical"
    assert entry["lm_speedup"] >= 2.0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="batched-engine + decode-mode benches (no pytest needed)"
    )
    parser.add_argument("--batch-sizes", type=int, nargs="+",
                        default=[1, 8, 16])
    parser.add_argument("--records", type=int, default=800)
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON report here")
    parser.add_argument("--decode-mode", choices=["full", "incremental",
                                                  "both", "off"],
                        default="off",
                        help="run the decode bench instead of the "
                        "throughput bench ('both' also byte-checks parity)")
    parser.add_argument("-n", "--size", choices=["small", "full"],
                        default="full",
                        help="decode bench size: small = one window size, "
                        "fewer records (the CI smoke shape)")
    cli_args = parser.parse_args()
    if cli_args.decode_mode != "off":
        modes = (("full", "incremental")
                 if cli_args.decode_mode == "both"
                 else (cli_args.decode_mode,))
        if cli_args.size == "small":
            result = run_decode_bench(windows=(16,), modes=modes,
                                      records=8, trials=2)
            result["lanes"] = run_lanes_sweep(trials=2)
            result["mask"] = run_mask_bench(records=60, trials=2)
        else:
            result = run_decode_bench(modes=modes)
            result["lanes"] = run_lanes_sweep()
            result["mask"] = run_mask_bench()
        print(_format_decode(result))
        print()
        print(_format_mask(result["mask"]))
        out_path = cli_args.out or "BENCH_decode.json"
    else:
        result = run_batched_throughput(
            batch_sizes=tuple(cli_args.batch_sizes),
            records=cli_args.records,
            trials=cli_args.trials,
        )
        print(_format_throughput(result))
        out_path = cli_args.out
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(result, handle, indent=2)
            handle.write("\n")
        print(f"saved {out_path}")
