"""Temporal rules across window sequences (the Section 5 extension).

The paper's research agenda asks for richer *temporal* constraints.  This
example mines cross-window rules (prev window -> current window) from the
training racks and imputes a whole rack trace as a depth-2 stream, with
both per-record and temporal guarantees: the temporal rules bind each
record to the one before it through the stream's carryover context.

Run:  python examples/temporal_sequences.py
"""

from repro.core import EnforcerConfig, JitEnforcer
from repro.data import build_dataset, fine_field, window_variables
from repro.lm import NgramLM
from repro.rules import (
    MinerOptions,
    domain_bound_rules,
    mine_rules,
    zoom2net_manual_rules,
)
from repro.stream import (
    EnforcerExecutor,
    StreamConfig,
    StreamEvent,
    StreamSession,
    WindowBinder,
    combine_rule_sets,
    mine_stream_rules,
    stream_bounds,
)


def main() -> None:
    dataset = build_dataset(
        num_train_racks=12, num_test_racks=2, windows_per_rack=100, seed=1
    )
    model = NgramLM(order=6).fit(dataset.train_texts())

    print("mining per-record rules...")
    assignments = [w.variables() for w in dataset.train_windows()]
    per_record = mine_rules(
        assignments,
        list(window_variables(dataset.config.window)),
        MinerOptions(slack=2),
        fine_variables=[fine_field(t) for t in range(dataset.config.window)],
    )

    print("mining temporal (cross-window) rules...")
    racks = [rack.windows for rack in dataset.train_racks]
    temporal = mine_stream_rules(
        racks,
        dataset.config,
        depth=2,
        options=MinerOptions(identities=False, burst_implications=False,
                             ratios=False, slack=3),
        name="cross-window",
    )
    print(f"  {len(per_record)} per-record rules, {len(temporal)} temporal rules")
    print("  example temporal rules:")
    for rule in list(temporal)[:4]:
        print(f"    {rule.name:32s} {rule.description}")

    # Per-record + temporal rules; if they are infeasible for a record, the
    # per-record rules alone (temporal dropped), then the manual packs.
    enforcer = JitEnforcer(
        model, combine_rule_sets(per_record, temporal), dataset.config,
        EnforcerConfig(seed=0),
        fallback_rules=[per_record, zoom2net_manual_rules(dataset.config),
                        domain_bound_rules(dataset.config)],
        bounds=stream_bounds(dataset.config, depth=2),
    )
    executor = EnforcerExecutor(enforcer, seed=0)
    binder = WindowBinder(dataset.config, depth=2)

    def audit(records):
        """(per-record violations, temporal violations) over a sequence."""
        return (
            sum(1 for record in records if not per_record.compliant(record)),
            binder.boundary_violations(records, temporal),
        )

    windows = dataset.test_racks[0].windows[:12]
    print(f"\nimputing a {len(windows)}-window rack trace...")
    session = StreamSession(
        StreamConfig(window=2, seed=0), executor, dataset.config
    )
    records = [
        emission.record
        for seq, window in enumerate(windows)
        for emission in session.ingest(
            StreamEvent(seq, float(seq), window.coarse())
        )
    ]
    record_violations, temporal_violations = audit(records)
    print(f"  per-record violations: {record_violations}")
    print(f"  temporal violations  : {temporal_violations}")

    print("\nimputed trace (totals and first fine values):")
    for truth, record in zip(windows, records):
        fine = [record[fine_field(t)] for t in range(dataset.config.window)]
        print(
            f"  total={record['total']:3d} cong={record['cong']} "
            f"fine={fine}  (true fine: {list(truth.fine)})"
        )

    print("\nsynthesizing a fresh temporally-consistent trace...")
    # No events to order, so bind each record's context directly; seqs
    # continue the imputed trace's numbering (each seq owns its rng).
    names = window_variables(dataset.config.window)
    archive = {}
    for seq in range(len(windows), len(windows) + 8):
        values, _ = executor(seq, None, binder.context_for(seq, archive))
        archive[seq] = {name: values[name] for name in names}
    synthetic = list(archive.values())
    print("  totals:", [r["total"] for r in synthetic])
    rv, tv = audit(synthetic)
    print(f"  per-record violations: {rv}, temporal violations: {tv}")


if __name__ == "__main__":
    main()
