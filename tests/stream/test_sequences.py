"""Window sequences through the stream path, with a real enforcer.

A window sequence is a depth-2 stream: imputation feeds in-order events
to a :class:`StreamSession` over an :class:`EnforcerExecutor`, and
synthesis calls the executor with ``coarse=None`` on the binder's context
of the records so far.  Records that fell to a fallback tier (which drops
the temporal rules) are the only ones allowed to violate anything.
"""

import hashlib
import json

import pytest

from repro.core import EnforcerConfig, JitEnforcer
from repro.data import build_dataset, fine_field, window_variables
from repro.lm import NgramLM
from repro.rules import (
    MinerOptions,
    Rule,
    RuleSet,
    domain_bound_rules,
    mine_rules,
    var,
    zoom2net_manual_rules,
)
from repro.smt import Le
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

# SHA-256 of the records each seed produced before window sequences moved
# onto the stream path; the port must not change a byte.
IMPUTE_SHA256 = {
    0: "508def60a901e9a3400732535abc1284c09b039e09f142c0a476eaf32f2e043c",
    1: "e2a9be4bba3bafe93be06fa58b799a8886188d2329d922f2a71d583670c224a5",
    2: "38eeb5391240afeb608a9dde6eaeb12694c9699fb1f591682c1236df5d404051",
}
SYNTH_SHA256 = {
    2: "c4a463b1a6514f8d99a688d57023b5a937dafeba0f01c78ec3944282700b1cca",
    3: "f255a08f01abadf3821e5737be0a5bdba93c3fa74a496c465f51ad0e5ea6cb0d",
}


@pytest.fixture(scope="module")
def setting():
    dataset = build_dataset(
        num_train_racks=6, num_test_racks=2, windows_per_rack=80, seed=3
    )
    model = NgramLM(order=6).fit(dataset.train_texts())
    temporal = mine_stream_rules(
        [rack.windows for rack in dataset.train_racks],
        dataset.config,
        depth=2,
        options=MinerOptions(
            identities=False, burst_implications=False, ratios=False, slack=3
        ),
        name="cross-window",
    )
    per_record = mine_rules(
        [w.variables() for w in dataset.train_windows()],
        list(window_variables(dataset.config.window)),
        MinerOptions(slack=2),
        fine_variables=[fine_field(t) for t in range(dataset.config.window)],
    )
    return dataset, model, per_record, temporal


def _enforcer(setting, seed, per_record=None, temporal=None, fallbacks=None):
    dataset, model, mined, mined_temporal = setting
    per_record = per_record or mined
    config = dataset.config
    if fallbacks is None:
        fallbacks = [zoom2net_manual_rules(config), domain_bound_rules(config)]
    return JitEnforcer(
        model,
        combine_rule_sets(per_record, temporal or mined_temporal),
        config,
        EnforcerConfig(seed=seed),
        # The plain per-record rules first (temporal dropped), then the rest.
        fallback_rules=[per_record, *fallbacks],
        bounds=stream_bounds(config, depth=2),
    )


def _impute(setting, enforcer, windows, seed):
    session = StreamSession(
        StreamConfig(window=2, seed=seed),
        EnforcerExecutor(enforcer, seed=seed),
        setting[0].config,
    )
    emissions = []
    for seq, window in enumerate(windows):
        emissions.extend(
            session.ingest(StreamEvent(seq, float(seq), window.coarse()))
        )
    return emissions


def _synthesize(setting, enforcer, count, seed):
    """(records, tier indices) of ``count`` chained syntheses."""
    config = setting[0].config
    executor = EnforcerExecutor(enforcer, seed=seed)
    binder = WindowBinder(config, depth=2)
    names = window_variables(config.window)
    archive, tiers = {}, []
    for seq in range(count):
        values, meta = executor(seq, None, binder.context_for(seq, archive))
        archive[seq] = {name: int(values[name]) for name in names}
        tiers.append(meta["tier_index"])
    return list(archive.values()), tiers


def _audit(setting, records):
    """(per-record violations, temporal violations) over a sequence."""
    dataset, _, per_record, temporal = setting
    record_violations = sum(1 for r in records if not per_record.compliant(r))
    temporal_violations = WindowBinder(dataset.config, 2).boundary_violations(
        records, temporal
    )
    return record_violations, temporal_violations


def _sha256(records):
    encoded = json.dumps(records, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


class TestWindowSequences:
    def test_imputed_sequence_fully_compliant(self, setting):
        dataset = setting[0]
        windows = dataset.test_racks[0].windows[:8]
        emissions = _impute(setting, _enforcer(setting, 0), windows, 0)
        assert [e.seq for e in emissions] == list(range(len(windows)))
        fallbacks = sum(1 for e in emissions if e.tier > 0)
        violations = _audit(setting, [e.record for e in emissions])
        # Fallback records may deviate; everything else is guaranteed.
        assert max(violations) <= fallbacks

    def test_records_contain_only_record_variables(self, setting):
        dataset = setting[0]
        enforcer = _enforcer(
            setting, 1, fallbacks=[domain_bound_rules(dataset.config)]
        )
        emissions = _impute(
            setting, enforcer, dataset.test_racks[0].windows[:3], 1
        )
        names = set(window_variables(dataset.config.window))
        assert len(emissions) == 3
        for emission in emissions:
            assert set(emission.record) == names

    def test_synthesized_sequence_compliant(self, setting):
        dataset = setting[0]
        enforcer = _enforcer(
            setting, 2, fallbacks=[domain_bound_rules(dataset.config)]
        )
        records, tiers = _synthesize(setting, enforcer, 5, 2)
        assert len(records) == 5
        fallbacks = sum(1 for tier in tiers if tier > 0)
        assert max(_audit(setting, records)) <= fallbacks

    def test_temporal_rules_actually_bind(self, setting):
        """A hand-written harsh temporal rule visibly constrains synthesis."""
        dataset = setting[0]
        smooth = RuleSet(name="smooth")
        # |total - prev_total| <= 10: an aggressive smoothness constraint.
        smooth.add(Rule("s1", Le(var("total") - var("prev_total"), 10),
                        kind="temporal-octagon"))
        smooth.add(Rule("s2", Le(var("prev_total") - var("total"), 10),
                        kind="temporal-octagon"))
        bounds_only = domain_bound_rules(dataset.config)
        enforcer = _enforcer(
            setting, 3, per_record=bounds_only, temporal=smooth,
            fallbacks=[bounds_only],
        )
        records, tiers = _synthesize(setting, enforcer, 6, 3)
        assert tiers == [0] * 6
        diffs = [
            abs(b["total"] - a["total"]) for a, b in zip(records, records[1:])
        ]
        assert all(d <= 10 for d in diffs), diffs

    def test_records_match_the_pinned_bytes(self, setting):
        windows = setting[0].test_racks[0].windows[:12]
        for seed, digest in IMPUTE_SHA256.items():
            emissions = _impute(
                setting, _enforcer(setting, seed), windows, seed
            )
            assert _sha256([e.record for e in emissions]) == digest, seed
        for seed, digest in SYNTH_SHA256.items():
            records, _ = _synthesize(
                setting, _enforcer(setting, seed), 6, seed
            )
            assert _sha256(records) == digest, seed
