"""Unit tests for the sliding-window rule binder (repro.stream.binder)."""

import pytest

from repro.data import TelemetryConfig, build_dataset, fine_field
from repro.data.dataset import variable_bounds
from repro.data.telemetry import Window
from repro.rules import MinerOptions, Rule, RuleSet, paper_rules, var
from repro.stream import (
    MAX_HISTORY_DEPTH,
    WindowBinder,
    combine_rule_sets,
    history_name,
    history_prefixes,
    joined_window_assignments,
    mine_stream_rules,
    stream_bounds,
)


# Miner options under test: the defaults, and a relational set without
# ratios at wider slack (conditionals on, unlike the defaults).
MINER_OPTIONS = [
    None,
    MinerOptions(
        identities=False, burst_implications=False, ratios=False, slack=3
    ),
]


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(
        num_train_racks=3, num_test_racks=1, windows_per_rack=30, seed=3
    )


def _window(config, start):
    fine = tuple(range(start, start + config.window))
    return Window(
        fine=fine, total=sum(fine), cong=0, retx=0, egr=sum(fine)
    )


class TestNaming:
    def test_offset_one_uses_the_sequence_module_prefix(self):
        # Offset 1 keeps the plain prev_ names depth-1 rules were mined with.
        assert history_name("total", 1) == "prev_total"
        assert history_name("I0", 1) == "prev_I0"

    def test_deeper_offsets_are_numbered(self):
        assert history_name("total", 2) == "prev2_total"
        assert history_name("I4", 7) == "prev7_I4"

    def test_offset_zero_is_rejected(self):
        with pytest.raises(ValueError):
            history_name("total", 0)

    def test_history_prefixes_cover_every_offset_below_depth(self):
        assert history_prefixes(2) == ["prev_"]
        assert history_prefixes(4) == ["prev_", "prev2_", "prev3_"]
        assert history_prefixes(1) == []


class TestJoinedAssignments:
    def test_depth_two_joins_adjacent_windows(self):
        config = TelemetryConfig()
        windows = [_window(config, s) for s in (0, 10, 20)]
        joined = joined_window_assignments(windows, depth=2)
        assert len(joined) == 2
        first = joined[0]
        assert first["total"] == windows[1].total
        assert first["prev_total"] == windows[0].total
        assert first[f"prev_{fine_field(0)}"] == windows[0].fine[0]

    def test_depth_three_names_both_offsets(self):
        config = TelemetryConfig()
        windows = [_window(config, s) for s in (0, 10, 20, 30)]
        joined = joined_window_assignments(windows, depth=3)
        assert len(joined) == 2
        assert joined[0]["prev2_total"] == windows[0].total
        assert joined[0]["prev_total"] == windows[1].total
        assert joined[0]["total"] == windows[2].total

    def test_depth_below_two_is_rejected(self):
        with pytest.raises(ValueError):
            joined_window_assignments([], depth=1)


class TestMining:
    def test_mined_rules_are_all_genuinely_temporal(self, dataset):
        racks = [rack.windows for rack in dataset.train_racks]
        for options in MINER_OPTIONS:
            temporal = mine_stream_rules(
                racks, dataset.config, options=options
            )
            assert len(temporal) > 0
            for rule in temporal:
                assert rule.kind.startswith("temporal-")
                names = rule.variables()
                assert any(n.startswith("prev") for n in names)
                assert any(not n.startswith("prev") for n in names)

    def test_training_sequence_satisfies_its_own_mined_rules(self, dataset):
        racks = [rack.windows for rack in dataset.train_racks]
        binder = WindowBinder(dataset.config, depth=2)
        for options in MINER_OPTIONS:
            temporal = mine_stream_rules(
                racks, dataset.config, options=options
            )
            for rack in racks:
                records = [w.variables() for w in rack]
                assert binder.boundary_violations(records, temporal) == 0

    def test_too_short_racks_are_rejected(self, dataset):
        config = TelemetryConfig()
        with pytest.raises(ValueError):
            mine_stream_rules([[_window(config, 0)]], config, depth=2)

    def test_combine_keeps_both_sets(self, dataset):
        base = paper_rules(dataset.config)
        racks = [rack.windows for rack in dataset.train_racks]
        temporal = mine_stream_rules(racks, dataset.config)
        combined = combine_rule_sets(base, temporal, name="both")
        assert combined.name == "both"
        assert len(combined) == len(base) + len(temporal)
        for rule in base:
            assert rule.name in combined


class TestStreamBounds:
    def test_every_offset_gets_the_base_bounds(self):
        config = TelemetryConfig()
        base = variable_bounds(config)
        bounds = stream_bounds(config)
        for name, pair in base.items():
            assert bounds[name] == pair
            for offset in range(1, MAX_HISTORY_DEPTH):
                assert bounds[history_name(name, offset)] == pair

    def test_depth_is_respected(self):
        config = TelemetryConfig()
        bounds = stream_bounds(config, depth=3)
        assert "prev2_total" in bounds
        assert "prev3_total" not in bounds


class TestWindowBinder:
    def test_context_names_the_archived_predecessors(self):
        config = TelemetryConfig()
        binder = WindowBinder(config, depth=3)
        record = _window(config, 0).variables()
        archive = {4: record, 3: {k: v + 1 for k, v in record.items()}}
        context = binder.context_for(5, archive)
        assert context["prev_total"] == record["total"]
        assert context["prev2_total"] == record["total"] + 1
        assert context[f"prev_{fine_field(2)}"] == record[fine_field(2)]

    def test_missing_offsets_bind_nothing(self):
        config = TelemetryConfig()
        binder = WindowBinder(config, depth=4)
        record = _window(config, 0).variables()
        # seq 6's depth-4 window covers 3..5; only 4 is archived (5 was a
        # watermark gap, 3 fell off the horizon).
        context = binder.context_for(6, {4: record})
        assert set(context) == {
            history_name(name, 2) for name in record
        }

    def test_stream_start_has_empty_context(self):
        binder = WindowBinder(TelemetryConfig(), depth=2)
        assert binder.context_for(0, {}) == {}

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            WindowBinder(TelemetryConfig(), depth=0)
        with pytest.raises(ValueError):
            WindowBinder(TelemetryConfig(), depth=MAX_HISTORY_DEPTH + 1)

    def test_boundary_violations_counts_broken_joins(self):
        config = TelemetryConfig()
        binder = WindowBinder(config, depth=2)
        smooth = RuleSet(
            [
                Rule(
                    name="smooth-total",
                    formula=(var("total") - var("prev_total")) <= 5,
                    kind="temporal-octagon",
                )
            ],
            name="audit",
        )
        flat = _window(config, 0).variables()
        jump = dict(flat, total=flat["total"] + 50)
        assert binder.boundary_violations([flat, flat, flat], smooth) == 0
        assert binder.boundary_violations([flat, jump, flat], smooth) == 1
        # Rules whose variables are not all assigned are not audited.
        partial = {"cong": 0}
        assert binder.boundary_violations([partial, partial], smooth) == 0
