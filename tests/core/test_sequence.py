"""Cross-window (temporal) rule mining tests -- the Section 5 extension.

Temporal rules bind adjacent records of a rack: they are mined over
depth-2 joined assignments (``prev_*`` names for the earlier window) and
enforced on the stream path (``repro.stream``).
"""

import pytest

from repro.data import build_dataset
from repro.rules import MinerOptions
from repro.stream import joined_window_assignments, mine_stream_rules


@pytest.fixture(scope="module")
def setting():
    dataset = build_dataset(
        num_train_racks=6, num_test_racks=2, windows_per_rack=80, seed=3
    )
    racks = [rack.windows for rack in dataset.train_racks]
    temporal = mine_stream_rules(
        racks,
        dataset.config,
        options=MinerOptions(
            identities=False, burst_implications=False, ratios=False, slack=3
        ),
    )
    return dataset, temporal


class TestCrossWindowMining:
    def test_assignments_join_consecutive_windows(self, setting):
        dataset, _ = setting
        windows = dataset.train_racks[0].windows[:3]
        joined = joined_window_assignments(windows, depth=2)
        assert len(joined) == 2
        assert joined[0]["prev_total"] == windows[0].total
        assert joined[0]["total"] == windows[1].total
        assert joined[1]["prev_total"] == windows[1].total

    def test_only_temporal_rules_survive(self, setting):
        _, temporal = setting
        assert len(temporal) > 0
        for rule in temporal:
            names = rule.variables()
            assert any(n.startswith("prev_") for n in names), rule.name
            assert any(not n.startswith("prev_") for n in names), rule.name
            assert rule.kind.startswith("temporal-")

    def test_temporal_rules_hold_on_training_pairs(self, setting):
        dataset, temporal = setting
        for rack in dataset.train_racks:
            for joined in joined_window_assignments(rack.windows, depth=2):
                assert temporal.compliant(joined)

    def test_empty_racks_rejected(self, setting):
        dataset, _ = setting
        with pytest.raises(ValueError):
            mine_stream_rules([[]], dataset.config)
