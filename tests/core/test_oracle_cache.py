"""OracleCache capacity/eviction tests (ISSUE satellite).

The cache is a bounded FIFO memo: under pressure it must drop the oldest
insertion first, count every eviction, and -- the soundness half -- any
evicted key that is queried again must recompute to exactly the answer it
had before eviction (entries are pure functions of their state key).
"""

import pytest

from repro.core import OracleCache
from repro.core.feasible import SmtOracle
from repro.data import build_dataset, variable_bounds
from repro.lm import NgramLM
from repro.rules import domain_bound_rules, paper_rules


@pytest.fixture(scope="module")
def setting():
    dataset = build_dataset(
        num_train_racks=4, num_test_racks=1, windows_per_rack=40, seed=5
    )
    model = NgramLM(order=6).fit(dataset.train_texts())
    return dataset, model, paper_rules(dataset.config)


class TestFifoEviction:
    def test_drop_order_is_insertion_order(self):
        cache = OracleCache(max_entries=3)
        for index in range(3):
            cache.store(("key", index), index)
        assert cache.evictions == 0
        cache.store(("key", 3), 3)  # evicts ("key", 0), the oldest
        assert cache.evictions == 1
        assert ("key", 0) not in cache
        assert all(("key", index) in cache for index in (1, 2, 3))
        cache.store(("key", 4), 4)  # next-oldest goes next
        assert ("key", 1) not in cache
        assert cache.evictions == 2
        assert len(cache) == 3

    def test_overwriting_resident_key_never_evicts(self):
        cache = OracleCache(max_entries=2)
        cache.store(("a",), 1)
        cache.store(("b",), 2)
        cache.store(("a",), 99)  # resident: update in place, no pressure
        assert cache.evictions == 0
        assert len(cache) == 2
        assert cache.lookup(("a",)) == 99

    def test_capacity_floor_is_one(self):
        cache = OracleCache(max_entries=0)
        cache.store(("a",), 1)
        cache.store(("b",), 2)
        assert len(cache) == 1
        assert cache.evictions == 1

    def test_stats_dict_shape(self):
        cache = OracleCache(max_entries=2)
        cache.store(("a",), 1)
        cache.lookup(("a",))
        cache.lookup(("zzz",))
        stats = cache.stats()
        assert stats == {
            "entries": 1,
            "capacity": 2,
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "hit_rate": 0.5,
            "partitions": {
                "default": {
                    "hits": 1,
                    "misses": 1,
                    "evictions": 0,
                    "entries": 1,
                    "hit_rate": 0.5,
                },
            },
        }

    def test_default_capacity_constant(self):
        assert OracleCache().max_entries == OracleCache.DEFAULT_ENTRIES


class TestPartitionIsolation:
    """The cache partitions by rule-set fingerprint: two packs sharing one
    cache must never read each other's verdicts, even with byte-identical
    query prefixes (ISSUE acceptance: the regression that motivated
    content-hashed tags)."""

    def test_shared_cache_never_leaks_across_packs(self, setting):
        dataset, _, paper = setting
        bounds = variable_bounds(dataset.config)
        domain = domain_bound_rules(dataset.config)
        shared = OracleCache(max_entries=4096)
        oracle_a = SmtOracle(paper, bounds, cache=shared)
        oracle_b = SmtOracle(domain, bounds, cache=shared)
        fresh_b = SmtOracle(domain, bounds)  # ground truth, unshared
        window = dataset.config.window
        prompt = dataset.test_windows()[0].coarse()
        fine = dataset.test_windows()[0].variables()
        diverged = False
        # A populates the cache first, then B walks the *identical* prefix
        # (same prompt, same fixes -- actual window values, feasible under
        # both packs).  Every B answer must match the unshared oracle.
        for oracle in (oracle_a, oracle_b, fresh_b):
            oracle.begin_record(prompt)
        for t in range(window):
            name = f"I{t}"
            set_a = oracle_a.feasible_set(name)
            set_b = oracle_b.feasible_set(name)
            assert set_b.segments == fresh_b.feasible_set(name).segments
            if set_a.segments != set_b.segments:
                diverged = True  # paper R1-R3 narrow what bounds allow
            value = fine[name]
            assert oracle_b.confirm(name, value) == fresh_b.confirm(name, value)
            for oracle in (oracle_a, oracle_b, fresh_b):
                oracle.fix(name, value)
        assert diverged, "packs never disagreed; the isolation test is vacuous"

    def test_partition_stats_track_each_pack(self, setting):
        dataset, _, paper = setting
        bounds = variable_bounds(dataset.config)
        domain = domain_bound_rules(dataset.config)
        shared = OracleCache(max_entries=4096)
        prompt = dataset.test_windows()[0].coarse()
        for rules in (paper, domain):
            oracle = SmtOracle(rules, bounds, cache=shared)
            oracle.begin_record(prompt)
            oracle.feasible_set("I0")
        from repro.rules import rules_fingerprint

        partitions = shared.stats()["partitions"]
        assert set(partitions) == {
            rules_fingerprint(paper), rules_fingerprint(domain),
        }
        for row in partitions.values():
            assert row["entries"] > 0

    def test_evict_partition_leaves_other_packs_resident(self, setting):
        dataset, _, paper = setting
        from repro.rules import rules_fingerprint

        bounds = variable_bounds(dataset.config)
        domain = domain_bound_rules(dataset.config)
        shared = OracleCache(max_entries=4096)
        prompt = dataset.test_windows()[0].coarse()
        for rules in (paper, domain):
            oracle = SmtOracle(rules, bounds, cache=shared)
            oracle.begin_record(prompt)
            oracle.feasible_set("I0")
        paper_key = rules_fingerprint(paper)
        domain_key = rules_fingerprint(domain)
        before = shared.stats()["partitions"]
        dropped = shared.evict_partition(paper_key)
        assert dropped == before[paper_key]["entries"]
        after = shared.stats()["partitions"]
        assert after[paper_key]["entries"] == 0
        assert after[paper_key]["evictions"] == dropped
        assert after[domain_key]["entries"] == before[domain_key]["entries"]
        assert shared.evict_partition("no-such-partition") == 0


class TestEvictionSoundness:
    def test_requeried_evicted_key_recomputes_identically(self, setting):
        """Evict aggressively; every answer must still match a fresh oracle."""
        dataset, _, rules = setting
        bounds = variable_bounds(dataset.config)
        tiny = OracleCache(max_entries=4)  # far below the working set
        shared = SmtOracle(rules, bounds, cache=tiny)
        window = dataset.config.window
        prompts = [w.coarse() for w in dataset.test_windows()[:3]]
        # Two passes: pass 2 re-queries keys that pass 1 evicted.
        for prompt in prompts * 2:
            fresh = SmtOracle(rules, bounds)
            shared.begin_record(prompt)
            fresh.begin_record(prompt)
            for t in range(window):
                name = f"I{t}"
                shared_set = shared.feasible_set(name)
                assert shared_set.segments == fresh.feasible_set(name).segments
                value = shared_set.min_value
                assert shared.confirm(name, value) == fresh.confirm(name, value)
                shared.fix(name, value)
                fresh.fix(name, value)
        assert tiny.evictions > 0  # the pressure was real
        assert len(tiny) <= 4
