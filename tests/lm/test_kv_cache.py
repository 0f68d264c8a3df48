"""KV-cache parity suite: incremental decoding must be invisible in output.

Layered guarantees, weakest to strongest:

* the graph-free full forward is *bitwise* identical to the autograd path
  (it mirrors the exact numpy expressions, so this is exact, not approx);
* the batched incremental step kernel matches the full forward to float32
  rounding on distributions (bitwise equality is impossible here: OpenBLAS
  picks different kernels for (T,D)@(D,D) and (1,D)@(D,D) matmuls), and
  the per-lane ``_decode_token`` oracle below to a stated logit bound;
* cached decoding is *bitwise* deterministic with respect to itself --
  replaying any prefix against a warm, rewound, reused, or fresh row gives
  identical bytes at any batch size, in any order or subset of rows (this
  rests on BLAS computing the rows of an M >= 2 sgemm independently of M,
  which a guard test checks directly);
* end-to-end, the enforced record bytes at a fixed seed are identical
  between full re-encode (a :class:`~repro.testing.FullForwardLM` view)
  and incremental decoding through the serial enforcer, the batched
  engine, and the serving scheduler.
"""

import numpy as np
import pytest

from repro.autograd import Module
from repro.core import EnforcementEngine, EnforcerConfig, JitEnforcer
from repro.data import build_dataset
from repro.errors import InfeasibleRecord
from repro.lm import KVCache, NgramLM, TransformerConfig, TransformerLM
from repro.lm.model import _STEP_ROWS, _gelu_data, _layer_norm_data
from repro.rules import RuleSet, domain_bound_rules, paper_rules
from repro.serve import ContinuousBatchingScheduler, RequestSpec
from repro.stream import (
    EnforcerExecutor,
    StreamConfig,
    StreamSession,
    combine_rule_sets,
    mine_stream_rules,
    stream_bounds,
)
from repro.testing import FullForwardLM


@pytest.fixture(scope="module")
def model():
    return TransformerLM(TransformerConfig(seed=11))


@pytest.fixture(scope="module")
def setting():
    dataset = build_dataset(
        num_train_racks=2, num_test_racks=1, windows_per_rack=20, seed=5
    )
    return dataset, paper_rules(dataset.config)


def _ids(model, length, seed=0):
    rng = np.random.default_rng(seed)
    vocab = model.tokenizer.vocab_size
    return [model.tokenizer.bos_id] + [
        int(t) for t in rng.integers(0, vocab, size=length - 1)
    ]


def _decode_token(model, token_id, cache, row):
    """Parity oracle: the per-lane kernel the batched step replaced.

    One token through all layers on 1-D arrays, attending over exactly the
    row's cached prefix, with the bit-exact ``forward()`` LayerNorm and
    GELU.  Appends the token's K/V to ``cache`` (same layout as the model)
    and returns the (V,) logits at the new position.
    """
    tok, pos_table, blocks, gain_f, shift_f, eps_f, head = (
        model._inference_weights()
    )
    n_heads = model.config.n_heads
    head_dim = model.config.d_model // n_heads
    scale = np.float32(1.0 / np.sqrt(head_dim))
    position = cache.length(row)
    keys_row, values_row = cache.keys[row], cache.values[row]
    x = tok[token_id] + pos_table[position]  # (D,)
    for layer, (
        gain1, shift1, eps1, w_qkv, b_qkv, w_proj, b_proj,
        gain2, shift2, eps2, w_fc, b_fc, w_out, b_out,
    ) in enumerate(blocks):
        h = _layer_norm_data(x, gain1, shift1, eps1)
        qkv = ((h @ w_qkv) + b_qkv).reshape(3, n_heads, head_dim)
        keys_row[layer, :, :, position] = qkv[1]
        values_row[layer, :, position, :] = qkv[2]
        keys = keys_row[layer, :, :, : position + 1]  # (H, hd, P)
        values = values_row[layer, :, : position + 1, :]  # (H, P, hd)
        scores = (qkv[0][:, None, :] @ keys)[:, 0, :] * scale  # (H, P)
        shifted = scores - scores.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        attention = exp / exp.sum(axis=-1, keepdims=True)
        context = (attention[:, None, :] @ values).reshape(-1)  # (D,)
        x = x + ((context @ w_proj) + b_proj)
        h2 = _layer_norm_data(x, gain2, shift2, eps2)
        x = x + ((_gelu_data((h2 @ w_fc) + b_fc) @ w_out) + b_out)
    cache.commit(row, token_id)
    return _layer_norm_data(x, gain_f, shift_f, eps_f) @ head


def _solo_logits(model, prefix):
    """Logits after ``prefix`` decoded alone (the padded one-row path)."""
    return model._incremental_logits([prefix], model.new_kv_cache(1), [0])[0]


def _enforcer(dataset, rules, mode, seed=13, strict=False):
    model = TransformerLM(TransformerConfig(seed=11))
    return JitEnforcer(
        FullForwardLM(model) if mode == "full" else model,
        rules,
        dataset.config,
        EnforcerConfig(seed=seed),
        fallback_rules=(
            () if strict else [domain_bound_rules(dataset.config)]
        ),
    )


class TestKernelParity:
    def test_graph_free_forward_bitwise_matches_autograd(self, model):
        ids = np.array([_ids(model, 20, seed=1), _ids(model, 20, seed=2)])
        fast = model._forward_data(ids)
        slow = model.forward(ids).data
        assert np.array_equal(fast, slow)

    def test_incremental_close_to_full_at_every_prefix_length(self, model):
        ids = _ids(model, 40, seed=3)
        cache = model.new_kv_cache(1)
        for length in range(1, len(ids) + 1):
            cached = model.next_distribution(ids[:length], cache=cache, row=0)
            full = model.next_distribution(ids[:length])
            np.testing.assert_allclose(cached, full, rtol=0, atol=1e-6)
            # Distributions, both ways.
            assert abs(cached.sum() - 1.0) < 1e-9

    def test_cached_decode_bitwise_batch_invariant(self, model):
        prefixes = [_ids(model, n, seed=n) for n in (6, 17, 30)]
        solo = []
        for prefix in prefixes:
            cache = model.new_kv_cache(1)
            solo.append(
                model.next_distribution(prefix, cache=cache, row=0)
            )
        cache = model.new_kv_cache(len(prefixes))
        batched = model.next_distributions(prefixes, cache=cache)
        for row, expected in zip(batched, solo):
            assert np.array_equal(row, expected)

    def test_warm_cache_bitwise_matches_fresh_replay(self, model):
        ids = _ids(model, 35, seed=4)
        warm = model.new_kv_cache(1)
        for length in range(1, len(ids) + 1):
            incremental = model.next_distribution(
                ids[:length], cache=warm, row=0
            )
            fresh = model.next_distribution(
                ids[:length], cache=model.new_kv_cache(1), row=0
            )
            assert np.array_equal(incremental, fresh)

    def test_rows_bitwise_equal_alone_or_in_any_batch(self, model):
        """A row's logits never depend on its batch-mates.

        Rows at mixed positions (0 through max_len-1) decode alone -- the
        padded one-row path -- and in batches of 2, 3, 8 and 16 over any
        subset, order and row assignment, from cold rows (multi-token
        catch-up in lock-steps) and after rewinds with new tails.  Batches
        of 17 and 32 rows run as kernel calls of at most ``_STEP_ROWS``
        rows (16 + 1 padded, 16 + 16).
        """
        max_len = model.config.max_len
        lengths = [1, 2, 3, 7, 16, 25, 33, 41, 50, 61, 70, 77, 85, 90, 95,
                   max_len]
        lengths += [n + 1 for n in lengths[:-1]] + [max_len]
        prefixes = [
            _ids(model, n, seed=100 + i) for i, n in enumerate(lengths)
        ]
        solo = [_solo_logits(model, prefix) for prefix in prefixes]
        rng = np.random.default_rng(0)
        vocab = model.tokenizer.vocab_size
        for size in (2, 3, 8, 16, 17, 32):
            for _ in range(2):
                picks = rng.permutation(len(prefixes))[:size]
                rows = [int(r) for r in rng.permutation(32)[:size]]
                cache = model.new_kv_cache(32)
                batch = [prefixes[i] for i in picks]
                got = model._incremental_logits(batch, cache, rows)
                for index, logits in zip(picks, got):
                    assert np.array_equal(logits, solo[index]), (size, index)
                # Rewind each row to a random cut and append a new tail of
                # random length: trims, then uneven catch-up lock-steps.
                rewound = []
                for prefix in batch:
                    cut = int(rng.integers(1, len(prefix) + 1))
                    tail = rng.integers(0, vocab, size=int(
                        rng.integers(0, max_len - cut + 1)))
                    rewound.append(prefix[:cut] + [int(t) for t in tail])
                got = model._incremental_logits(rewound, cache, rows)
                for prefix, logits in zip(rewound, got):
                    assert np.array_equal(logits, _solo_logits(model, prefix))

    def test_per_lane_oracle_bounds_batched_kernel(self, model):
        """The batched step stays within 1e-5 of the per-lane oracle.

        The two differ only in float32 rounding (gemm vs gemv, a fixed
        max_len softmax window vs an exact-length one, ``x*x*x`` vs
        ``x**3``).  With logits up to ~3.6, |dlogit| peaks at 2.5e-6 to
        2.9e-6 over full-window prefixes on three model seeds; the bound
        leaves ~3x headroom.
        """
        bound = 1e-5
        max_len = model.config.max_len
        prefixes = [_ids(model, n, seed=200 + n) for n in (1, 9, 40, max_len)]
        oracle = []
        for prefix in prefixes:
            cache = model.new_kv_cache(1)
            oracle.append(
                [_decode_token(model, token, cache, 0) for token in prefix]
            )
        cache = model.new_kv_cache(len(prefixes))
        worst = 0.0
        for length in range(1, max_len + 1):
            active = [i for i, p in enumerate(prefixes) if len(p) >= length]
            got = model._incremental_logits(
                [prefixes[i][:length] for i in active], cache, active
            )
            for index, logits in zip(active, got):
                delta = np.abs(logits - oracle[index][length - 1]).max()
                worst = max(worst, float(delta))
        assert worst <= bound, worst

    def test_gemm_rows_do_not_depend_on_row_count(self, model):
        """Guard on the BLAS property the batched decode step rests on."""
        _, _, blocks, _, _, _, head = model._inference_weights()
        weights = [blocks[0][3], blocks[0][5], blocks[0][10], blocks[0][12],
                   head]
        rng = np.random.default_rng(0)
        for weight in weights:
            a = rng.standard_normal(
                (_STEP_ROWS, weight.shape[0])
            ).astype(np.float32)
            full = a @ weight
            for rows in range(2, _STEP_ROWS + 1):
                for _ in range(3):
                    picks = rng.permutation(_STEP_ROWS)[:rows]
                    if not np.array_equal(a[picks] @ weight, full[picks]):
                        pytest.fail(
                            f"rows of a {rows}x{weight.shape[0]} @ "
                            f"{weight.shape} sgemm differ from the same "
                            f"rows of a {_STEP_ROWS}-row one: this BLAS "
                            "does not compute gemm rows independently of "
                            "the row count, so TransformerLM._decode_step's "
                            "batch invariance (a lone row padded to two "
                            f"rows, kernel calls of 2-{_STEP_ROWS} rows) "
                            "does not hold here"
                        )

    def test_inference_never_toggles_training_mode(self, model, monkeypatch):
        """Graph-free inference reads neither ``training`` nor the tape."""
        training = TransformerLM(TransformerConfig(seed=11))
        assert training.training  # a fresh model starts in training mode
        evaluating = TransformerLM(TransformerConfig(seed=11)).eval()
        calls = []
        monkeypatch.setattr(
            Module, "train", lambda self, *a: calls.append("train")
        )
        monkeypatch.setattr(
            Module, "eval", lambda self, *a: calls.append("eval")
        )
        prefixes = [_ids(model, n, seed=300 + n) for n in (3, 20, 41)]

        def distributions(lm):
            cache = lm.new_kv_cache(len(prefixes))
            return [
                lm.next_distributions(prefixes, cache=cache),
                lm.next_distribution(prefixes[0], cache=lm.new_kv_cache(1)),
                lm.next_distributions(prefixes),
                lm.next_distribution(prefixes[1]),
            ]

        for got, expected in zip(
            distributions(training), distributions(evaluating)
        ):
            assert np.array_equal(got, expected)
        assert calls == []
        assert training.training is True
        assert evaluating.training is False

    def test_forward_incremental_appends_and_returns_last_logits(self, model):
        ids = _ids(model, 12, seed=5)
        cache = model.new_kv_cache(1)
        logits = model.forward_incremental([ids], cache)
        assert logits.shape == (1, model.config.vocab_size)
        assert cache.length(0) == len(ids)
        via_softmax = model._softmax(logits[0])
        replay = model.next_distribution(
            ids, cache=model.new_kv_cache(1), row=0
        )
        assert np.array_equal(via_softmax, replay)
        with pytest.raises(ValueError):
            model.forward_incremental([[]], cache)


class TestCacheBookkeeping:
    def test_rewind_reuses_prefix_and_counts_hit(self, model):
        ids = _ids(model, 25, seed=6)
        cache = model.new_kv_cache(1)
        model.next_distribution(ids, cache=cache, row=0)
        assert cache.length(0) == len(ids)
        before = cache.stats()["tokens_reused"]
        rewound = model.next_distribution(ids[:10], cache=cache, row=0)
        stats = cache.stats()
        # Rewind recomputes only the last token of the shorter prefix.
        assert stats["tokens_reused"] == before + 9
        assert cache.length(0) == 10
        assert np.array_equal(
            rewound,
            model.next_distribution(ids[:10], cache=model.new_kv_cache(1)),
        )

    def test_lane_reuse_with_divergent_prefix_trims_and_invalidates(
        self, model
    ):
        left = _ids(model, 20, seed=7)
        vocab = model.tokenizer.vocab_size
        right = left[:3] + [(t + 1) % vocab for t in left[3:]]
        assert left[:3] == right[:3] and left != right
        cache = model.new_kv_cache(1)
        model.next_distribution(left, cache=cache, row=0)
        invalidations = cache.stats()["invalidations"]
        reused = model.next_distribution(right, cache=cache, row=0)
        # The divergent tail was discarded: that is an invalidation.
        assert cache.stats()["invalidations"] == invalidations + 1
        assert np.array_equal(
            reused,
            model.next_distribution(right, cache=model.new_kv_cache(1)),
        )

    def test_overflow_falls_back_bitwise_to_uncached_path(self, model):
        too_long = _ids(model, model.config.max_len + 8, seed=9)
        cache = model.new_kv_cache(1)
        model.next_distribution(too_long[:12], cache=cache, row=0)
        overflowed = model.next_distribution(too_long, cache=cache, row=0)
        assert np.array_equal(
            overflowed, model.next_distribution(too_long)
        )
        stats = cache.stats()
        assert stats["fallbacks"] == 1
        assert cache.length(0) == 0  # row dropped, not silently stale

    def test_shared_row_in_one_batch_is_rejected(self, model):
        # One lock-step writes each row's K/V slot once: two prefixes on
        # the same row would silently overwrite each other.
        cache = model.new_kv_cache(2)
        with pytest.raises(ValueError):
            model.next_distributions(
                [_ids(model, 4), _ids(model, 6)], cache=cache, rows=[1, 1]
            )

    def test_commit_raises_when_row_is_full(self):
        cache = KVCache(rows=1, n_layers=1, n_heads=1, max_len=4, head_dim=2)
        for token in range(4):
            cache.commit(0, token)
        with pytest.raises(ValueError):
            cache.commit(0, 4)

    def test_match_trim_evict_and_stats_shape(self):
        cache = KVCache(rows=2, n_layers=1, n_heads=1, max_len=8, head_dim=2)
        for token in (1, 2, 3):
            cache.commit(0, token)
        assert cache.match(0, np.array([1, 2, 3, 4])) == 3
        assert cache.match(0, np.array([1, 9])) == 1
        assert cache.match(1, np.array([1, 2])) == 0
        cache.trim(0, 2)
        assert cache.length(0) == 2
        cache.invalidate(0)
        assert cache.length(0) == 0
        stats = cache.stats()
        assert stats["invalidations"] == 2  # the discarding trim + the drop
        for key in (
            "rows", "hits", "misses", "invalidations", "fallbacks",
            "tokens_reused", "tokens_computed", "hit_rate",
            "token_reuse_rate",
        ):
            assert key in stats

    def test_ngram_memo_reports_uniform_cache_stats(self):
        dataset = build_dataset(
            num_train_racks=2, num_test_racks=1, windows_per_rack=10, seed=5
        )
        model = NgramLM(order=4).fit(dataset.train_texts())
        stats = model.lm_cache_stats()
        assert stats["backend"] == "ngram"
        assert stats["hits"] == 0 and stats["misses"] == 0
        ids = model.tokenizer.encode("12>3")
        model.next_distribution(ids)
        model.next_distribution(ids)
        stats = model.lm_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        model.fit(dataset.train_texts())  # refit flushes the memo
        assert model.lm_cache_stats()["invalidations"] == 1


class TestEndToEndParity:
    """Acceptance: record bytes identical across modes in every driver."""

    def test_serial_enforcer_mode_parity(self, setting):
        dataset, rules = setting
        prompts = [w.coarse() for w in dataset.test_windows()[:4]]
        full = _enforcer(dataset, rules, "full")
        incremental = _enforcer(dataset, rules, "incremental")
        assert incremental._pool.kv_cache is not None
        assert full._pool.kv_cache is None
        for prompt in prompts:
            assert (
                incremental.impute_record(prompt).values
                == full.impute_record(prompt).values
            )
        stats = incremental._pool.kv_cache.stats()
        assert stats["hits"] > 0 and stats["token_reuse_rate"] > 0.5

    def test_batched_engine_mode_parity(self, setting):
        dataset, rules = setting
        prompts = [w.coarse() for w in dataset.test_windows()[:6]]
        serial = _enforcer(dataset, rules, "full")
        reference = [serial.impute_record(p).values for p in prompts]
        engine = EnforcementEngine(
            _enforcer(dataset, rules, "incremental"), batch_size=3
        )
        outcomes = engine.impute_many(prompts)
        assert [o.values for o in outcomes] == reference
        cache_stats = engine.summary()["lm_cache"]
        assert cache_stats["hits"] > 0

    def test_serving_scheduler_mode_parity(self, setting):
        dataset, rules = setting
        prompts = [w.coarse() for w in dataset.test_windows()[:4]]
        reference = [
            _enforcer(dataset, rules, "full", seed=50 + i)
            .impute_record(p)
            .values
            for i, p in enumerate(prompts)
        ]
        with ContinuousBatchingScheduler(
            _enforcer(dataset, rules, "incremental"), lanes=2
        ) as scheduler:
            handles = [
                scheduler.submit(RequestSpec("impute", coarse=p, seed=50 + i))
                for i, p in enumerate(prompts)
            ]
            results = [h.result(timeout=60) for h in handles]
            metrics = scheduler.metrics()
        assert [r.records[0] for r in results] == [
            dict(v) for v in reference
        ]
        assert metrics["lm_cache"]["hits"] > 0

    def test_tinygpt_records_identical_across_drivers_and_batch_sizes(
        self, setting
    ):
        """Lock-step batches of every size give the serial records' bytes."""
        dataset, rules = setting
        count = 16
        serial = _enforcer(dataset, rules, "incremental")
        reference = [serial.synthesize_record().values for _ in range(count)]
        for batch_size in (1, 3, 8, 16):
            engine = EnforcementEngine(
                _enforcer(dataset, rules, "incremental"), batch_size=batch_size
            )
            outcomes = engine.synthesize_many(count)
            assert [o.values for o in outcomes] == reference, batch_size
        with ContinuousBatchingScheduler(
            _enforcer(dataset, rules, "incremental"), lanes=8
        ) as scheduler:
            # One single-record request per record, so they share lanes.
            handles = [
                scheduler.submit(
                    RequestSpec("synthesize", seed=13, index_offset=index)
                )
                for index in range(count)
            ]
            results = [h.result(timeout=120) for h in handles]
        assert [r.records[0] for r in results] == [dict(v) for v in reference]

    def test_infeasible_record_invalidates_lane_row(self, setting):
        """Fault injection: a dead session must not leave a stale row."""
        dataset, rules = setting
        # R3 needs a 30+ burst under congestion, R2 caps the sum at 20:
        # with no fallback tiers this prompt has no feasible completion.
        poisoned = {"total": 20, "cong": 3, "retx": 0, "egr": 20}
        enforcer = _enforcer(dataset, rules, "incremental", strict=True)
        with pytest.raises(InfeasibleRecord):
            enforcer.impute_record(poisoned)
        assert enforcer._pool.kv_cache.stats()["invalidations"] >= 1
        assert enforcer._pool.kv_cache.length(0) == 0

        prompts = [w.coarse() for w in dataset.test_windows()[:3]]
        jobs = prompts[:1] + [poisoned] + prompts[1:]
        serial = _enforcer(dataset, rules, "full", strict=True)
        reference = []
        for index, job in enumerate(jobs):
            if index == 1:
                with pytest.raises(InfeasibleRecord):
                    serial.impute_record(job)
                reference.append(None)
            else:
                reference.append(serial.impute_record(job).values)
        engine = EnforcementEngine(
            _enforcer(dataset, rules, "incremental", strict=True),
            batch_size=2,
        )
        results = engine.impute_many(jobs, return_exceptions=True)
        assert isinstance(results[1], InfeasibleRecord)
        assert engine.pool.kv_cache.stats()["invalidations"] >= 1
        for index, result in enumerate(results):
            if index != 1:
                assert result.values == reference[index]


class _ColdPerRecord:
    """Cold re-encode transport: a fresh executor (fresh KV row, fresh
    lane) for every record -- the reference the warm streaming executor's
    rewound rows must match bitwise."""

    def __init__(self, make_executor):
        self.make_executor = make_executor
        self.row_lengths = []

    def __call__(self, seq, coarse, context):
        executor = self.make_executor()
        values, meta = executor(seq, coarse, context)
        self.row_lengths.append(int(executor.kv_stats()["row_length"]))
        return values, meta


class TestStreamKvRewind:
    """The streaming executor's bounded-memory contract (repro.stream):
    the private KV row is trimmed by longest-common-prefix on every
    record, so after any number of window rolls its state is bitwise what
    a cold re-encode of the current record would produce, and row memory
    never accumulates with stream length."""

    @pytest.fixture(scope="class")
    def stream_setting(self, setting):
        dataset, rules = setting
        temporal = mine_stream_rules(
            [rack.windows for rack in dataset.train_racks], dataset.config
        )
        # A slice keeps the per-record solver work test-sized while still
        # binding carryover context through real temporal rules.
        small = RuleSet(name="kv-temporal")
        for rule in list(temporal)[:16]:
            small.add(rule)
        combined = combine_rule_sets(rules, small)
        events = [
            {"seq": i, "event_time": float(i), "coarse": window.coarse()}
            for i, window in enumerate(dataset.test_windows()[:8])
        ]
        model = TransformerLM(TransformerConfig(seed=11))
        return dataset, combined, events, model

    def _make_executor(self, dataset, rules, model):
        enforcer = JitEnforcer(
            model, rules, dataset.config,
            EnforcerConfig(seed=13),
            fallback_rules=[domain_bound_rules(dataset.config)],
            bounds=stream_bounds(dataset.config),
        )
        return EnforcerExecutor(enforcer, seed=21)

    def _session(self, executor, dataset):
        return StreamSession(
            StreamConfig(window=2, seed=21), executor,
            telemetry_config=dataset.config,
        )

    def test_warm_rows_bitwise_match_cold_reencode(self, stream_setting):
        dataset, rules, events, model = stream_setting
        warm_exec = self._make_executor(dataset, rules, model)
        warm_session = self._session(warm_exec, dataset)
        warm_lines, warm_rows = [], []
        for event in events:
            for emission in warm_session.ingest(event):
                warm_lines.append(emission.encode())
                warm_rows.append(int(warm_exec.kv_stats()["row_length"]))
        assert len(warm_lines) == len(events)

        cold = _ColdPerRecord(
            lambda: self._make_executor(dataset, rules, model)
        )
        cold_session = self._session(cold, dataset)
        cold_lines = [
            emission.encode()
            for event in events
            for emission in cold_session.ingest(event)
        ]
        # Bitwise: N window rolls of LCP rewind == cold re-encode.
        assert warm_lines == cold_lines
        # The warm row after record i is exactly the cold row for record
        # i: rewind leaves no residue, so memory is one record's horizon
        # no matter how long the stream has been running.
        assert warm_rows == cold.row_lengths
        stats = warm_exec.kv_stats()
        assert stats["fallbacks"] == 0  # the row never overflowed
        assert stats["tokens_reused"] > 0  # incremental decode was live

    def test_window_roll_evicts_oracle_partitions(self, stream_setting):
        dataset, rules, events, model = stream_setting
        executor = self._make_executor(dataset, rules, model)
        session = self._session(executor, dataset)
        cache = executor.enforcer.oracle_cache
        assert cache is not None
        peak_resident = 0
        for event in events:
            session.ingest(event)
            peak_resident = max(peak_resident, len(cache))
        # window=2 -> a roll every 2 on-time records, each evicting this
        # enforcer's memo partitions: entries were dropped, and residency
        # stayed at the per-window working set rather than accumulating.
        assert executor.cache_evictions > 0
        assert len(cache) <= peak_resident
        assert session.stats()["emitted"] == len(events)
