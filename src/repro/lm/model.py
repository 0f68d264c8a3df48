"""A decoder-only transformer language model (the GPT-2 stand-in).

Architecture mirrors GPT-2 at miniature scale: learned token + position
embeddings, pre-norm blocks with causal multi-head self-attention and a GELU
MLP, weight-tied output head.  Built entirely on :mod:`repro.autograd`.

Inference never touches the autograd tape (nor the module tree's
train/eval flags: the graph-free kernels read neither).  ``forward``
remains the training path (builds the reverse-mode graph);
``next_distribution`` and ``next_distributions`` run one of two pure-numpy
fast paths instead:

* :meth:`TransformerLM._forward_data` -- the *full* path: vectorized over
  (B, T) like ``forward`` and numerically **bit-identical** to it (every
  kernel mirrors the exact numpy expressions the autograd ops execute,
  down to float32 scalar wrapping), just without allocating ``Tensor``
  nodes per op.
* :meth:`TransformerLM.forward_incremental` -- the *incremental* path over
  a :class:`~repro.lm.kv_cache.KVCache`: every row's pending tokens run
  through one batched step kernel per lock-step, computing Q/K/V only for
  new tokens and attending against cached keys.  O(1) work per step in
  prefix length instead of O(T).

The incremental path is **batch-invariant**: a row's logits are bitwise
the same whether it is decoded alone or with any set of batch-mates, so
cached decoding is reproducible across the serial / batched / serving
drivers.  Attention runs each row over the fixed ``max_len`` window, and
the dense layers run as gemms of 2 to 16 rows, whose rows BLAS computes
independently of the row count (a lone row is padded, a wider lock-step
is split).  It is *not* bit-identical to the vectorized full path -- BLAS
reduction order depends on matrix shape -- but the two agree to float32
roundoff and, at fixed seeds, produce byte-identical enforced records
(asserted in tests/lm/test_kv_cache.py and benchmarks/bench_scaling.py).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import Dropout, Embedding, LayerNorm, Linear, Module, Tensor
from .kv_cache import KVCache
from .tokenizer import CharTokenizer

__all__ = ["TransformerConfig", "TransformerLM"]


# Causal masks memoized by sequence length: the hot loop calls attention
# with the same handful of lengths thousands of times, and np.triu on a
# fresh (T, T) allocation was measurable.  Bounded in practice by max_len.
_CAUSAL_MASKS: Dict[int, np.ndarray] = {}

# Additive attention masks for the decode kernel, memoized by window
# length: row p is +0 up to position p (a live score keeps its bits) and
# -1e9 past it (as in _forward_data), which weighs exactly 0 after softmax.
_MASK_BIASES: Dict[int, np.ndarray] = {}

# Most rows one decode-step kernel call takes: the batch-invariance of its
# dense layers is checked for sgemms of 2 to this many rows.
_STEP_ROWS = 16


def _causal_mask(seq: int) -> np.ndarray:
    mask = _CAUSAL_MASKS.get(seq)
    if mask is None:
        mask = np.triu(np.ones((seq, seq), dtype=bool), k=1)
        mask.setflags(write=False)
        _CAUSAL_MASKS[seq] = mask
    return mask


def _mask_bias(seq: int) -> np.ndarray:
    bias = _MASK_BIASES.get(seq)
    if bias is None:
        bias = np.where(_causal_mask(seq), np.float32(-1e9), np.float32(0))
        bias.setflags(write=False)
        _MASK_BIASES[seq] = bias
    return bias


@dataclass
class TransformerConfig:
    vocab_size: int = 16
    max_len: int = 96
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    dropout: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")


class CausalSelfAttention(Module):
    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        super().__init__()
        self.n_heads = config.n_heads
        self.head_dim = config.d_model // config.n_heads
        self.qkv = Linear(config.d_model, 3 * config.d_model, rng=rng)
        self.proj = Linear(config.d_model, config.d_model, rng=rng)
        self.dropout = Dropout(config.dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        batch, seq, dim = x.shape
        qkv = self.qkv(x)  # (B, T, 3D)
        qkv = qkv.reshape(batch, seq, 3, self.n_heads, self.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)  # (3, B, H, T, hd)
        q, k, v = qkv[0], qkv[1], qkv[2]
        scale = 1.0 / np.sqrt(self.head_dim)
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale  # (B, H, T, T)
        scores = scores.masked_fill(_causal_mask(seq), -1e9)
        attention = scores.softmax(axis=-1)
        attention = self.dropout(attention)
        out = attention @ v  # (B, H, T, hd)
        out = out.transpose(0, 2, 1, 3).reshape(batch, seq, dim)
        return self.proj(out)


class Block(Module):
    def __init__(self, config: TransformerConfig, rng: np.random.Generator):
        super().__init__()
        self.ln1 = LayerNorm(config.d_model)
        self.attn = CausalSelfAttention(config, rng)
        self.ln2 = LayerNorm(config.d_model)
        self.fc = Linear(config.d_model, 4 * config.d_model, rng=rng)
        self.proj = Linear(4 * config.d_model, config.d_model, rng=rng)
        self.dropout = Dropout(config.dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        x = x + self.dropout(self.proj(self.fc(self.ln2(x)).gelu()))
        return x


def _layer_norm_data(
    x: np.ndarray, gain: np.ndarray, shift: np.ndarray, eps: float
) -> np.ndarray:
    """Bit-exact mirror of ``LayerNorm.forward`` on raw arrays.

    ``Tensor.mean`` is ``sum * (1/count)`` with the scalar wrapped to
    float32, reproduced here so the graph-free path matches ``forward()``
    bitwise.  The autograd ``x - mu`` lowers to ``x + (-mu)``, which IEEE
    754 defines to be exactly ``x - mu``, so one subtraction stands in.
    """
    count = np.float32(1.0 / float(x.shape[-1]))
    mu = x.sum(axis=-1, keepdims=True) * count
    centered = x - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * count
    normalized = centered * ((var + np.float32(eps)) ** -0.5)
    return normalized * gain + shift


def _gelu_data(x: np.ndarray) -> np.ndarray:
    """Bit-exact mirror of ``Tensor.gelu`` (tanh-approximated GELU)."""
    c = np.float32(np.sqrt(2.0 / np.pi))
    inner = c * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    return 0.5 * x * (1.0 + t)


_GELU_C = np.float32(np.sqrt(2.0 / np.pi))


def _gelu_step(x: np.ndarray) -> np.ndarray:
    """:func:`_gelu_data` for the decode kernel, cubing by multiplication.

    numpy's float32 ``x**3`` goes through ``powf``, which cost over a
    third of a batched decode step; ``x*x*x`` is ~60x cheaper and differs
    only in the last bits (the full path keeps ``_gelu_data`` so it stays
    bitwise equal to ``forward()``).
    """
    inner = _GELU_C * (x + 0.044715 * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


class TransformerLM(Module):
    """GPT-style causal LM implementing the LeJIT ``LanguageModel`` protocol."""

    supports_kv_cache = True

    def __init__(
        self,
        config: TransformerConfig,
        tokenizer: Optional[CharTokenizer] = None,
    ):
        super().__init__()
        rng = np.random.default_rng(config.seed)
        self.config = config
        self.tokenizer = tokenizer or CharTokenizer()
        if self.tokenizer.vocab_size > config.vocab_size:
            raise ValueError("config.vocab_size smaller than tokenizer vocabulary")
        self.token_embedding = Embedding(config.vocab_size, config.d_model, rng=rng)
        self.position_embedding = Embedding(config.max_len, config.d_model, rng=rng)
        self.blocks = [Block(config, rng) for _ in range(config.n_layers)]
        for idx, block in enumerate(self.blocks):
            self._modules[f"block{idx}"] = block
        self.ln_final = LayerNorm(config.d_model)
        self.head = Linear(config.d_model, config.vocab_size, bias=False, rng=rng)
        # Caches handed out by new_kv_cache, tracked weakly so
        # lm_cache_stats() can aggregate without pinning driver lifetimes.
        self._kv_caches: "weakref.WeakSet[KVCache]" = weakref.WeakSet()

    # -- training path (autograd graph) ----------------------------------------

    def forward(self, ids: np.ndarray) -> Tensor:
        """ids: int array (B, T) -> logits Tensor (B, T, V)."""
        ids = np.asarray(ids)
        batch, seq = ids.shape
        if seq > self.config.max_len:
            raise ValueError(f"sequence length {seq} exceeds max_len")
        positions = np.arange(seq)
        x = self.token_embedding(ids) + self.position_embedding(positions)
        for block in self.blocks:
            x = block(x)
        return self.head(self.ln_final(x))

    # -- inference plumbing ------------------------------------------------------

    def _block_weights(self, block: Block):
        attn = block.attn
        return (
            block.ln1.gain.data,
            block.ln1.shift.data,
            block.ln1.eps,
            attn.qkv.weight.data,
            attn.qkv.bias.data,
            attn.proj.weight.data,
            attn.proj.bias.data,
            block.ln2.gain.data,
            block.ln2.shift.data,
            block.ln2.eps,
            block.fc.weight.data,
            block.fc.bias.data,
            block.proj.weight.data,
            block.proj.bias.data,
        )

    def _inference_weights(self):
        """Raw parameter arrays for the graph-free kernels.

        Collected per call (a few dozen attribute reads) rather than
        memoized: optimizers and load_state_dict update ``.data`` in
        place, but nothing stops a caller from rebinding it.
        """
        return (
            self.token_embedding.weight.data,
            self.position_embedding.weight.data,
            [self._block_weights(block) for block in self.blocks],
            self.ln_final.gain.data,
            self.ln_final.shift.data,
            self.ln_final.eps,
            self.head.weight.data,
        )

    # -- full fast path (vectorized, bitwise-equal to forward()) -----------------

    def _forward_data(self, ids: np.ndarray) -> np.ndarray:
        """Graph-free twin of :meth:`forward`: (B, T) ids -> (B, T, V) logits.

        Every expression mirrors what the autograd ops execute on ``.data``
        (same numpy calls, shapes, order, and float32 scalar wrapping), so
        the result is bit-identical to ``forward(ids).data`` in eval mode
        -- asserted in tests/lm/test_kv_cache.py -- while allocating zero
        ``Tensor`` nodes in the hot loop.
        """
        ids = np.asarray(ids)
        batch, seq = ids.shape
        if seq > self.config.max_len:
            raise ValueError(f"sequence length {seq} exceeds max_len")
        tok, pos, blocks, gain_f, shift_f, eps_f, head = self._inference_weights()
        n_heads, head_dim = self.config.n_heads, self.config.d_model // self.config.n_heads
        scale = np.float32(1.0 / np.sqrt(head_dim))
        causal = _causal_mask(seq)
        x = tok[ids] + pos[np.arange(seq)]
        for (
            gain1, shift1, eps1, w_qkv, b_qkv, w_proj, b_proj,
            gain2, shift2, eps2, w_fc, b_fc, w_out, b_out,
        ) in blocks:
            h = _layer_norm_data(x, gain1, shift1, eps1)
            qkv = (h @ w_qkv) + b_qkv
            qkv = qkv.reshape(batch, seq, 3, n_heads, head_dim)
            qkv = qkv.transpose(2, 0, 3, 1, 4)
            q, k, v = qkv[0], qkv[1], qkv[2]
            scores = (q @ k.transpose(0, 1, 3, 2)) * scale
            scores = np.where(causal, np.float32(-1e9), scores)
            shifted = scores - scores.max(axis=-1, keepdims=True)
            exp = np.exp(shifted)
            attention = exp / exp.sum(axis=-1, keepdims=True)
            out = (attention @ v).transpose(0, 2, 1, 3).reshape(batch, seq, -1)
            x = x + ((out @ w_proj) + b_proj)
            h2 = _layer_norm_data(x, gain2, shift2, eps2)
            x = x + ((_gelu_data((h2 @ w_fc) + b_fc) @ w_out) + b_out)
        return _layer_norm_data(x, gain_f, shift_f, eps_f) @ head

    # -- incremental fast path (KV cache, batched step kernel) -------------------

    def new_kv_cache(self, rows: int) -> KVCache:
        """Allocate a decode cache with one row per lane."""
        cache = KVCache(
            rows=rows,
            n_layers=self.config.n_layers,
            n_heads=self.config.n_heads,
            max_len=self.config.max_len,
            head_dim=self.config.d_model // self.config.n_heads,
        )
        self._kv_caches.add(cache)
        return cache

    def lm_cache_stats(self) -> Dict[str, float]:
        """Aggregate hit/miss/invalidation counters over live caches."""
        totals = {
            "backend": "transformer",
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "fallbacks": 0,
            "tokens_reused": 0,
            "tokens_computed": 0,
        }
        for cache in list(self._kv_caches):
            stats = cache.stats()
            for key in (
                "hits", "misses", "invalidations", "fallbacks",
                "tokens_reused", "tokens_computed",
            ):
                totals[key] += stats[key]
        return totals

    def _decode_step(self, tokens: np.ndarray, cache: KVCache,
                     rows: np.ndarray, weights) -> np.ndarray:
        """Decode one new token for each of n distinct rows: (n, V) logits.

        The dense layers (LayerNorm, QKV, proj, MLP, head) run as one
        (n, .) op each; every row's K/V is scattered into its own cache
        slot, and attention gathers each row's keys/values over the fixed
        ``max_len`` window, masking positions past the row's end with
        -1e9 (exactly zero weight after the softmax).  Fixed per-row
        shapes keep a row's attention bits independent of its
        batch-mates; the dense layers rely on BLAS computing every row of
        an M-row sgemm identically for 2 <= M <= ``_STEP_ROWS`` (guarded
        in tests/lm/test_kv_cache.py).  M = 1 takes the gemv path instead,
        so a lone row's dense inputs are padded with a copy of the row.
        """
        count = len(rows)
        pad = count == 1
        if pad:
            # A one-row slice indexes the cache by views, not copies.
            rows = slice(int(rows[0]), int(rows[0]) + 1)
        tok, pos_table, blocks, gain_f, shift_f, eps_f, head = weights
        max_len, n_heads = self.config.max_len, self.config.n_heads
        head_dim = self.config.d_model // n_heads
        scale = np.float32(1.0 / np.sqrt(head_dim))
        positions = cache.lengths[rows]
        if positions.max() >= max_len:
            raise ValueError("cache row is full; caller must fall back")
        bias = _mask_bias(max_len)[positions][:, None, :]  # (n, 1, P)
        x = tok[tokens] + pos_table[positions]  # (n, D)
        if pad:
            x = np.repeat(x, 2, axis=0)
        for layer, (
            gain1, shift1, eps1, w_qkv, b_qkv, w_proj, b_proj,
            gain2, shift2, eps2, w_fc, b_fc, w_out, b_out,
        ) in enumerate(blocks):
            h = _layer_norm_data(x, gain1, shift1, eps1)
            qkv = ((h @ w_qkv) + b_qkv)[:count].reshape(count, 3, n_heads, head_dim)
            cache.keys[rows, layer, :, :, positions] = qkv[:, 1]
            cache.values[rows, layer, :, positions] = qkv[:, 2]
            keys = cache.keys[rows, layer]  # (n, H, hd, P)
            values = cache.values[rows, layer]  # (n, H, P, hd)
            scores = ((qkv[:, 0, :, None, :] * scale) @ keys)[:, :, 0] + bias  # (n, H, P)
            shifted = scores - scores.max(axis=-1, keepdims=True)
            exp = np.exp(shifted)
            attention = exp / exp.sum(axis=-1, keepdims=True)
            context = (attention[:, :, None, :] @ values).reshape(count, -1)
            if pad:
                context = np.repeat(context, 2, axis=0)
            x = x + ((context @ w_proj) + b_proj)
            h2 = _layer_norm_data(x, gain2, shift2, eps2)
            x = x + ((_gelu_step((h2 @ w_fc) + b_fc) @ w_out) + b_out)
        cache.commit(rows, tokens)
        return (_layer_norm_data(x, gain_f, shift_f, eps_f) @ head)[:count]

    def _decode_pending(self, pending, cache: KVCache, out: np.ndarray) -> None:
        """Run every ``(index, row, new_ids)`` to its end in lock-steps.

        Step t decodes the t-th new token of every row that still has
        one, so prompt catch-up and rewinds batch like single-token
        steps; a row's logits land in ``out[index]`` after its last token.
        A step over more than ``_STEP_ROWS`` rows runs as several kernel
        calls of at most that many rows.
        """
        if not pending:
            return
        if len({row for _, row, _ in pending}) != len(pending):
            raise ValueError("every prefix in a cached batch needs its own row")
        weights = self._inference_weights()
        pending.sort(key=lambda item: -len(item[2]))  # active rows: a prefix
        for step in range(len(pending[0][2])):
            while len(pending[-1][2]) <= step:
                pending.pop()
            for start in range(0, len(pending), _STEP_ROWS):
                chunk = pending[start : start + _STEP_ROWS]
                tokens = np.array([ids[step] for _, _, ids in chunk], dtype=np.int64)
                rows = np.array([row for _, row, _ in chunk], dtype=np.int64)
                logits = self._decode_step(tokens, cache, rows, weights)
                for (index, _, ids), row_logits in zip(chunk, logits):
                    if len(ids) == step + 1:
                        out[index] = row_logits

    def forward_incremental(
        self,
        ids_step: Sequence[Sequence[int]],
        cache: KVCache,
        rows: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Append new token(s) per row; (B, V) logits at each row's new end.

        Computes Q/K/V only for the appended tokens and attends against
        the row's cached keys.  The caller is responsible for prefix
        bookkeeping (``KVCache.match``/``trim``); ``next_distribution``
        and ``next_distributions`` wrap this with that logic plus the
        full-forward fallback for prefixes beyond the context window.
        """
        if rows is None:
            rows = range(len(ids_step))
        pending = []
        for index, (row, step) in enumerate(zip(rows, ids_step)):
            step_ids = np.atleast_1d(np.asarray(step, dtype=np.int64))
            if step_ids.size == 0:
                raise ValueError("each step must append at least one token")
            pending.append((index, row, step_ids))
        logits = np.empty((len(pending), self.config.vocab_size), dtype=np.float32)
        self._decode_pending(pending, cache, logits)
        return logits

    def _incremental_logits(
        self, prefixes: Sequence[Sequence[int]], cache: KVCache, rows: Sequence[int]
    ) -> np.ndarray:
        """(B, V) logits after each prefix, reusing each row's cached prefix.

        Plans every row first (match, trim, lookup accounting, and the
        full-forward fallback past ``max_len``), then decodes all pending
        tokens in batched lock-steps.
        """
        max_len = self.config.max_len
        logits = np.empty((len(prefixes), self.config.vocab_size), dtype=np.float32)
        pending = []
        for index, (prefix, row) in enumerate(zip(prefixes, rows)):
            ids = np.asarray(prefix, dtype=np.int64)
            length = ids.shape[0]
            if length == 0:
                raise ValueError("prefix must contain at least BOS")
            if length > max_len:
                # A sliding window shifts every position index, so the
                # cached K/V no longer line up.  Drop the row and take the
                # full forward on the truncated window -- bitwise identical
                # to what the uncached path computes for the same prefix.
                cache.invalidate(row)
                cache.note_fallback()
                logits[index] = self._forward_data(ids[None, -max_len:])[0, -1]
                continue
            matched = cache.match(row, ids)
            if matched >= length:
                # Whole prefix already cached (rewind to a seen state):
                # logits aren't stored, so recompute just the last token.
                matched = length - 1
            cache.trim(row, matched)
            cache.note_lookup(matched, length - matched)
            pending.append((index, row, ids[matched:]))
        self._decode_pending(pending, cache, logits)
        return logits

    # -- LanguageModel protocol ---------------------------------------------------

    def next_distribution(
        self,
        prefix_ids: Sequence[int],
        cache: Optional[KVCache] = None,
        row: int = 0,
    ) -> np.ndarray:
        """LanguageModel protocol: next-token probabilities for one prefix.

        With a ``cache``, decodes incrementally against the given row;
        without one, runs the vectorized graph-free full forward (bitwise
        identical to the historical autograd path).
        """
        if cache is not None:
            logits = self._incremental_logits([prefix_ids], cache, [row])[0]
        else:
            ids = np.asarray(prefix_ids, dtype=np.int64)
            logits = self._forward_data(ids[None, -self.config.max_len :])[0, -1]
        return self._softmax(logits)

    def next_distributions(
        self,
        batch_of_prefix_ids: Sequence[Sequence[int]],
        cache: Optional[KVCache] = None,
        rows: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Batched protocol: (B, V) next-token probabilities.

        Cached mode decodes every lane's pending tokens in batched
        lock-steps -- rows are bitwise identical to the serial cached path
        at any batch size.  Uncached mode keeps the padded single-forward
        batch: prefixes are truncated to the context window, right-padded
        with PAD to the longest row, and pushed through one vectorized
        forward; causal attention guarantees the padding can never
        influence the logits at each row's last real position, which are
        the ones gathered here.
        """
        if len(batch_of_prefix_ids) == 0:
            return np.zeros((0, self.config.vocab_size), dtype=np.float64)
        if cache is not None:
            if rows is None:
                rows = range(len(batch_of_prefix_ids))
            return self._softmax(
                self._incremental_logits(batch_of_prefix_ids, cache, rows)
            )
        prefix_rows = [
            np.asarray(prefix, dtype=np.int64)[-self.config.max_len :]
            for prefix in batch_of_prefix_ids
        ]
        lengths = np.array([len(row) for row in prefix_rows], dtype=np.int64)
        if np.any(lengths == 0):
            raise ValueError("every prefix must contain at least BOS")
        width = int(lengths.max())
        ids = np.full((len(prefix_rows), width), self.tokenizer.pad_id, dtype=np.int64)
        for index, row in enumerate(prefix_rows):
            ids[index, : len(row)] = row
        logits = self._forward_data(ids)
        last = logits[np.arange(len(prefix_rows)), lengths - 1]
        return self._softmax(last)

    @staticmethod
    def _softmax(logits: np.ndarray) -> np.ndarray:
        # Single stable pass: one float64 buffer shifted, exponentiated in
        # place, and normalized -- same bits as the old exp-then-divide.
        shifted = (logits - logits.max(axis=-1, keepdims=True)).astype(np.float64)
        np.exp(shifted, out=shifted)
        shifted /= shifted.sum(axis=-1, keepdims=True)
        return shifted
