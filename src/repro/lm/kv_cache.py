"""Per-lane key/value cache for incremental transformer decoding.

The enforcement loop asks the LM for one distribution per emitted
character, so without caching every step re-encodes the whole prefix --
O(T) work per token, O(T^2) per record.  A :class:`KVCache` keeps each
lane's attention keys/values (and the token ids that produced them) in
preallocated arrays, so a step that extends a cached prefix only computes
the new token: O(1) in prefix length.

Rows are the unit of ownership: the serial enforcer owns row 0 of a
one-row cache, the batched engine and the serving scheduler give each lane
its own row of a pool-sized cache.  A row is never shared across
concurrent sessions.  The model decodes the rows of a lock-step in
batched kernel calls, but a row's bits never depend on its batch-mates:
each row attends over the fixed ``max_len`` window (positions past its end
masked out), and the dense layers run as gemms of 2 to 16 rows, whose
rows BLAS computes independently of the row count.  That is what makes
cached decoding byte-identical across batch sizes and drivers.

Reuse is prefix-keyed, not session-keyed: on every lookup the model asks
:meth:`match` for the longest common prefix between the row's stored ids
and the requested prefix, trims the divergent suffix, and recomputes only
the rest.  That one mechanism covers all lifecycle events --

* normal decoding extends the cached prefix by one token (full reuse);
* a literal retry or a degradation-ladder rung rewinds the prefix
  (partial reuse back to the variable/prompt boundary);
* lane reuse across records keeps whatever prompt prefix carries over;
* :meth:`invalidate` (explicit, e.g. after a faulted session) and
  prefixes longer than ``max_len`` (position indices would slide) drop
  the row entirely.

Counters (``hits``/``misses``/``invalidations`` plus token-level reuse
and full-forward fallbacks) feed the ``repro_lm_cache_*`` metrics.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

__all__ = ["KVCache"]


class KVCache:
    """Preallocated per-layer K/V arrays with one row per decode lane."""

    def __init__(
        self,
        rows: int,
        n_layers: int,
        n_heads: int,
        max_len: int,
        head_dim: int,
    ):
        if rows < 1:
            raise ValueError("cache needs at least one row")
        self.rows = rows
        self.max_len = max_len
        # Values are (rows, layers, heads, positions, head_dim); keys are
        # stored transposed, (rows, layers, heads, head_dim, positions), so
        # attention scores are one (1, hd) @ (hd, P) product per head.
        # float32 to match the model's parameters.  ~rows * layers * heads
        # * max_len * head_dim * 2 * 4 bytes -- e.g. 16 lanes at the
        # default config is ~12 MiB.
        self.keys = np.zeros(
            (rows, n_layers, n_heads, head_dim, max_len), dtype=np.float32
        )
        self.values = np.zeros(
            (rows, n_layers, n_heads, max_len, head_dim), dtype=np.float32
        )
        self.ids = np.zeros((rows, max_len), dtype=np.int64)
        self.lengths = np.zeros(rows, dtype=np.int64)
        # -- counters (one lookup = one hit or one miss) -----------------------
        self.hits = 0  # lookups that reused at least one cached token
        self.misses = 0  # lookups that had to start from scratch
        self.invalidations = 0  # explicit invalidates + divergence trims
        self.tokens_reused = 0
        self.tokens_computed = 0
        self.fallbacks = 0  # prefix exceeded max_len: full forward instead

    # -- row state --------------------------------------------------------------

    def length(self, row: int) -> int:
        return int(self.lengths[row])

    def match(self, row: int, prefix_ids: Sequence[int]) -> int:
        """Length of the longest common prefix of the row and ``prefix_ids``."""
        cached = int(self.lengths[row])
        limit = min(cached, len(prefix_ids))
        if limit == 0:
            return 0
        stored = self.ids[row, :limit]
        probe = np.asarray(prefix_ids[:limit], dtype=np.int64)
        diverged = np.nonzero(stored != probe)[0]
        return int(diverged[0]) if diverged.size else limit

    def trim(self, row: int, length: int) -> None:
        """Drop cached tokens beyond ``length`` (rewind / divergence).

        A trim that actually discards tokens counts as an invalidation:
        the divergent suffix's K/V entries are dead and will be recomputed.
        """
        if length < 0:
            raise ValueError("trim length must be >= 0")
        if length < self.lengths[row]:
            self.invalidations += 1
            self.lengths[row] = length

    def invalidate(self, row: int) -> None:
        """Drop the row entirely (faulted session, weight change, eviction)."""
        if self.lengths[row]:
            self.invalidations += 1
        self.lengths[row] = 0

    def commit(self, rows, token_ids) -> None:
        """Record that the model appended one token's K/V at each row's end.

        ``rows``/``token_ids`` are a row and a token, or an array (or
        slice) of distinct rows and an equal-length array of their
        tokens.  The model writes the K/V arrays directly (it owns the
        layout); commit just advances the bookkeeping so :meth:`match`
        sees it.
        """
        positions = self.lengths[rows]
        if positions.max() >= self.max_len:
            raise ValueError("cache row is full; caller must fall back")
        self.ids[rows, positions] = token_ids
        self.lengths[rows] = positions + 1

    # -- accounting -------------------------------------------------------------

    def note_lookup(self, reused: int, computed: int) -> None:
        if reused > 0:
            self.hits += 1
        else:
            self.misses += 1
        self.tokens_reused += reused
        self.tokens_computed += computed

    def note_fallback(self) -> None:
        self.fallbacks += 1
        self.misses += 1

    def stats(self) -> Dict[str, float]:
        lookups = self.hits + self.misses
        tokens = self.tokens_reused + self.tokens_computed
        return {
            "rows": self.rows,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "fallbacks": self.fallbacks,
            "tokens_reused": self.tokens_reused,
            "tokens_computed": self.tokens_computed,
            "hit_rate": self.hits / lookups if lookups else 0.0,
            "token_reuse_rate": self.tokens_reused / tokens if tokens else 0.0,
        }
