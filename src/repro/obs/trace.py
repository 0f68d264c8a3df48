"""Structured span tracing for the enforcement hot path.

A *span* is one timed operation: a record's enforcement, one variable step,
one LM forward, one solver confirmation.  Spans are **explicitly parented**
-- the code that opens a child names its parent span id -- because the
enforcement engine interleaves many records' work on one thread, so an
implicit thread-local "current span" would misattribute children across
batch-mates.  (A parent *stack* still exists as a convenience for strictly
nested regions; see :class:`repro.obs.Observability`.)

Timing comes from an injectable :class:`~repro.obs.clock.Clock`, so tests
assert exact durations.  Finished spans land in a bounded in-memory ring
buffer (newest wins) and, when a sink is attached, as one JSON object per
line (JSONL).  The span schema is versioned and machine-checkable via
:func:`validate_span`; ``repro.cli obs-report`` and the CI observability
smoke both validate every line against it.
"""

from __future__ import annotations

import io
import json
import os
from collections import deque
from typing import Deque, Dict, IO, Iterable, List, Optional, Union

from .clock import Clock, MonotonicClock

__all__ = [
    "SPAN_SCHEMA_VERSION",
    "WELL_KNOWN_SPANS",
    "SpanTracer",
    "validate_span",
    "load_trace",
]

#: Bumped whenever a field is added/renamed; every emitted span carries it.
SPAN_SCHEMA_VERSION = 1

#: The span names the built-in instrumentation emits.  Consumers must not
#: reject unknown names (the set is open), but reports group by these.
WELL_KNOWN_SPANS = (
    "request",      # one HTTP request, admission to response (router side)
    "record",       # one record's enforcement, end to end
    "step",         # one variable's generation within a record
    "lm_forward",   # one model call (a batched call is ONE span, attrs.rows)
    "feasible_digits",  # oracle feasible-set query feeding digit masking
    "smt_confirm",  # boundary confirmation of a sampled literal
    "smt_check",    # one Solver.check() (nested under confirm/feasible)
    "oracle_begin", # oracle begin_record (residualize + assert + first check)
    "repair",       # the posthoc-repair degradation stage
)

_SCALARS = (str, int, float, bool, type(None))


class SpanTracer:
    """Collects finished spans into a ring buffer and an optional sink.

    ``sink`` is a path or an open text file; each finished span is written
    as one JSON line immediately (the sink is line-buffered via explicit
    flush on :meth:`close`).  ``ring_size`` bounds in-memory retention --
    the ring is for in-process inspection (tests, `/metrics` debugging),
    the sink for offline analysis.

    Span ids are process-unique small ints.  A span is *emitted only when
    ended*; children therefore appear before their parent in the JSONL
    stream, and readers must resolve parents after reading the whole file
    (see :func:`load_trace`).
    """

    def __init__(
        self,
        ring_size: int = 4096,
        sink: Union[None, str, os.PathLike, IO[str]] = None,
        clock: Optional[Clock] = None,
    ):
        if ring_size < 1:
            raise ValueError("ring_size must be >= 1")
        self.clock = clock or MonotonicClock()
        self.ring: Deque[Dict] = deque(maxlen=ring_size)
        self._next_id = 1
        self._open: Dict[int, Dict] = {}
        self.emitted = 0
        self.dropped = 0  # ring overwrites (sink, if any, keeps everything)
        self._sink: Optional[IO[str]] = None
        self._owns_sink = False
        if sink is not None:
            if isinstance(sink, (str, os.PathLike)):
                # Line-buffered: each span line reaches the OS as it is
                # emitted, so a SIGKILLed worker's sink holds every span it
                # finished (at worst one torn tail line, never silent loss).
                self._sink = open(sink, "w", encoding="utf-8", buffering=1)
                self._owns_sink = True
            else:
                self._sink = sink

    # -- span lifecycle --------------------------------------------------------

    def start(
        self,
        name: str,
        parent: Optional[int] = None,
        attrs: Optional[Dict] = None,
    ) -> int:
        """Open a span; returns its id (pass it to children and to end())."""
        span_id = self._next_id
        self._next_id += 1
        self._open[span_id] = {
            "v": SPAN_SCHEMA_VERSION,
            "span": span_id,
            "parent": parent,
            "name": str(name),
            "start": self.clock.now(),
            "attrs": dict(attrs) if attrs else {},
        }
        return span_id

    def end(self, span_id: int, attrs: Optional[Dict] = None) -> Dict:
        """Close a span, stamp its duration, and emit it."""
        span = self._open.pop(span_id, None)
        if span is None:
            raise KeyError(f"span {span_id} is not open")
        if attrs:
            span["attrs"].update(attrs)
        span["end"] = self.clock.now()
        span["dur_s"] = span["end"] - span["start"]
        self._emit(span)
        return span

    def abandon(self, span_id: int) -> None:
        """Drop an open span without emitting (error-path cleanup)."""
        self._open.pop(span_id, None)

    def _emit(self, span: Dict) -> None:
        if len(self.ring) == self.ring.maxlen:
            self.dropped += 1
        self.ring.append(span)
        self.emitted += 1
        if self._sink is not None:
            self._sink.write(json.dumps(span, sort_keys=True) + "\n")

    # -- inspection / teardown -------------------------------------------------

    def drain(self) -> List[Dict]:
        """The ring's contents, oldest first (the ring is left empty)."""
        out = list(self.ring)
        self.ring.clear()
        return out

    @property
    def open_spans(self) -> int:
        return len(self._open)

    def close(self) -> None:
        """Flush and (if owned) close the sink; open spans are abandoned."""
        self._open.clear()
        if self._sink is not None:
            self._sink.flush()
            if self._owns_sink:
                self._sink.close()
            self._sink = None


def validate_span(span: object) -> Dict:
    """Check one decoded span object against the schema; returns it.

    Raises ``ValueError`` with a field-specific message on any violation.
    Used by ``obs-report`` (every line is validated before aggregation)
    and by the CI observability smoke.
    """
    if not isinstance(span, dict):
        raise ValueError(f"span must be a JSON object, got {type(span).__name__}")
    if span.get("v") != SPAN_SCHEMA_VERSION:
        raise ValueError(f"unknown span schema version {span.get('v')!r}")
    for key, types in (
        ("span", int),
        ("name", str),
        ("start", (int, float)),
        ("end", (int, float)),
        ("dur_s", (int, float)),
        ("attrs", dict),
    ):
        if key not in span:
            raise ValueError(f"span is missing required field {key!r}")
        if not isinstance(span[key], types) or isinstance(span[key], bool):
            raise ValueError(f"span field {key!r} has wrong type: {span[key]!r}")
    parent = span.get("parent")
    if parent is not None and (isinstance(parent, bool) or not isinstance(parent, int)):
        raise ValueError(f"span field 'parent' must be an int or null: {parent!r}")
    if span["dur_s"] < 0 or span["end"] < span["start"]:
        raise ValueError(f"span {span['span']} has negative duration")
    for key, value in span["attrs"].items():
        if not isinstance(key, str):
            raise ValueError(f"span attr key {key!r} is not a string")
        if not isinstance(value, _SCALARS):
            raise ValueError(f"span attr {key!r} is not a scalar: {value!r}")
    return span


def load_trace(source: Union[str, os.PathLike, IO[str], Iterable[str]]) -> List[Dict]:
    """Read and validate a JSONL trace; raises ValueError on any bad line."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_trace(handle)
    if isinstance(source, io.TextIOBase):
        source = iter(source)
    spans = []
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            decoded = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {lineno}: invalid JSON: {exc}")
        try:
            spans.append(validate_span(decoded))
        except ValueError as exc:
            raise ValueError(f"trace line {lineno}: {exc}")
    return spans
