"""Sliding-window rule binding: cross-record rules over the last W records.

This is the one temporal path (the paper's Section 5 agenda): record ``i``
is generated under rules that may reference any of the previous ``W - 1``
emitted records, named by history offset --

* offset 1: ``prev_total``, ``prev_I0``, ... (so every depth-1 rule ever
  mined keeps working unchanged);
* offset k >= 2: ``prev2_total``, ``prev3_I4``, ...

The LM stays record-local (never conditioned on earlier records' text):
the temporal knowledge enters purely through logic.  Three pieces live here:

* :func:`mine_stream_rules` joins each rack's window sequence at depth W
  and mines the relational (monotone/ratio) shapes across the boundary,
  keeping only rules that mix at least one history variable with at least
  one current variable;
* :func:`stream_bounds` extends the record bounds with every history name
  so the oracles can bind carried values as fixed variables;
* :class:`WindowBinder` turns the session's archive of emitted records
  into the ``context`` mapping for the next record -- the "carryover": the
  bound values of record ``i``'s tail constrain record ``i+1``'s head
  through whatever mined boundary rules mention both.

A window sequence is a depth-2 stream: impute it by feeding in-order
events to a :class:`~repro.stream.session.StreamSession` over an
:class:`~repro.stream.session.EnforcerExecutor`; synthesize it by calling
the executor with ``coarse=None`` on :meth:`WindowBinder.context_for` of
the records so far.

Rules referencing a history offset that is not available (stream start, or
a gap skipped by the watermark) are simply not bound: the enforcer treats
unbound history variables as free within their bounds.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..data.dataset import variable_bounds
from ..data.telemetry import TelemetryConfig, Window, window_variables
from ..rules.dsl import Rule, RuleSet
from ..rules.mining import MinerOptions, mine_rules

__all__ = [
    "history_name",
    "history_prefixes",
    "joined_window_assignments",
    "mine_stream_rules",
    "stream_bounds",
    "combine_rule_sets",
    "WindowBinder",
    "MAX_HISTORY_DEPTH",
]

#: The deepest carryover window any driver accepts.  The serving front end
#: provisions bounds for every offset up to this depth at startup, so a
#: stream request can pick any window <= MAX_HISTORY_DEPTH without the
#: server having to rebuild its enforcer.
MAX_HISTORY_DEPTH = 8

#: The prefix of offset-1 history names (``prev_total``).
PREV_PREFIX = "prev_"


def history_name(name: str, offset: int) -> str:
    """The variable name of ``name`` as seen ``offset`` records back."""
    if offset < 1:
        raise ValueError(f"history offset must be >= 1, got {offset}")
    if offset == 1:
        return PREV_PREFIX + name
    return f"prev{offset}_{name}"


def history_prefixes(depth: int) -> List[str]:
    """The prefixes of every history offset of a depth-W window."""
    return [
        PREV_PREFIX if offset == 1 else f"prev{offset}_"
        for offset in range(1, depth)
    ]


def _is_history(name: str) -> bool:
    return name.startswith(PREV_PREFIX) or (
        name.startswith("prev") and "_" in name
        and name[4:name.index("_")].isdigit()
    )


def joined_window_assignments(
    rack_windows: Sequence[Window], depth: int
) -> List[Dict[str, int]]:
    """Assignments joining each window with its ``depth - 1`` predecessors."""
    if depth < 2:
        raise ValueError("a stream window needs depth >= 2 to be temporal")
    assignments: List[Dict[str, int]] = []
    for index in range(depth - 1, len(rack_windows)):
        joined: Dict[str, int] = {}
        for offset in range(1, depth):
            previous = rack_windows[index - offset].variables()
            joined.update(
                {history_name(k, offset): v for k, v in previous.items()}
            )
        joined.update(rack_windows[index].variables())
        assignments.append(joined)
    return assignments


def mine_stream_rules(
    racks: Sequence[Sequence[Window]],
    config: Optional[TelemetryConfig] = None,
    depth: int = 2,
    options: Optional[MinerOptions] = None,
    name: str = "stream-window",
) -> RuleSet:
    """Mine cross-record monotone/ratio rules over a depth-W window.

    Only genuinely temporal rules survive: each must mention at least one
    history variable *and* at least one current variable, so the set binds
    the window boundary (e.g. smoothness between ``prev_I4`` and ``I0``,
    or congestion persistence across offsets) without duplicating the
    per-record rule set.
    """
    config = config or TelemetryConfig()
    options = options or MinerOptions(
        # The relational families only: identities and burst shapes are
        # record-local, and conditionals explode at window depth.
        identities=False,
        burst_implications=False,
        conditionals=False,
        slack=2,
    )
    assignments: List[Dict[str, int]] = []
    for rack_windows in racks:
        if len(rack_windows) >= depth:
            assignments.extend(joined_window_assignments(rack_windows, depth))
    if not assignments:
        raise ValueError(
            f"need at least one rack with >= {depth} windows to mine a "
            f"depth-{depth} stream window"
        )
    current_names = list(window_variables(config.window))
    variables: List[str] = []
    for offset in range(depth - 1, 0, -1):
        variables.extend(history_name(n, offset) for n in current_names)
    variables.extend(current_names)
    mined = mine_rules(assignments, variables, options, name=name)
    temporal = RuleSet(name=name)
    for rule in mined:
        names = rule.variables()
        has_history = any(_is_history(n) for n in names)
        has_current = any(not _is_history(n) for n in names)
        if has_history and has_current:
            temporal.add(
                Rule(
                    name=rule.name,
                    formula=rule.formula,
                    kind="temporal-" + rule.kind,
                    source="mined",
                    description=rule.description,
                )
            )
    return temporal


def stream_bounds(
    config: Optional[TelemetryConfig] = None, depth: int = MAX_HISTORY_DEPTH
) -> Dict[str, Tuple[int, int]]:
    """Record bounds extended with every history offset up to ``depth``.

    The extra entries are inert for records that bind no history (rules
    that mention none of them never query their bounds), so a server can
    provision them unconditionally without changing batch-workload bytes.
    """
    config = config or TelemetryConfig()
    bounds = dict(variable_bounds(config))
    base = list(bounds.items())
    for offset in range(1, depth):
        for bname, pair in base:
            bounds[history_name(bname, offset)] = pair
    return bounds


def combine_rule_sets(
    base: RuleSet, temporal: RuleSet, name: Optional[str] = None
) -> RuleSet:
    """One rule set holding the per-record rules plus the temporal ones."""
    combined = RuleSet(name=name or f"{base.name}+{temporal.name}")
    for rule in base:
        combined.add(rule)
    for rule in temporal:
        combined.add(rule)
    return combined


class WindowBinder:
    """Builds each record's carryover context from the emission archive.

    The binder is pure bookkeeping: given the archive of previously
    emitted records (a mapping of seq -> record values), it names the
    last ``depth - 1`` of them relative to the record about to be
    generated.  Offsets whose record is missing (stream start, watermark
    gap, archive horizon) contribute nothing -- the corresponding rules
    go unbound rather than blocking the stream.
    """

    def __init__(
        self,
        telemetry_config: Optional[TelemetryConfig] = None,
        depth: int = 2,
    ):
        if depth < 1:
            raise ValueError("window depth must be >= 1")
        if depth > MAX_HISTORY_DEPTH:
            raise ValueError(
                f"window depth {depth} exceeds MAX_HISTORY_DEPTH "
                f"({MAX_HISTORY_DEPTH})"
            )
        self.telemetry_config = telemetry_config or TelemetryConfig()
        self.depth = depth
        self._names = window_variables(self.telemetry_config.window)

    def context_for(
        self, seq: int, archive: Mapping[int, Mapping[str, int]]
    ) -> Dict[str, int]:
        """The ``context`` mapping for record ``seq`` (possibly empty)."""
        context: Dict[str, int] = {}
        for offset in range(1, self.depth):
            record = archive.get(seq - offset)
            if record is None:
                continue
            for field in self._names:
                value = record.get(field)
                if value is not None:
                    context[history_name(field, offset)] = int(value)
        return context

    def boundary_violations(
        self,
        records: Sequence[Mapping[str, int]],
        temporal: RuleSet,
    ) -> int:
        """How many adjacent joins of ``records`` violate ``temporal``.

        The audit joins each record with its ``depth - 1`` predecessors
        under the history naming and evaluates only the rules whose
        variables are fully assigned -- the same restriction the enforcer
        applies during generation.
        """
        violations = 0
        for index in range(1, len(records)):
            joined: Dict[str, int] = dict(records[index])
            for offset in range(1, self.depth):
                if index - offset < 0:
                    break
                joined.update(
                    {
                        history_name(k, offset): v
                        for k, v in records[index - offset].items()
                    }
                )
            auditable = temporal.restricted_to(list(joined))
            if not auditable.compliant(joined):
                violations += 1
        return violations
