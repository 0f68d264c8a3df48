"""LeJIT core: Just-in-Time Logic Enforcement during LM inference.

The :class:`JitEnforcer` wraps any autoregressive character-level language
model and guides its generation with an SMT-backed feasibility oracle, so
the emitted telemetry records comply with a configurable rule set -- the
paper's central mechanism.
"""

from .enforcer import (
    LADDER_STAGES,
    EnforcerConfig,
    EnforcementTrace,
    JitEnforcer,
    RecordOutcome,
    record_rng,
)
from .engine import EnforcementEngine, EngineStats, LanePool, RecordRequest
from .feasible import (
    FeasibilityOracle,
    HybridOracle,
    InfeasibleRecordError,
    IntervalOracle,
    OracleCache,
    SmtOracle,
)
from .session import EnforcementSession, Lane
from .pipeline import (
    GenerationError,
    RecordSampler,
    audit_violation_rate,
    degradation_report,
)
from .transition import SEPARATOR, DigitTransitionSystem, FeasibleSet

__all__ = [
    "JitEnforcer",
    "EnforcerConfig",
    "EnforcementTrace",
    "RecordOutcome",
    "LADDER_STAGES",
    "EnforcementEngine",
    "EngineStats",
    "LanePool",
    "RecordRequest",
    "record_rng",
    "EnforcementSession",
    "Lane",
    "OracleCache",
    "FeasibilityOracle",
    "HybridOracle",
    "SmtOracle",
    "IntervalOracle",
    "InfeasibleRecordError",
    "RecordSampler",
    "GenerationError",
    "audit_violation_rate",
    "degradation_report",
    "DigitTransitionSystem",
    "FeasibleSet",
    "SEPARATOR",
]
