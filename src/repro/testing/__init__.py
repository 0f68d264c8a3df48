"""Fault-injection harness for chaos-testing the JIT enforcement loop.

See :mod:`repro.testing.faults` for the wrappers and configuration.
"""

from .faults import (
    CrashingLM,
    FaultConfig,
    FaultInjector,
    FaultStats,
    FaultyLM,
    FaultyOracle,
    FlakyStreamSource,
    FullForwardLM,
    StallingOracle,
    kill_worker,
    resume_worker,
    stall_worker,
    wait_for_sentinel_pid,
)

__all__ = [
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "FaultyLM",
    "FaultyOracle",
    "CrashingLM",
    "FullForwardLM",
    "StallingOracle",
    "FlakyStreamSource",
    "wait_for_sentinel_pid",
    "kill_worker",
    "stall_worker",
    "resume_worker",
]
