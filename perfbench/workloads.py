"""Workload dispatch: build the setting, run one workload, report it."""

from __future__ import annotations

from typing import Dict

from . import offline, serving
from .common import E2E_METRICS, LAYER_METRICS, TINYGPT_STEPS, build_setting, report


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 **options) -> Dict[str, object]:
    """Run ``workload`` and return the result object the command prints.

    ``options`` pass through to the workload (the smoke test shrinks set-up
    repetitions and injects corrupted records through them).
    """
    if workload == "impute-mined":
        setting = build_setting()
        outcome = offline.run(setting, "impute", seed, seconds, trace, **options)
    elif workload == "synth-tinygpt":
        setting = build_setting(
            tinygpt_steps=options.pop("tinygpt_steps", TINYGPT_STEPS)
        )
        outcome = offline.run(setting, "synthesize", seed, seconds, trace,
                              **options)
    elif workload == "serve-pool-http":
        setting = build_setting()
        outcome = serving.run(setting, seed, seconds, trace, **options)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    accounting, metrics, samples = outcome
    units = LAYER_METRICS if trace else E2E_METRICS
    return report(workload, accounting, metrics, units, samples)
