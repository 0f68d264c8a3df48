"""Chaos harness: kill workers mid-run and prove nothing wrong escapes.

The fault-tolerance acceptance test behind ``python -m repro.cli chaos``
and the CI ``chaos-smoke`` job.  One run:

1. start a :class:`~repro.serve.supervisor.WorkerPool` and wait for every
   worker to heartbeat;
2. drive a fixed, seeded imputation workload through it;
3. once ``kill_fraction`` of the requests have completed, SIGKILL one
   (or more) worker processes -- no warning, no cleanup, exactly what the
   OOM killer does;
4. wait for the rest, then audit three properties:

   * **byte parity** -- every completed request's records are identical to
     what a fresh serial :class:`~repro.core.enforcer.JitEnforcer` at the
     same seed produces.  Crash replay must be invisible in the bytes;
   * **availability** -- completed / accepted >= ``availability_target``
     (shed/backpressured submissions are excluded: refusing loudly is
     correct behavior, losing accepted work is not);
   * **reconvergence** -- the supervisor restarts its way back to the full
     configured worker count within ``reconverge_timeout``.

The report is JSON-able; ``passed`` is the single gate CI checks.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from ..core import JitEnforcer
from ..errors import QueueFull, WorkerPoolUnavailable
from ..testing.faults import kill_worker
from .harness import _build_setting, _clear_process_memos
from .supervisor import WorkerPool
from .types import DONE, RequestSpec, ServeRequest

__all__ = ["run_chaos", "format_chaos_report"]


def run_chaos(
    workers: int = 4,
    lanes_per_worker: int = 2,
    requests: int = 24,
    base_seed: int = 500,
    seed: int = 5,
    kill_fraction: float = 0.25,
    kill_slots: Sequence[int] = (0,),
    availability_target: float = 0.99,
    liveness_timeout: float = 1.5,
    backoff_base: float = 0.1,
    reconverge_timeout: float = 30.0,
    wait_timeout: float = 120.0,
) -> Dict[str, object]:
    """One chaos run (see module docstring); returns the audit report."""
    setting = _build_setting(seed)
    _clear_process_memos(setting.model)

    def factory() -> JitEnforcer:
        return setting.enforcer(seed=13)

    def reference(request_seed: int, coarse) -> List[Dict[str, int]]:
        serial = setting.enforcer(seed=request_seed)
        return [dict(serial.impute_record(coarse).values)]

    started = time.monotonic()
    pool = WorkerPool(
        factory,
        workers=workers,
        lanes_per_worker=lanes_per_worker,
        queue_depth=max(64, requests),
        liveness_timeout=liveness_timeout,
        backoff_base=backoff_base,
    )
    pool.start()
    try:
        _wait_for_healthy(pool, workers, timeout=60.0)

        handles: List[Optional[ServeRequest]] = []
        shed = rejected = 0
        specs = []
        for index in range(requests):
            coarse = setting.prompts[index % len(setting.prompts)]
            specs.append((base_seed + index, coarse))
            try:
                handles.append(pool.submit(RequestSpec(
                    "impute", coarse=coarse, seed=base_seed + index
                )))
            except WorkerPoolUnavailable:
                shed += 1
                handles.append(None)
            except QueueFull:
                rejected += 1
                handles.append(None)

        # Let the run get properly underway, then pull the rug.
        kill_threshold = max(1, int(requests * kill_fraction))
        killed_pids = []
        deadline = time.monotonic() + wait_timeout
        while time.monotonic() < deadline:
            done = sum(1 for h in handles if h is not None and h.done)
            if done >= kill_threshold:
                break
            time.sleep(0.01)
        pids = pool.worker_pids()
        for slot in kill_slots:
            pid = pids[slot % len(pids)]
            if pid is not None:
                kill_worker(pid)
                killed_pids.append(pid)

        for handle in handles:
            if handle is not None:
                handle.wait(timeout=wait_timeout)

        accepted = [h for h in handles if h is not None]
        completed = [h for h in accepted if h.status == DONE]
        failed = [h for h in accepted if h.done and h.status != DONE]
        availability = (
            len(completed) / len(accepted) if accepted else 1.0
        )

        mismatches = []
        for index, handle in enumerate(handles):
            if handle is None or handle.status != DONE:
                continue
            request_seed, coarse = specs[index]
            expected = reference(request_seed, coarse)
            got = handle.result(timeout=1).records
            if got != expected:
                mismatches.append({
                    "request_seed": request_seed,
                    "expected": expected,
                    "got": got,
                })

        reconverged = _wait_for_healthy(
            pool, workers, timeout=reconverge_timeout
        )
        supervision = pool.metrics()["supervision"]
        passed = (
            bool(killed_pids)
            and supervision["worker_crashes"] >= len(killed_pids)
            and availability >= availability_target
            and not mismatches
            and reconverged
        )
        return {
            "workers": workers,
            "lanes_per_worker": lanes_per_worker,
            "requests": requests,
            "base_seed": base_seed,
            "seed": seed,
            "killed_pids": killed_pids,
            "accepted": len(accepted),
            "completed": len(completed),
            "failed": len(failed),
            "shed": shed,
            "rejected": rejected,
            "availability": round(availability, 4),
            "availability_target": availability_target,
            "parity_mismatches": mismatches,
            "reconverged": reconverged,
            "worker_crashes": supervision["worker_crashes"],
            "worker_restarts": supervision["worker_restarts"],
            "units_retried": supervision["units_retried"],
            "units_lost": supervision["units_lost"],
            "duration_s": round(time.monotonic() - started, 3),
            "passed": passed,
        }
    finally:
        pool.stop(drain=True, timeout=60)


def _wait_for_healthy(
    pool: WorkerPool, target: int, timeout: float
) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pool.health()["workers_healthy"] >= target:
            return True
        time.sleep(0.05)
    return False


def format_chaos_report(report: Dict[str, object]) -> str:
    """Human-readable summary of a :func:`run_chaos` report."""
    verdict = "PASS" if report["passed"] else "FAIL"
    lines = [
        f"Chaos run [{verdict}]: {report['workers']} workers x "
        f"{report['lanes_per_worker']} lanes, {report['requests']} requests, "
        f"killed pids {report['killed_pids']}",
        f"  accepted={report['accepted']} completed={report['completed']} "
        f"failed={report['failed']} shed={report['shed']} "
        f"rejected={report['rejected']}",
        f"  availability={report['availability']:.4f} "
        f"(target {report['availability_target']:.2f})",
        f"  parity mismatches={len(report['parity_mismatches'])} "
        f"reconverged={report['reconverged']}",
        f"  crashes={report['worker_crashes']} "
        f"restarts={report['worker_restarts']} "
        f"retried={report['units_retried']} lost={report['units_lost']} "
        f"in {report['duration_s']}s",
    ]
    return "\n".join(lines)
