"""repro.serve: an always-on serving layer over the batched engine.

Turns the offline lock-step :class:`~repro.core.engine.EnforcementEngine`
into a service that takes live traffic:

* :class:`ContinuousBatchingScheduler` -- engine lanes with mid-flight
  admission (no wave barriers), priorities, per-request seeds, deadlines,
  cancellation, and graceful drain;
* :class:`AdmissionQueue` -- bounded depth with explicit 429-style
  backpressure;
* :class:`WorkerPool` -- the same surface sharded across supervised
  worker processes (heartbeats, crash replay, exponential-backoff
  restarts, circuit-breaker shedding) for fault isolation;
* :class:`ServingServer` -- a stdlib-only HTTP front end
  (``POST /v1/impute``, ``POST /v1/synthesize``, ``GET /healthz``,
  ``GET /metrics``);
* :class:`ServeClient` -- the matching zero-dependency client;
* :func:`run_serving_bench`, :func:`run_pool_scaling_bench` and
  :func:`run_mixed_tenant_bench` -- the open-loop Poisson load harness
  that ``benchmarks/bench_serving.py`` drives into ``BENCH_serving.json``.

Start one from the CLI with ``python -m repro.cli serve`` (see README,
"Serving").
"""

from .chaos import format_chaos_report, run_chaos
from .client import ServeClient, ServeClientError
from .harness import (
    format_pool_report,
    format_report,
    format_tenant_report,
    run_mixed_tenant_bench,
    run_pool_scaling_bench,
    run_serving_bench,
)
from .http import ServingServer
from .queue import AdmissionQueue
from .scheduler import ContinuousBatchingScheduler
from .streaming import SubmitStreamExecutor, parse_stream_header
from .supervisor import WorkerHandle, WorkerPool
from .workers import WorkerConfig, worker_main
from .types import (
    CANCELLED,
    DONE,
    EXPIRED,
    FAILED,
    QUEUED,
    RUNNING,
    RequestSpec,
    ServeRequest,
    ServeResult,
)

__all__ = [
    "AdmissionQueue",
    "ContinuousBatchingScheduler",
    "WorkerPool",
    "WorkerHandle",
    "WorkerConfig",
    "worker_main",
    "ServingServer",
    "ServeClient",
    "ServeClientError",
    "SubmitStreamExecutor",
    "parse_stream_header",
    "RequestSpec",
    "ServeRequest",
    "ServeResult",
    "run_serving_bench",
    "run_pool_scaling_bench",
    "run_mixed_tenant_bench",
    "run_chaos",
    "format_report",
    "format_pool_report",
    "format_tenant_report",
    "format_chaos_report",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "EXPIRED",
]
