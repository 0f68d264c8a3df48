"""Open-loop serving: ``serve-pool-http``.

An in-process ``ServingServer`` over ``WorkerPool(workers=1,
lanes_per_worker=2)`` with the n-gram LM and the mined synthesis pack.  The
benchmark sends ``POST /v1/synthesize`` (count 1, a per-request seed)
on a Poisson schedule at ``RATE_RPS`` from one asyncio client thread; each
request's latency runs from the time it was due, so a stalled server also
delays the requests behind it.
One worker because the machine has two cores: the benchmark process (HTTP
front end, supervisor, clients) takes one and the worker the other.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.prometheus import parse as parse_prometheus
from repro.serve import ServingServer, WorkerPool
from repro.smt.budget import RESOURCES

from .common import (
    REFERENCE_SAMPLE,
    SETUP_BUDGET_S,
    Accounting,
    Packs,
    Setting,
    delta,
    encode_record,
    fit_ngram,
    log,
    mine_packs,
    new_enforcer,
    peak_rss_mb,
    percentile,
    ratio,
    reset_peak_rss,
    timed_setup,
)
from .probes import TimedLM, Totals, oracle_wrapper

# A quarter to a third of this pool's capacity on the reference machine
# (see WORKLOADS.md), so latency is measured below saturation.
RATE_RPS = 50.0
WORKERS = 1
LANES_PER_WORKER = 2
WARMUP_REQUESTS = 64
# A traced run sends the schedule to an untraced and a traced server in this
# many consecutive time slices, taking turns.
TRACE_SLICES = 4
REQUEST_TIMEOUT_S = 30.0
STARTUP_TIMEOUT_S = 60.0
WARMUP_SEED_OFFSET = 1_000_003
# Worker counters reach the parent in heartbeats (every 0.1 s by default);
# wait for a few before reading them after a phase.
HEARTBEAT_SETTLE_S = 0.35


class RecordingPool:
    """A ``WorkerPool`` that keeps every submitted request handle.

    The HTTP front end submits through this, so after a run each response's
    ``request_id`` leads to the worker-side ``RecordOutcome`` (and its
    ``wall_time``) via ``unit_outcomes()``.
    """

    def __init__(self, pool: WorkerPool):
        self._pool = pool
        self.requests: Dict[int, object] = {}

    def __getattr__(self, name):
        return getattr(self._pool, name)

    def submit(self, spec):
        request = self._pool.submit(spec)
        self.requests[request.id] = request
        return request


@dataclass
class ServeSystem:
    packs: Packs
    model: object
    pool: WorkerPool
    server: ServingServer
    recorder: Optional[RecordingPool] = None

    def close(self) -> None:
        self.server.shutdown_gracefully()

    def worker_pids(self) -> List[int]:
        return [pid for pid in self.pool.worker_pids() if pid]


def start(setting: Setting, packs: Packs, model,
          totals: Optional[Totals] = None) -> ServeSystem:
    """Start the pool, wait until every worker is healthy, bind HTTP."""

    def factory():
        wrapped = model if totals is None else TimedLM(model, totals)
        return new_enforcer(
            wrapped, packs.synthesis, packs, setting, seed=0,
            oracle_wrapper=None if totals is None else oracle_wrapper(totals),
        )

    pool = WorkerPool(factory, workers=WORKERS,
                      lanes_per_worker=LANES_PER_WORKER)
    pool.start()
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while pool.health()["workers_healthy"] < WORKERS:
        if time.monotonic() > deadline:
            pool.stop(drain=False)
            raise RuntimeError("worker pool did not become healthy")
        time.sleep(0.001)
    recorder = RecordingPool(pool) if totals is not None else None
    server = ServingServer(recorder or pool, port=0)
    server.start()
    return ServeSystem(packs, model, pool, server, recorder)


def build(setting: Setting) -> ServeSystem:
    """The timed set-up: mine packs, fit the LM, start pool + HTTP."""
    return start(setting, mine_packs(setting), fit_ngram(setting))


# -- load generation ------------------------------------------------------------


@dataclass
class Planned:
    offset: float  # seconds after the run's start when the request is due
    seed: int


@dataclass
class Reply:
    due: float
    sent: float
    done: float
    status: Optional[int]  # None: no HTTP response (timeout, reset)
    body: Dict[str, object]

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


def poisson_plan(seed: int, seconds: float) -> List[Planned]:
    """A Poisson schedule conditioned on exactly ``RATE_RPS * seconds`` arrivals.

    Given their count, Poisson arrival times are sorted uniform draws; fixing
    the count keeps the offered load identical across seeds.
    """
    rng = np.random.default_rng([seed, 1])
    count = max(1, round(RATE_RPS * seconds))
    offsets = np.sort(rng.uniform(0.0, seconds, size=count))
    seeds = rng.integers(0, 2**31 - 1, size=count)
    return [Planned(float(o), int(s)) for o, s in zip(offsets, seeds)]


async def _post(host: str, port: int, path: str,
                payload: Dict[str, object]) -> Tuple[Optional[int], Dict]:
    """One HTTP/1.1 request on its own connection, as ``ServeClient`` does.

    (On a kept-alive connection the server's separate header and body
    writes meet the client's delayed ACK, adding about 40 ms per reply.)
    """
    body = json.dumps(payload).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
        "Content-Type: application/json\r\nConnection: close\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    writer = None
    try:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(head + body)
        status, data = await asyncio.wait_for(_response(reader),
                                              REQUEST_TIMEOUT_S)
    except (OSError, ValueError, asyncio.TimeoutError,
            asyncio.IncompleteReadError) as exc:
        return None, {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        if writer is not None:
            writer.close()
    try:
        return status, json.loads(data)
    except ValueError:
        return status, {"error": data.decode(errors="replace")}


async def _response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _drive(host: str, port: int, plan: Sequence[Planned],
                 open_loop: bool) -> List[Reply]:
    replies: List[Optional[Reply]] = [None] * len(plan)
    start_at = time.perf_counter() + 0.05

    async def send(index: int, planned: Planned) -> None:
        due = start_at + planned.offset if open_loop else time.perf_counter()
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = time.perf_counter()
        status, body = await _post(host, port, "/v1/synthesize",
                                   {"count": 1, "seed": planned.seed})
        replies[index] = Reply(due, sent, time.perf_counter(), status, body)

    if open_loop:
        await asyncio.gather(*(send(i, p) for i, p in enumerate(plan)))
    else:
        for index, planned in enumerate(plan):
            await send(index, planned)
    return replies  # type: ignore[return-value]


def drive(system: ServeSystem, plan: Sequence[Planned],
          open_loop: bool = True) -> List[Reply]:
    """Send ``plan``; replies in plan order.

    Open loop: every request is sent at its due time whatever is still in
    flight.  Closed loop (the warm-up): one request at a time.
    """
    host, port = system.server.address
    return asyncio.run(_drive(host, port, plan, open_loop))


def drive_in_turns(systems: Sequence[ServeSystem], plan: Sequence[Planned],
                   seconds: float) -> List[List[Reply]]:
    """Send ``plan`` to every system, one time slice at a time, in turn.

    Each slice keeps its requests' spacing.  Taking turns gives a traced and
    an untraced server the same share of the machine's speed drift.
    """
    width = seconds / TRACE_SLICES
    parts: List[List[Planned]] = [[] for _ in range(TRACE_SLICES)]
    for planned in plan:
        index = min(int(planned.offset / width), TRACE_SLICES - 1)
        parts[index].append(Planned(planned.offset - index * width,
                                    planned.seed))
    replies: List[List[Reply]] = [[] for _ in systems]
    for part in parts:
        for system, out in zip(systems, replies):
            out.extend(drive(system, part))
    return replies


# -- checks and metrics ---------------------------------------------------------


def audit(system: ServeSystem, replies: List[Reply],
          accounting: Accounting) -> None:
    """HTTP errors, refusals and timeouts fail; so do undegraded violations."""
    for reply in replies:
        accounting.attempted += 1
        if reply.status is None:
            accounting.fail("timeout_or_transport")
            continue
        if reply.status != 200:
            accounting.fail(f"http_{reply.status}")
            continue
        provenance = reply.body["outcomes"][0]
        if accounting.check_record(reply.body["records"][0], system.packs,
                                   system.packs.synthesis,
                                   provenance["tier_index"],
                                   provenance["degraded"]):
            accounting.succeeded += 1


def encoded(replies: List[Reply]) -> List[bytes]:
    return [
        encode_record(r.body["records"][0]) if r.status == 200
        else f"status:{r.status}".encode()
        for r in replies
    ]


def reference_check(setting: Setting, system: ServeSystem,
                    plan: Sequence[Planned], replies: List[Reply],
                    accounting: Accounting) -> None:
    """The first requests, replayed on a serial JitEnforcer per seed."""
    want = []
    for planned in plan[:REFERENCE_SAMPLE]:
        serial = new_enforcer(system.model, system.packs.synthesis,
                              system.packs, setting, planned.seed)
        want.append(encode_record(serial.synthesize_record().values))
    accounting.compare("reference", encoded(replies[:len(want)]), want)


_WORKER_COUNTERS = (
    "repro_enforcer_records_total",
    "repro_enforcer_phase2_records_total",
    "repro_enforcer_var_retries_total",
    "repro_enforcer_budget_retries_total",
    "repro_mask_lookup_hits_total",
    "repro_mask_lookup_fallbacks_total",
    "repro_mask_lookup_live_queries_total",
    "repro_serve_oracle_cache_hits_total",
    "repro_serve_oracle_cache_misses_total",
    "repro_lm_cache_hits_total",
    "repro_lm_cache_misses_total",
)


def worker_counters(system: ServeSystem) -> Dict[str, float]:
    """Worker-side counters from the pool's Prometheus face (GET /metrics)."""
    time.sleep(HEARTBEAT_SETTLE_S)
    host, port = system.server.address
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", "/metrics?format=prometheus")
        parsed = parse_prometheus(conn.getresponse().read().decode())
    finally:
        conn.close()
    return {
        name: sum(value for labels, value in parsed.get(name, [])
                  if "worker" in labels)
        for name in _WORKER_COUNTERS
    }


def _ok(replies: List[Reply]) -> List[Reply]:
    return [r for r in replies if r.status == 200]


def layer_metrics(system: ServeSystem, replies: List[Reply],
                  totals: Dict[str, float], counters: Dict[str, float],
                  untraced_p50: float,
                  accounting: Accounting) -> Dict[str, float]:
    """Split each request's latency: client, HTTP, pool, worker record."""
    ok = _ok(replies)
    late, http_ms, pool_ms, wall_ms, latency = [], [], [], [], []
    work = {r: 0 for r in RESOURCES}
    for reply in ok:
        server_ms = float(reply.body["latency_ms"])
        request = system.recorder.requests[reply.body["request_id"]]
        outcome = request.unit_outcomes()[0]
        late.append((reply.sent - reply.due) * 1000.0)
        http_ms.append((reply.done - reply.sent) * 1000.0 - server_ms)
        pool_ms.append(server_ms - outcome.wall_time * 1000.0)
        wall_ms.append(outcome.wall_time * 1000.0)
        latency.append(reply.latency_ms)
        for resource in RESOURCES:
            work[resource] += outcome.solver_work.get(resource, 0)
    # latency_ms is rounded to the microsecond on the wire.
    if min(http_ms, default=0.0) < -0.001 or min(pool_ms, default=0.0) < 0:
        accounting.integrity_errors.append(
            "a layer remainder is negative: "
            f"http min {min(http_ms):.4f} ms, pool min {min(pool_ms):.4f} ms"
        )
    records = len(ok)
    lm_ms = ratio(totals["lm_s"] * 1000.0, records)
    oracle_ms = ratio(totals["oracle_s"] * 1000.0, records)
    engine_ms = ratio(sum(wall_ms), records) - lm_ms - oracle_ms
    mean_latency = ratio(sum(latency), records)
    parts = {
        "client": ratio(sum(late), records),
        "http": ratio(sum(http_ms), records),
        "pool": ratio(sum(pool_ms), records),
        "lm": lm_ms,
        "oracle": oracle_ms,
        "engine": engine_ms,
    }
    shares = {f"share.{k}": ratio(v, mean_latency) for k, v in parts.items()}
    if abs(sum(shares.values()) - 1.0) > 1e-6:
        accounting.integrity_errors.append(
            f"latency shares sum to {sum(shares.values()):.6f}"
        )
    c = counters
    hits, misses = c["repro_lm_cache_hits_total"], c["repro_lm_cache_misses_total"]
    cache_hits = c["repro_serve_oracle_cache_hits_total"]
    cache_misses = c["repro_serve_oracle_cache_misses_total"]
    mask_hits = c["repro_mask_lookup_hits_total"]
    mask_lookups = mask_hits + c["repro_mask_lookup_fallbacks_total"]
    sessions = c["repro_enforcer_records_total"]
    return {
        "lm.busy_ms_per_record": lm_ms,
        "lm.rows_per_call": ratio(totals["lm_rows"], totals["lm_calls"]),
        "lm.cache_hit_rate": ratio(hits, hits + misses),
        "oracle.busy_ms_per_record": oracle_ms,
        "oracle.calls_per_record": ratio(totals["oracle_calls"], records),
        "oracle.cache_hit_rate": ratio(cache_hits, cache_hits + cache_misses),
        "mask.live_queries_per_record": ratio(
            c["repro_mask_lookup_live_queries_total"], records
        ),
        "mask.hit_rate": ratio(mask_hits, mask_lookups),
        **{f"smt.work_per_record.{r}": ratio(v, records) for r, v in work.items()},
        "session.phase2_share": ratio(
            c["repro_enforcer_phase2_records_total"], sessions
        ),
        "session.retries_per_record": ratio(
            c["repro_enforcer_var_retries_total"]
            + c["repro_enforcer_budget_retries_total"], sessions
        ),
        "engine.self_ms_per_record": engine_ms,
        "record.wall_ms_p50": percentile(wall_ms, 50),
        "pool.overhead_ms_p50": percentile(pool_ms, 50),
        "pool.overhead_ms_p90": percentile(pool_ms, 90),
        "http.overhead_ms_p50": percentile(http_ms, 50),
        "client.late_ms_p90": percentile(late, 90),
        **shares,
        "trace.overhead_pct": ratio(
            percentile(latency, 50) - untraced_p50, untraced_p50
        ) * 100.0,
    }


def run(setting: Setting, seed: int, seconds: float, trace: bool,
        setup_budget_s: float = SETUP_BUDGET_S,
        tamper: Optional[Callable[[List[Reply]], None]] = None):
    """One serving run; returns (accounting, metrics, samples)."""
    reset_peak_rss()
    setup_s, system = timed_setup(lambda: build(setting),
                                  close=ServeSystem.close,
                                  budget_s=setup_budget_s)
    plan = poisson_plan(seed, seconds)
    warmup = [Planned(0.0, seed + WARMUP_SEED_OFFSET + i)
              for i in range(WARMUP_REQUESTS)]
    systems = [system]
    try:
        if trace:
            totals = Totals()
            systems.append(start(setting, system.packs, system.model, totals))
        for each in systems:
            drive(each, warmup, open_loop=False)
        if not trace:
            replies = drive(system, plan)
            peak = peak_rss_mb() + sum(
                peak_rss_mb(p) for p in system.worker_pids()
            )
        else:
            before = totals.snapshot(), worker_counters(systems[1])
            replies, traced_replies = drive_in_turns(systems, plan, seconds)
            after = totals.snapshot(), worker_counters(systems[1])
    finally:
        for each in systems:
            each.close()
    accounting = Accounting()
    if tamper is not None:
        tamper(replies)
    audit(system, replies, accounting)
    reference_check(setting, system, plan, replies, accounting)
    ok = _ok(replies)
    latencies = [r.latency_ms for r in ok]
    samples = {"requests": len(plan), "latency": len(latencies)}
    log(f"offered {RATE_RPS:g} rps for {seconds:g}s: {len(plan)} requests")
    if not trace:
        span = max((r.done for r in ok), default=0.0) - (
            min((r.due for r in replies), default=0.0)
        )
        metrics = {
            "records_per_s": ratio(len(ok), span),
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p90_ms": percentile(latencies, 90),
            "setup_s": setup_s,
            "peak_rss_mb": peak,
        }
        return accounting, metrics, samples

    traced = systems[1]
    audit(traced, traced_replies, accounting)
    accounting.compare("trace", encoded(traced_replies), encoded(replies))
    metrics = layer_metrics(
        traced, traced_replies, delta(after[0], before[0]),
        delta(after[1], before[1]), percentile(latencies, 50), accounting,
    )
    return accounting, metrics, samples
