"""Stdlib-only HTTP front end for the continuous-batching scheduler.

Endpoints (JSON in, JSON out; stdout/err untouched):

* ``POST /v1/impute``      ``{"coarse": {"total":..,"cong":..,"retx":..,
  "egr":..}, "context"?: {..}, "seed"?: int, "priority"?: int,
  "timeout_ms"?: number, "rule_set"?: str}``
* ``POST /v1/synthesize``  ``{"count"?: int, "context"?, "seed"?,
  "priority"?, "timeout_ms"?, "rule_set"?}``
* ``POST /v1/stream``      newline-delimited JSON: one header line
  (``{"seed"?, "window"?, "lateness"?, "late_policy"?, "rule_set"?,
  "stream_id"?}``) followed by event lines (``{"seq", "event_time",
  "coarse"}``); the response is a chunked-transfer ndjson stream of
  enforced emissions, one chunk per record, ordered by seq behind the
  event-time watermark
* ``GET /healthz``         liveness + lane/queue occupancy
* ``GET /metrics``         the scheduler's full metrics snapshot (JSON by
  default; Prometheus text 0.0.4 when the ``Accept`` header asks for
  ``text/plain``/``openmetrics`` or with ``?format=prometheus``)

Failure mapping is explicit so clients can react per cause: queue
backpressure is ``429`` (with ``Retry-After``), a blown deadline is
``504``, an infeasible prompt is ``422``, shutdown is ``503``, malformed
input is ``400``, an unknown rule pack is ``404``, and a retired pack
version is ``409``.

Built on :class:`http.server.ThreadingHTTPServer` -- one handler thread
per connection, each blocking on its request handle while the single
scheduler thread does all enforcement work.  No third-party dependency.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..data.telemetry import COARSE_FIELDS
from ..errors import (
    DeadlineExceeded,
    InfeasibleRecord,
    QueueFull,
    RequestCancelled,
    RetiredRuleSet,
    ServerClosed,
    UnknownRuleSet,
    WorkerCrashed,
    WorkerPoolUnavailable,
)
from ..data.telemetry import TelemetryConfig
from ..obs import OBS
from ..obs.merge import mint_trace_id, stream_trace_id
from ..obs.prometheus import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from ..stream.session import StreamSession, as_event
from .scheduler import ContinuousBatchingScheduler
from .streaming import SubmitStreamExecutor, parse_stream_header
from .types import RequestSpec

__all__ = ["ServingServer", "MAX_BODY_BYTES"]

logger = logging.getLogger(__name__)

#: Request bodies above this size are refused outright (413).
MAX_BODY_BYTES = 1 << 20


class _BadRequest(ValueError):
    """Client-side input error; rendered as HTTP 400."""


def _int_or_none(payload: Dict, key: str) -> Optional[int]:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise _BadRequest(f"{key!r} must be an integer")
    return value


def _number_or_none(payload: Dict, key: str) -> Optional[float]:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _BadRequest(f"{key!r} must be a number")
    return float(value)


def _spec_from_payload(kind: str, payload: Dict) -> RequestSpec:
    if not isinstance(payload, dict):
        raise _BadRequest("request body must be a JSON object")
    coarse = None
    if kind == "impute":
        coarse = payload.get("coarse")
        if not isinstance(coarse, dict):
            raise _BadRequest('"coarse" must be an object of counters')
        missing = [name for name in COARSE_FIELDS if name not in coarse]
        if missing:
            raise _BadRequest(f'"coarse" is missing {missing}')
        try:
            coarse = {name: int(coarse[name]) for name in COARSE_FIELDS}
        except (TypeError, ValueError):
            raise _BadRequest('"coarse" values must be integers')
    context = payload.get("context")
    if context is not None:
        if not isinstance(context, dict):
            raise _BadRequest('"context" must be an object')
        try:
            context = {str(k): int(v) for k, v in context.items()}
        except (TypeError, ValueError):
            raise _BadRequest('"context" values must be integers')
    count = payload.get("count", 1)
    if isinstance(count, bool) or not isinstance(count, int) or count < 1:
        raise _BadRequest('"count" must be a positive integer')
    rule_set = payload.get("rule_set")
    if rule_set is not None and not isinstance(rule_set, str):
        raise _BadRequest('"rule_set" must be a string (name, name@version,'
                          " or hash:<hex>)")
    try:
        return RequestSpec(
            kind,
            coarse=coarse,
            context=context,
            count=count,
            seed=_int_or_none(payload, "seed"),
            priority=_int_or_none(payload, "priority") or 0,
            timeout_ms=_number_or_none(payload, "timeout_ms"),
            rule_set=rule_set,
        )
    except ValueError as exc:
        raise _BadRequest(str(exc))


class _Handler(BaseHTTPRequestHandler):
    # Keep handler threads from lingering on half-open connections.
    timeout = 60
    protocol_version = "HTTP/1.1"

    server: "ServingServer"

    # The correlation id of the request currently being answered; every
    # response (success *and* error) echoes it in a ``trace-id`` header so
    # clients can join their logs against the server-side trace.
    _trace_id: Optional[str] = None
    _last_status: int = 0

    # -- routing ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 -- http.server naming
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            self._send(200, self.server.scheduler_health())
        elif path == "/metrics":
            if self._wants_prometheus(query):
                self._send_text(
                    200,
                    self.server.scheduler.prometheus_text(),
                    PROMETHEUS_CONTENT_TYPE,
                )
            else:
                self._send(200, self.server.scheduler.metrics())
        else:
            self._send(404, {"error": f"unknown path {self.path}"})

    def _wants_prometheus(self, query: str) -> bool:
        """Existing JSON scrapers keep working: text is strictly opt-in."""
        if "format=prometheus" in query.split("&"):
            return True
        accept = (self.headers.get("Accept") or "").lower()
        return "text/plain" in accept or "openmetrics" in accept

    def do_POST(self) -> None:  # noqa: N802
        # Counted, so a graceful shutdown waits for this reply to be written
        # (handler threads are daemons and die with the process).
        self.server.track_reply(+1)
        try:
            self._route_post()
        finally:
            self.server.track_reply(-1)

    def _route_post(self) -> None:
        if self.path == "/v1/stream":
            self._handle_stream()
            return
        routes = {"/v1/impute": "impute", "/v1/synthesize": "synthesize"}
        kind = routes.get(self.path)
        if kind is None:
            self._send(404, {"error": f"unknown path {self.path}"})
            return
        # Trace admission: honor a client-supplied ``trace-id`` header
        # (joining an upstream trace) or mint a fresh correlation id.  The
        # id rides the spec to whichever process enforces the records; the
        # router-side ``request`` span -- when tracing is on -- becomes the
        # root the worker-side record spans re-parent under at merge time.
        trace_id = (self.headers.get("trace-id") or "").strip() or mint_trace_id()
        self._trace_id = trace_id
        try:
            payload = self._read_json()
            spec = _spec_from_payload(kind, payload)
        except _BadRequest as exc:
            self._send(400, {"error": str(exc)})
            return
        span = OBS.start_span(
            "request",
            parent=None,
            attrs={"trace_id": trace_id, "kind": kind, "path": self.path},
        )
        spec = dataclasses.replace(
            spec, trace_id=trace_id, trace_parent=span
        )
        try:
            self._dispatch_request(spec)
        finally:
            OBS.end_span(span, {"status": self._last_status})

    def _dispatch_request(self, spec: RequestSpec) -> None:
        try:
            request = self.server.scheduler.submit(spec)
            result = request.result(timeout=self.server.request_timeout)
        except QueueFull as exc:
            self._send(429, {"error": str(exc)}, retry_after=1)
        except UnknownRuleSet as exc:
            # Raised synchronously at submission: the named pack has never
            # been registered (or no registry is configured at all).
            self._send(404, {"error": str(exc)})
        except RetiredRuleSet as exc:
            # The pack exists but that version was retired from name-based
            # resolution; 409 tells the client to re-resolve, not retry.
            self._send(409, {"error": str(exc)})
        except WorkerPoolUnavailable as exc:
            # The worker pool's circuit breaker is shedding load; the
            # condition clears once a worker restart sticks, so tell the
            # client when to come back.
            self._send(503, {"error": str(exc)}, retry_after=exc.retry_after)
        except DeadlineExceeded as exc:
            self._send(504, {"error": str(exc)})
        except InfeasibleRecord as exc:
            self._send(422, {"error": f"infeasible request: {exc}"})
        except (ServerClosed, RequestCancelled) as exc:
            self._send(503, {"error": str(exc)})
        except WorkerCrashed as exc:
            self._send(500, {"error": str(exc)})
        except TimeoutError as exc:
            request.cancel()
            self._send(504, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 -- captured session errors
            self._send(500, {"error": str(exc)})
        else:
            self._send(200, result.to_json())

    # -- streaming -------------------------------------------------------------

    def _handle_stream(self) -> None:
        """``POST /v1/stream``: ndjson in, chunked ndjson out.

        Everything that can be rejected is rejected *before* the 200
        status goes out (malformed header -> 400, unknown pack -> 404,
        retired version -> 409).  After that the response is committed:
        mid-stream failures surface as an ``{"error": ...}`` line followed
        by the end-of-stream chunk, mirroring how a downstream consumer of
        a live pipeline has to handle source failure anyway.
        """
        lines = self._iter_stream_lines()
        try:
            header_line = next(lines, None)
            if header_line is None:
                raise _BadRequest("empty stream body (missing header line)")
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise _BadRequest(f"invalid header JSON: {exc}")
            try:
                config, rule_set, stream_id = parse_stream_header(header)
            except ValueError as exc:
                raise _BadRequest(str(exc))
        except _BadRequest as exc:
            self._send(400, {"error": str(exc)})
            return
        scheduler = self.server.scheduler
        if rule_set is not None:
            # Probe pack resolution now, while a clean status is possible;
            # per-record submission re-resolves under the same reference.
            registry = getattr(scheduler, "rule_registry", None)
            try:
                if registry is None:
                    raise UnknownRuleSet(
                        f"stream named rule pack {rule_set!r} but this "
                        "server has no rule-set registry configured"
                    )
                registry.resolve(rule_set)
            except UnknownRuleSet as exc:
                self._send(404, {"error": str(exc)})
                return
            except RetiredRuleSet as exc:
                self._send(409, {"error": str(exc)})
                return
        # Deterministic stream trace id: a pure function of (stream_id,
        # seed), so the serial CLI run of the same stream mints the same id
        # and the byte-parity check between serial and HTTP output holds.
        trace_id = stream_trace_id(stream_id, config.seed)
        self._trace_id = trace_id
        span = OBS.start_span(
            "request",
            parent=None,
            attrs={
                "trace_id": trace_id,
                "kind": "stream",
                "path": self.path,
                "stream_id": stream_id,
            },
        )
        session = StreamSession(
            config,
            SubmitStreamExecutor(
                scheduler,
                seed=config.seed,
                rule_set=rule_set,
                sticky_key=stream_id,
                wait_timeout=self.server.request_timeout,
                trace_id=trace_id,
            ),
            telemetry_config=self.server.telemetry_config,
            trace_id=trace_id,
        )
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("trace-id", trace_id)
        self.end_headers()
        self._last_status = 200
        try:
            try:
                for line in lines:
                    try:
                        event = as_event(json.loads(line))
                    except (json.JSONDecodeError, ValueError) as exc:
                        self._write_chunk_line(
                            json.dumps({"error": f"bad event: {exc}"})
                        )
                        continue
                    for emission in session.ingest(event):
                        self._write_chunk_line(emission.encode())
                for emission in session.close():
                    self._write_chunk_line(emission.encode())
            except BrokenPipeError:  # client went away mid-stream
                return
            except Exception as exc:  # noqa: BLE001 -- headers already sent
                logger.exception("stream %s died: %s", stream_id, exc)
                try:
                    self._write_chunk_line(json.dumps({"error": str(exc)}))
                except OSError:
                    return
            try:
                self.wfile.write(b"0\r\n\r\n")
                self.wfile.flush()
            except OSError:
                pass
        finally:
            OBS.end_span(
                span, {"emitted": session.stats().get("emitted", 0)}
            )

    def _write_chunk_line(self, text: str) -> None:
        """One ndjson line as one HTTP chunk, flushed immediately."""
        data = text.encode("utf-8") + b"\n"
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    def _iter_stream_lines(self):
        """The request body as non-empty lines, incrementally.

        Handles both a plain ``Content-Length`` body and client-side
        ``Transfer-Encoding: chunked`` (a follow-mode client cannot know
        its length up front).  Lines are capped at 64 KiB -- far above any
        legitimate event -- so a malformed source cannot balloon memory.
        """
        max_line = 1 << 16
        buffer = b""

        def split(buffer: bytes):
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if line.strip():
                    yield line
            if len(buffer) > max_line:
                raise ValueError("stream line exceeds 64 KiB")
            yield buffer  # sentinel: remainder, returned via closure below

        encoding = (self.headers.get("Transfer-Encoding") or "").lower()
        if "chunked" in encoding:
            while True:
                size_line = self.rfile.readline(72)
                if not size_line:
                    break
                try:
                    size = int(size_line.split(b";")[0].strip() or b"0", 16)
                except ValueError:
                    break
                if size == 0:
                    self.rfile.readline()  # trailer-less final CRLF
                    break
                buffer += self.rfile.read(size)
                self.rfile.read(2)  # chunk-terminating CRLF
                *complete, buffer = list(split(buffer))
                for line in complete:
                    yield line
        else:
            remaining = int(self.headers.get("Content-Length") or 0)
            while remaining > 0:
                chunk = self.rfile.read(min(65536, remaining))
                if not chunk:
                    break
                remaining -= len(chunk)
                buffer += chunk
                *complete, buffer = list(split(buffer))
                for line in complete:
                    yield line
        if buffer.strip():
            yield buffer

    # -- plumbing --------------------------------------------------------------

    def _read_json(self) -> Dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise _BadRequest("request body too large")
        body = self.rfile.read(length) if length else b""
        if not body:
            raise _BadRequest("empty request body")
        try:
            return json.loads(body)
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"invalid JSON: {exc}")

    def _send(
        self, status: int, payload: Dict, retry_after: Optional[int] = None
    ) -> None:
        self._send_bytes(
            status,
            json.dumps(payload).encode(),
            "application/json",
            retry_after=retry_after,
        )

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_bytes(status, text.encode("utf-8"), content_type)

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str,
        retry_after: Optional[int] = None,
    ) -> None:
        self._last_status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._trace_id is not None:
            self.send_header("trace-id", self._trace_id)
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        if self.request_version == "HTTP/0.9":  # no header block at all
            self.wfile.write(body)
            return
        # Headers and body leave in one write (end_headers() would flush
        # the headers alone): a kept-alive client's delayed ACK otherwise
        # holds the body back by ~40 ms.
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def log_message(self, format: str, *args) -> None:
        # Route access logs through logging instead of spamming stderr
        # (stderr is reserved for the CLI's key=value summary records).
        logger.debug("%s - %s", self.address_string(), format % args)


class ServingServer(ThreadingHTTPServer):
    """The bound HTTP server wrapping one scheduler.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`server_address` -- the tests and the CI smoke job do).  The
    server owns the scheduler lifecycle: :meth:`start` launches both, and
    :meth:`shutdown_gracefully` drains in-flight work before closing.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        scheduler: ContinuousBatchingScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: Optional[float] = 300.0,
        telemetry_config: Optional[TelemetryConfig] = None,
    ):
        super().__init__((host, port), _Handler)
        self.scheduler = scheduler
        self.request_timeout = request_timeout
        # /v1/stream needs the record schema to filter emissions; the
        # in-process scheduler carries it on its enforcer, the worker pool
        # does not (enforcers live in child processes), so it is injectable.
        self.telemetry_config = telemetry_config or getattr(
            getattr(scheduler, "enforcer", None), "telemetry_config", None
        ) or TelemetryConfig()
        self._serve_thread: Optional[threading.Thread] = None
        self._replies_pending = 0
        self._replies_done = threading.Condition()

    def track_reply(self, delta: int) -> None:
        """Count POST replies in progress (see :meth:`shutdown_gracefully`)."""
        with self._replies_done:
            self._replies_pending += delta
            self._replies_done.notify_all()

    @property
    def address(self) -> Tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def scheduler_health(self) -> Dict[str, object]:
        return self.scheduler.health()

    def start(self) -> "ServingServer":
        if not self.scheduler.running:
            self.scheduler.start()
        self._serve_thread = threading.Thread(
            target=self.serve_forever,
            # shutdown() waits up to one poll interval; the 0.5 s default
            # made every graceful stop cost half a second.
            kwargs={"poll_interval": 0.05},
            name="repro-serve-http",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def wait(self, poll_interval: float = 1.0) -> None:
        """Block until the serving thread exits (interruptible by signals)."""
        thread = self._serve_thread
        while thread is not None and thread.is_alive():
            thread.join(timeout=poll_interval)

    def shutdown_gracefully(self, drain: bool = True) -> None:
        """Stop accepting connections, drain the scheduler, then let every
        handler that is answering a request finish writing its reply."""
        self.shutdown()
        self.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5)
        self.scheduler.stop(drain=drain)
        with self._replies_done:
            self._replies_done.wait_for(
                lambda: self._replies_pending == 0, timeout=5
            )

    def __enter__(self) -> "ServingServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown_gracefully()
