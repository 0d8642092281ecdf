"""The asyncio HTTP/JSON front end: ``repro serve``.

A deliberately small HTTP/1.1 server over ``asyncio.start_server`` —
no framework, no dependency, just enough protocol for a JSON job API
on localhost:

====================  =============================================
``GET  /v1/healthz``  liveness (``{"ok": true}``)
``GET  /v1/version``  the package version (single-sourced)
``GET  /v1/metrics``  the daemon registry's full snapshot
``POST /v1/jobs``     submit a job spec -> job record (``429`` when
                      the queue refuses, ``400`` on a bad spec)
``GET  /v1/jobs/ID``  job status
``GET  /v1/jobs/ID/result``  status plus the result payload
``DELETE /v1/jobs/ID``  cancel (``409`` once terminal)
``POST /v1/shutdown``  graceful stop
====================  =============================================

Error mapping is explicit: :class:`~repro.errors.QueueFullError` is
``429`` (backpressure is the contract, not a failure),
:class:`~repro.errors.JobNotFoundError` is ``404``, any other
:class:`~repro.errors.ServiceError` is ``400``, and cancel-after-done
is ``409``.  Connections are keep-alive by default so a client can
submit and poll over one socket.

:class:`ServiceThread` hosts the whole daemon (loop, scheduler,
server) in a background thread — the harness tests, the CI smoke job
and the load bench all drive a real socket through it.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass
from pathlib import Path

from .._version import __version__
from ..errors import (
    ConfigError,
    JobNotFoundError,
    QueueFullError,
    ServiceError,
    ServiceUnavailableError,
)
from ..telemetry.registry import MetricsRegistry
from .protocol import JobState, record_to_wire, spec_from_wire
from .queue import JobQueue
from .scheduler import Scheduler
from .store import ResultCache

__all__ = ["ExperimentService", "ServiceConfig", "ServiceThread"]

#: Refuse request bodies beyond this (a job spec is a few hundred bytes).
MAX_BODY_BYTES = 8 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: What a 429 response advises clients to wait before retrying
#: (seconds) — small, because the queue refills as fast as one job
#: finishes.
RETRY_AFTER_S = 0.05


@dataclass(frozen=True)
class ServiceConfig:
    """How to stand up one experiment daemon.

    ``port=0`` binds an ephemeral port (read it back from
    ``ExperimentService.port`` / ``ServiceThread.port``).
    ``store_root=None`` disables the result cache — every submission
    computes; point it at a directory to serve repeats from disk
    (``<store_root>/results/``), across daemon restarts too.
    ``checkpoint_root=None`` disables sweep checkpointing.
    ``drain_timeout_s`` bounds how long a graceful shutdown waits for
    admitted jobs before cancelling the stragglers.
    """

    host: str = "127.0.0.1"
    port: int = 0
    store_root: str | Path | None = None
    pools: int = 2
    workers_per_pool: int = 2
    queue_depth: int = 1024
    max_per_tenant: int | None = None
    checkpoint_root: str | Path | None = None
    drain_timeout_s: float = 30.0


class ExperimentService:
    """The daemon: HTTP front end + scheduler + on-disk result cache.

    Owns an explicit :class:`MetricsRegistry` (never the ambient
    telemetry global) that aggregates service counters, the latency
    histogram and every finished job's simulator metrics.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 registry: MetricsRegistry | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        cache = None
        if self.config.store_root is not None:
            cache = ResultCache(self.config.store_root,
                                registry=self.registry)
        self.cache = cache
        self.scheduler = Scheduler(
            registry=self.registry,
            cache=cache,
            queue=JobQueue(max_depth=self.config.queue_depth,
                           max_per_tenant=self.config.max_per_tenant,
                           registry=self.registry),
            pools=self.config.pools,
            workers_per_pool=self.config.workers_per_pool,
            checkpoint_root=self.config.checkpoint_root,
        )
        self._server: asyncio.base_events.Server | None = None
        self._shutdown = asyncio.Event()
        self.port: int | None = None

    # -- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and spawn the scheduler loops."""
        if self._server is not None:
            raise ConfigError("service already started")
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.stop()

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_until_shutdown` to return (loop-thread safe).

        Draining starts *synchronously*: any submission routed after
        this call is refused with 503, even before the serve loop has
        woken up to run the drain.
        """
        self.scheduler.start_draining()
        self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Block until ``/v1/shutdown``, then drain before stopping.

        Graceful order: refuse new submissions (503), let admitted
        jobs run to completion (bounded by ``drain_timeout_s`` — the
        stragglers are cancelled, never silently dropped), then close
        the socket and stop the executors.
        """
        await self._shutdown.wait()
        await self.scheduler.drain(timeout_s=self.config.drain_timeout_s)
        await self.stop()

    # -- HTTP plumbing ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                status, payload, extra = await self._route(method, path,
                                                           body)
                close = (headers.get("connection", "").lower() == "close"
                         or status >= 500)
                await self._write_response(writer, status, payload,
                                           close=close, extra=extra)
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutting down mid-keep-alive; close quietly
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            request_line = await reader.readline()
        except (ConnectionError, OSError):
            return None
        if not request_line or request_line.strip() == b"":
            return None
        try:
            method, path, _version = (
                request_line.decode("ascii").strip().split(" ", 2)
            )
        except (UnicodeDecodeError, ValueError):
            return None
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY_BYTES:
            return method, path, headers, None  # routed to 413
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _write_response(self, writer: asyncio.StreamWriter,
                              status: int, payload: dict, *,
                              close: bool,
                              extra: dict | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        extra_lines = "".join(
            f"{name}: {value}\r\n" for name, value in (extra or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            f"{extra_lines}"
            f"\r\n"
        ).encode("ascii")
        writer.write(head + body)
        await writer.drain()

    # -- routing ------------------------------------------------------

    async def _route(self, method: str, path: str,
                     body: bytes | None) -> tuple[int, dict, dict | None]:
        if body is None:
            return 413, {"error": "request body too large",
                         "type": "ServiceError"}, None
        try:
            result = self._dispatch(method, path, body)
        except QueueFullError as exc:
            return 429, {"error": str(exc), "type": "QueueFullError"}, {
                "Retry-After": f"{RETRY_AFTER_S:g}"
            }
        except ServiceUnavailableError as exc:
            return 503, {"error": str(exc),
                         "type": "ServiceUnavailableError"}, None
        except JobNotFoundError as exc:
            return 404, {"error": str(exc),
                         "type": "JobNotFoundError"}, None
        except ServiceError as exc:
            return 400, {"error": str(exc), "type": "ServiceError"}, None
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            return 500, {"error": f"{type(exc).__name__}: {exc}",
                         "type": type(exc).__name__}, None
        if len(result) == 2:
            status, payload = result
            return status, payload, None
        return result

    def _dispatch(self, method: str, path: str,
                  body: bytes) -> tuple[int, dict]:
        if path == "/v1/healthz" and method == "GET":
            return 200, {"ok": True}
        if path == "/v1/version" and method == "GET":
            return 200, {"version": __version__}
        if path == "/v1/metrics" and method == "GET":
            snapshot = self.registry.snapshot()
            snapshot["backlog"] = self.scheduler.backlog()
            return 200, snapshot
        if path == "/v1/shutdown" and method == "POST":
            self.request_shutdown()
            return 202, {"shutting_down": True}
        if path == "/v1/jobs" and method == "POST":
            try:
                payload = json.loads(body.decode("utf-8") or "null")
            except (UnicodeDecodeError, ValueError) as exc:
                raise ServiceError(f"request body is not JSON: {exc}") from exc
            record = self.scheduler.submit(spec_from_wire(payload))
            return 200, record_to_wire(record)
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/result"):
                job_id, want_result = rest[:-len("/result")], True
            else:
                job_id, want_result = rest, False
            if method == "GET":
                record = self.scheduler.get(job_id)
                if want_result and record.state == JobState.EXPIRED:
                    # The distinct deadline mapping: asking for the
                    # *result* of an expired job is a timeout, not OK.
                    return 504, record_to_wire(record)
                return 200, record_to_wire(record,
                                           with_result=want_result)
            if method == "DELETE" and not want_result:
                record = self.scheduler.get(job_id)
                if record.done:
                    return 409, {
                        "error": f"job {job_id} already {record.state}",
                        "type": "ServiceError",
                    }
                return 200, record_to_wire(self.scheduler.cancel(job_id))
        return (405 if path.startswith("/v1/") else 404), {
            "error": f"no route for {method} {path}",
            "type": "ServiceError",
        }


class ServiceThread:
    """A live daemon on a background thread (tests, bench, CI smoke).

    ::

        with ServiceThread(ServiceConfig(store_root=tmp)) as svc:
            client = ServiceClient(port=svc.port)
            ...

    The context manager owns the whole stack: a fresh event loop on a
    daemon thread, the service started on it, and a clean shutdown
    (drain, close socket, stop executors) on exit.
    """

    def __init__(self, config: ServiceConfig | None = None, *,
                 registry: MetricsRegistry | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.service: ExperimentService | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        if self.service is None or self.service.port is None:
            raise ConfigError("service thread is not running")
        return self.service.port

    def __enter__(self) -> ServiceThread:
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error
        if self.service is None or self.service.port is None:
            raise ConfigError("service failed to start within 30s")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._loop is not None and self.service is not None:
            self._loop.call_soon_threadsafe(self.service.request_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        if exc_type is None and self.service is not None:
            # The graceful-shutdown contract: everything admitted was
            # finished, cancelled-with-bookkeeping, or persisted —
            # never silently dropped.
            leftover = self.service.scheduler.backlog()
            if leftover:
                raise ServiceError(
                    f"daemon exited with {leftover} undrained jobs"
                )

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - report to entry
            self._startup_error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.service = ExperimentService(self.config,
                                         registry=self.registry)
        await self.service.start()
        self._ready.set()
        await self.service.serve_until_shutdown()
