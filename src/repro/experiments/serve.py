"""``python -m repro serve`` — the long-running cached experiment service.

The service puts a query interface in front of a
:class:`~repro.experiments.store.ResultStore`: clients send experiment
queries as JSON lines over a local socket (TCP on loopback, or a Unix
domain socket) and receive one JSON response line per request.  Warm
specs — whose content address is already in the store — are answered
straight from disk with **zero simulator invocations**; cold specs are
scheduled onto a persistent
:class:`~repro.experiments.resilient.ResilientPool` worker pool
(crash/hang/retry hardened, per-request timeout and retry knobs) and
journaled to the store the moment they finish.  Identical cold queries
arriving concurrently are coalesced onto one simulation.

Everything is stdlib: :mod:`socketserver` with one thread per
connection, blocking request/response, newline-delimited JSON.

Protocol (one JSON object per line, ``op`` selects the operation)::

    {"op": "ping"}
    {"op": "experiments"}
    {"op": "run", "experiment": "figure1", "spec": {"scale": "reduced"},
     "timeout": 120, "retries": 1, "include_result": true}
    {"op": "stats"}
    {"op": "shutdown"}

Every response carries ``ok`` (boolean), the echoed ``op``, and
``elapsed_seconds``; failures add ``error``.  ``run`` responses add
``cache`` (``"hit"`` — served from the store; ``"miss"`` — simulated by
this request; ``"join"`` — coalesced onto a concurrent identical miss),
the content ``address``, the ``verdict`` dict, and (unless
``include_result`` is false) the full result envelope dict.  A line that
is not a JSON request is answered with ``"op": "invalid"`` and counted as
an error; a line longer than :data:`MAX_REQUEST_BYTES` (64 KiB) is
answered the same way, then its connection is closed.

Lifecycle: ``shutdown`` (or SIGINT/SIGTERM) stops accepting requests,
then drains the worker pool — every in-flight task finishes and is
journaled to the store before the process exits, so no accepted work is
ever lost.
"""

from __future__ import annotations

import json
import signal
import socket
import socketserver
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..errors import ExperimentError, ReproError
from .registry import experiment_keys, get_experiment
from .resilient import ResilientPool, TaskHandle
from .runner import _run_task
from .store import ResultStore

__all__ = [
    "PROTOCOL_VERSION",
    "ExperimentService",
    "ExperimentTCPServer",
    "ExperimentUnixServer",
    "create_server",
    "serve",
    "request",
    "parse_address",
]

#: Version of the request/response protocol, reported by ping and stats.
PROTOCOL_VERSION = 1

#: Operations understood by the service.
OPS = ("ping", "run", "stats", "experiments", "shutdown")

#: Longest request line the daemon reads, newline included.  A longer line
#: is answered with an ``invalid`` error and its connection is closed, so
#: one client cannot make the daemon buffer an unbounded line.
MAX_REQUEST_BYTES = 64 * 1024


class _Latency:
    """Streaming latency aggregate for one request op."""

    __slots__ = ("count", "total_seconds", "max_seconds")

    def __init__(self) -> None:
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)

    def to_dict(self) -> Dict[str, Any]:
        mean = self.total_seconds / self.count if self.count else 0.0
        return {
            "count": self.count,
            "mean_seconds": mean,
            "max_seconds": self.max_seconds,
        }


class ExperimentService:
    """The query-answering core of ``repro serve`` (transport-agnostic).

    Holds the store, the persistent hardened worker pool, and the
    observability counters; the socket layer feeds it decoded JSON
    request objects via :meth:`handle_request`.  Thread-safe: request
    handlers run on one thread per connection, journaling runs on the
    pool's dispatcher thread, and one lock guards the store, the
    counters, and the in-flight table.

    Counters: ``hits``/``misses`` classify every ``run`` request by
    whether the store answered it (a coalesced join counts as a miss
    *and* increments ``coalesced`` — it did not hit the store, but cost
    no extra simulation either); ``simulated`` counts tasks this service
    actually scheduled onto the pool.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        jobs: int = 1,
        timeout: Optional[float] = None,
        retries: int = 2,
    ) -> None:
        self.store = store
        self.started_at = time.monotonic()
        self._lock = threading.Lock()
        self._inflight: Dict[str, TaskHandle] = {}
        self._inflight_tasks: Dict[str, Tuple[str, Any]] = {}
        self._counters = {
            "requests": 0,
            "hits": 0,
            "misses": 0,
            "coalesced": 0,
            "simulated": 0,
            "errors": 0,
        }
        self._latency: Dict[str, _Latency] = {}
        self._draining = False
        self.pool = ResilientPool(
            _run_task,
            jobs=jobs,
            timeout=timeout,
            retries=retries,
            on_result=self._journal,
        )

    # -- journaling (runs on the pool's dispatcher thread) ------------------

    def _journal(self, address: str, result: Any) -> None:
        with self._lock:
            task = self._inflight_tasks.get(address)
            if task is None:  # pragma: no cover - defensive
                return
            key, spec = task
            self.store.put(key, spec, result)

    # -- request dispatch ---------------------------------------------------

    def handle_request(self, payload: Any) -> Dict[str, Any]:
        """Answer one decoded request object; never raises."""
        start = time.perf_counter()
        op = payload.get("op") if isinstance(payload, dict) else None
        op_name = op if isinstance(op, str) else "invalid"
        try:
            if not isinstance(payload, dict):
                raise ExperimentError("request must be a JSON object")
            if op not in OPS:
                raise ExperimentError(
                    f"unknown op {op!r}; valid ops: {', '.join(OPS)}"
                )
            response = getattr(self, f"_op_{op}")(payload)
            response["ok"] = True
        except ReproError as error:
            response = {"ok": False, "error": str(error)}
        return self._record(op_name, response, start)

    def refuse(self, reason: str) -> Dict[str, Any]:
        """Answer a line that is no request (not JSON, or over-long); never raises."""
        return self._record("invalid", {"ok": False, "error": reason}, time.perf_counter())

    def _record(self, op_name: str, response: Dict[str, Any], start: float) -> Dict[str, Any]:
        elapsed = time.perf_counter() - start
        response["op"] = op_name
        response["elapsed_seconds"] = elapsed
        with self._lock:
            self._counters["requests"] += 1
            if not response["ok"]:
                self._counters["errors"] += 1
            self._latency.setdefault(op_name, _Latency()).observe(elapsed)
        return response

    # -- operations ---------------------------------------------------------

    def _op_ping(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "pong": True,
            "protocol_version": PROTOCOL_VERSION,
            "uptime_seconds": time.monotonic() - self.started_at,
        }

    def _op_experiments(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {"experiments": list(experiment_keys(default_only=False))}

    def _op_stats(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            counters = dict(self._counters)
            latency = {op: stats.to_dict() for op, stats in self._latency.items()}
            inflight = len(self._inflight)
            store_stats = self.store.stats.to_dict()
            store_summary = self.store.stats.summary()
        return {
            "counters": counters,
            "inflight": inflight,
            "latency": latency,
            "store": store_stats,
            "store_summary": store_summary,
            "pool": {"degraded": self.pool.degraded, "rebuilds": self.pool.rebuilds},
            "uptime_seconds": time.monotonic() - self.started_at,
            "protocol_version": PROTOCOL_VERSION,
        }

    def _op_shutdown(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        # The transport layer performs the actual shutdown after writing
        # this response; here we only stop accepting new work.
        with self._lock:
            self._draining = True
            inflight = len(self._inflight)
        return {"shutdown": True, "inflight": inflight}

    def _op_run(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        key = payload.get("experiment")
        if not isinstance(key, str):
            raise ExperimentError("run request needs an 'experiment' name")
        try:
            experiment = get_experiment(key)
        except KeyError as error:
            raise ExperimentError(str(error.args[0])) from None
        overrides = payload.get("spec") or {}
        if not isinstance(overrides, dict):
            raise ExperimentError("'spec' must be a JSON object of field overrides")
        try:
            spec = experiment.spec_cls.from_dict(overrides)
        except ReproError:
            raise
        except (TypeError, ValueError) as error:
            raise ExperimentError(f"invalid spec for {key!r}: {error}") from None
        include_result = bool(payload.get("include_result", True))
        address = self.store.key_for(key, spec)

        submit_kwargs: Dict[str, Any] = {}
        if "timeout" in payload:
            submit_kwargs["timeout"] = payload["timeout"]
        if "retries" in payload:
            submit_kwargs["retries"] = payload["retries"]

        with self._lock:
            if self._draining:
                raise ExperimentError("service is shutting down; not accepting new runs")
            cached = self.store.get(key, spec)
            if cached is not None:
                self._counters["hits"] += 1
                return self._run_response(address, "hit", cached, include_result)
            self._counters["misses"] += 1
            handle = self._inflight.get(address)
            if handle is not None:
                # An identical cold query is already simulating: join it
                # instead of paying for a second run.
                self._counters["coalesced"] += 1
                cache_state = "join"
            else:
                cache_state = "miss"
                self._counters["simulated"] += 1
                self._inflight_tasks[address] = (key, spec)
                handle = self.pool.submit((key, spec), token=address, **submit_kwargs)
                self._inflight[address] = handle

        handle.wait()
        self.pool.check()
        with self._lock:
            if self._inflight.get(address) is handle:
                self._inflight.pop(address, None)
                self._inflight_tasks.pop(address, None)
        if handle.failure is not None:
            raise handle.exception()
        return self._run_response(address, cache_state, handle.result, include_result)

    def _run_response(
        self, address: str, cache_state: str, result: Any, include_result: bool
    ) -> Dict[str, Any]:
        response: Dict[str, Any] = {
            "cache": cache_state,
            "address": address,
            "verdict": result.verdict.to_dict(),
        }
        if include_result:
            response["result"] = result.to_dict()
        return response

    # -- lifecycle ----------------------------------------------------------

    def drain(self) -> None:
        """Graceful shutdown: refuse new runs, finish and journal in-flight tasks."""
        with self._lock:
            self._draining = True
        self.pool.shutdown(wait=True)


class _RequestHandler(socketserver.StreamRequestHandler):
    """One thread per connection; JSON request line in, response line out."""

    def handle(self) -> None:  # noqa: D102 - socketserver hook
        service = self.server.service  # type: ignore[attr-defined]
        while True:
            line = self.rfile.readline(MAX_REQUEST_BYTES)
            if not line:
                return
            overlong = len(line) == MAX_REQUEST_BYTES and not line.endswith(b"\n")
            if overlong:
                response = service.refuse(
                    f"request line is longer than {MAX_REQUEST_BYTES} bytes; closing the connection"
                )
            else:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, ValueError) as error:
                    response = service.refuse(f"request is not valid JSON: {error}")
                else:
                    response = service.handle_request(payload)
            try:
                self.wfile.write(json.dumps(response, sort_keys=True).encode("utf-8") + b"\n")
                self.wfile.flush()
            except OSError:  # pragma: no cover - client went away mid-response
                return
            if overlong:
                return
            if response.get("ok") and response.get("op") == "shutdown":
                self.server.begin_shutdown()  # type: ignore[attr-defined]
                return


class _ServerMixin:
    """Shared configuration for the TCP and Unix transports."""

    allow_reuse_address = True
    daemon_threads = True
    # Connection threads are not joined at server_close: an idle client
    # holding a connection open must not block shutdown.  The pool drain
    # (not thread join) is what guarantees in-flight work is journaled.
    block_on_close = False
    service: ExperimentService

    def begin_shutdown(self) -> None:
        # shutdown() blocks until serve_forever exits, so it must be
        # called from outside the serve_forever thread.
        threading.Thread(
            target=self.shutdown, name="repro-serve-shutdown", daemon=True
        ).start()


class ExperimentTCPServer(_ServerMixin, socketserver.ThreadingTCPServer):
    """Loopback TCP transport (default: ``127.0.0.1``, ephemeral port)."""


class ExperimentUnixServer(_ServerMixin, socketserver.ThreadingUnixStreamServer):
    """Unix-domain-socket transport (``repro serve --socket PATH``)."""


def create_server(
    service: ExperimentService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    socket_path: Optional[Union[str, Path]] = None,
) -> Union[ExperimentTCPServer, ExperimentUnixServer]:
    """Bind a server for ``service``; the caller runs ``serve_forever``."""
    if socket_path is not None:
        server: Union[ExperimentTCPServer, ExperimentUnixServer]
        server = ExperimentUnixServer(str(socket_path), _RequestHandler)
    else:
        server = ExperimentTCPServer((host, port), _RequestHandler)
    server.service = service
    return server


def server_location(server: Union[ExperimentTCPServer, ExperimentUnixServer]) -> str:
    """Human/parseable address of a bound server (``host:port`` or a path)."""
    if isinstance(server, ExperimentTCPServer):
        address_host, address_port = server.server_address[:2]
        return f"{address_host}:{address_port}"
    address = server.server_address
    if isinstance(address, bytes):  # pragma: no cover - platform-dependent
        address = address.decode("utf-8", "replace")
    return str(address)


def parse_address(text: str) -> Union[Tuple[str, int], str]:
    """``"HOST:PORT"`` → ``(host, port)``; anything else is a socket path."""
    host, sep, port = text.rpartition(":")
    if sep and port.isdigit() and "/" not in text:
        return (host or "127.0.0.1", int(port))
    return text


def request(
    address: Union[str, Tuple[str, int]],
    payload: Dict[str, Any],
    timeout: Optional[float] = None,
) -> Dict[str, Any]:
    """Send one request to a running service; return the decoded response.

    ``address`` is ``(host, port)``, ``"host:port"``, or a Unix socket
    path.  ``timeout`` bounds connect and the response read — leave it
    ``None`` for ``run`` requests, which block until the simulation
    finishes.
    """
    if isinstance(address, str):
        address = parse_address(address)
    if isinstance(address, tuple):
        connection = socket.create_connection(address, timeout=timeout)
    else:
        connection = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if timeout is not None:
            connection.settimeout(timeout)
        connection.connect(address)
    try:
        connection.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        with connection.makefile("rb") as reader:
            line = reader.readline()
    finally:
        connection.close()
    if not line:
        raise ExperimentError("service closed the connection without responding")
    return json.loads(line.decode("utf-8"))


def serve(
    store: ResultStore,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    socket_path: Optional[Union[str, Path]] = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 2,
) -> int:
    """Run the daemon until a shutdown request or SIGINT/SIGTERM; exit code.

    Prints ``repro-serve listening on <address> ...`` as its first stdout
    line (with ``--port 0`` the ephemeral port is discovered from it),
    then blocks.  On the way out it stops accepting connections, drains
    the worker pool — journaling every in-flight completion to the store
    — and removes the Unix socket file if one was bound.
    """
    service = ExperimentService(store, jobs=jobs, timeout=timeout, retries=retries)
    server = create_server(service, host=host, port=port, socket_path=socket_path)
    location = server_location(server)
    print(
        f"repro-serve listening on {location} "
        f"(cache: {store.root}, jobs: {jobs}, protocol: {PROTOCOL_VERSION})",
        flush=True,
    )

    def _terminate(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt

    previous_term = None
    on_main_thread = threading.current_thread() is threading.main_thread()
    if on_main_thread:
        previous_term = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        print("repro-serve: interrupted, draining in-flight tasks", file=sys.stderr)
    finally:
        if on_main_thread and previous_term is not None:
            signal.signal(signal.SIGTERM, previous_term)
        server.shutdown()  # no-op if serve_forever already returned
        server.server_close()
        service.drain()
        if socket_path is not None:
            try:
                Path(socket_path).unlink()
            except OSError:  # pragma: no cover - already removed
                pass
        print(f"repro-serve: {store.stats.summary()} in {store.root}", file=sys.stderr)
    return 0
