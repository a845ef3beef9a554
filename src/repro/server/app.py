"""The AeonG serving layer: an asyncio TCP server over the engine.

Engineered for graceful degradation rather than raw throughput:

* **Session layer** — each connection performs a ``hello`` handshake,
  then owns at most one interactive transaction plus a dictionary of
  prepared statements.  Per-request deadlines map onto the engine's
  ``begin(timeout=)`` / ``run_transaction(timeout=)``, so a stalled
  client cannot pin the GC watermark.  When a connection dies — cleanly
  or mid-frame — its transaction is aborted and its admission slot
  released before the session is forgotten.
* **Overload posture** — connection count is capped, and every
  transaction admission flows through the engine's ``AdmissionGate``.
  Saturation therefore surfaces as structured, retryable
  ``OVERLOADED`` / ``DEGRADED`` responses carrying ``retry_after``
  hints, never as stalls or connection resets.  ``health`` / ``ready``
  endpoints are fed from the engine's ``metrics()``.
* **Lifecycle** — SIGTERM/SIGINT (see :func:`serve`) trigger a drain:
  stop accepting, let in-flight sessions finish their transactions
  within a grace period (new work is shed with ``SHUTTING_DOWN``),
  then abort stragglers and close the engine cleanly.  A hard kill is
  recovered by the durability layer (``RecoveryReport``) on restart.

Engine calls run on a thread pool (the engine is blocking); tracer
spans are opened *inside* the pooled work so the tracer's per-thread
span stacks never interleave across coroutines on the event loop.
"""

from __future__ import annotations

import asyncio
import functools
import signal
import socket
import threading
from dataclasses import dataclass
from typing import Any, Optional

from concurrent.futures import ThreadPoolExecutor

from repro.errors import (
    DegradedModeError,
    NotPrimaryError,
    OverloadError,
    ProtocolError,
    ReproError,
    SerializationConflict,
    TransactionStateError,
)
from repro.server.protocol import (
    PROTOCOL_VERSION,
    SITE_CONN_READ,
    SITE_CONN_WRITE,
    error_response,
    read_frame,
    shed_response,
    write_frame,
)


@dataclass
class ServerConfig:
    """Tunables for one :class:`AeonGServer`."""

    #: Bind address; port 0 lets the OS pick (read it back from
    #: ``server.address`` after ``start()``).
    host: str = "127.0.0.1"
    port: int = 0
    #: Connections past this are greeted with a retryable ``OVERLOADED``
    #: frame and closed (never a silent reset).
    max_connections: int = 64
    #: How long a drain waits for in-flight sessions before aborting
    #: their transactions.
    drain_grace: float = 5.0
    #: Threads executing blocking engine calls.
    executor_workers: int = 8
    #: ``retry_after`` hint attached to connection-limit rejections and
    #: drain shedding.
    shed_retry_after: float = 0.1
    #: Serve ``GET /metrics`` (Prometheus text exposition) over HTTP on
    #: this port (0 = ephemeral; read back from
    #: ``server.metrics_address``).  ``None`` disables the endpoint.
    metrics_port: Optional[int] = None
    #: Longest long-poll window a ``repl_fetch`` may request.
    repl_max_wait: float = 5.0

    def __post_init__(self) -> None:
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if self.executor_workers < 1:
            raise ValueError("executor_workers must be >= 1")


class _Session:
    """Per-connection state: handshake flag, live txn, prepared stmts."""

    __slots__ = ("sid", "ready", "txn", "prepared")

    def __init__(self, sid: int) -> None:
        self.sid = sid
        self.ready = False
        self.txn = None
        self.prepared: dict[str, str] = {}


def _set_nodelay(writer: asyncio.StreamWriter) -> None:
    """Disable Nagle: frames are small and latency-sensitive, and the
    request/response rhythm otherwise collides with delayed ACKs."""
    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP transports
            pass


#: Ops a client may send before the ``hello`` handshake completes.
_PRE_HANDSHAKE_OPS = frozenset({"hello", "ping", "health", "ready"})

#: Ops still served while the server drains (finishing is encouraged;
#: starting new work is not).
_DRAIN_OPS = frozenset(
    {"commit", "abort", "goodbye", "ping", "health", "ready", "hello"}
)


class AeonGServer:
    """Asyncio TCP server exposing one engine over the wire protocol."""

    def __init__(self, engine, config: Optional[ServerConfig] = None) -> None:
        self.engine = engine
        self.config = config or ServerConfig()
        self.address: Optional[tuple[str, int]] = None
        #: Bound ``(host, port)`` of the HTTP metrics endpoint, when
        #: ``config.metrics_port`` is set.
        self.metrics_address: Optional[tuple[str, int]] = None
        #: ``"host:port"`` of this node's primary, attached to
        #: ``NOT_PRIMARY`` rejections so clients can fail over without
        #: a directory service (set by :func:`serve` for replicas).
        self.primary_hint: Optional[str] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._metrics_server: Optional[asyncio.base_events.Server] = None
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.executor_workers,
            thread_name_prefix="aeong-serve",
        )
        # Replication stream ops get their own tiny pool: under
        # semi-sync replication every committing query blocks its
        # executor worker in wait_replicated(), and the repl_fetch that
        # delivers the releasing ack must never queue behind them
        # (saturated query pool -> ack starvation -> REPL_TIMEOUT).
        self._repl_executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="aeong-repl"
        )
        self._sessions = 0
        self._conn_tasks: set[asyncio.Task] = set()
        self._draining = False
        self._stopped = False
        self.counters = {
            "connections_accepted": 0,
            "connections_rejected": 0,
            "connections_active": 0,
            "connections_peak": 0,
            "requests_served": 0,
            "requests_failed": 0,
            "requests_shed": 0,
            "requests_degraded": 0,
            "sessions_killed": 0,
            "protocol_errors": 0,
            "io_faults": 0,
            "bytes_out": 0,
            "repl_fetches": 0,
            "repl_applies": 0,
            "repl_snapshots": 0,
            "not_primary_rejections": 0,
            "metrics_scrapes": 0,
        }
        engine.observability.registry.register_provider(self._provide_metrics)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        if self.config.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics_http,
                self.config.host,
                self.config.metrics_port,
            )
            msock = self._metrics_server.sockets[0]
            self.metrics_address = msock.getsockname()[:2]
        return self.address

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, wait ``drain_grace`` for
        in-flight sessions, then cancel stragglers (their transactions
        are aborted by each session's cleanup path)."""
        if self._stopped:
            return
        self._draining = True
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = {t for t in self._conn_tasks if not t.done()}
        if pending:
            _, pending = await asyncio.wait(
                pending, timeout=self.config.drain_grace
            )
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._stopped = True
        self._executor.shutdown(wait=True)
        self._repl_executor.shutdown(wait=True)

    @property
    def draining(self) -> bool:
        return self._draining

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict[str, Any]:
        """The server's own operational counters."""
        return dict(self.counters, draining=self._draining)

    def _provide_metrics(self) -> dict[str, Any]:
        return {"server": self.metrics()}

    async def _handle_metrics_http(self, reader, writer) -> None:
        """Minimal HTTP/1.1 handler for Prometheus scrapes.

        ``GET /metrics`` returns the registry's text exposition; any
        other path is 404.  One request per connection (``Connection:
        close``) — exactly what a scraper needs, nothing a framework
        would add.
        """
        try:
            request_line = await reader.readline()
            while True:  # drain headers
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            method = parts[0] if parts else ""
            path = parts[1].split("?", 1)[0] if len(parts) > 1 else "/"
            if method in ("GET", "HEAD") and path == "/metrics":
                text = await self._run(
                    "server.metrics_http",
                    self.engine.observability.registry.prometheus_text,
                )
                body = text.encode()
                status = b"200 OK"
                ctype = b"text/plain; version=0.0.4; charset=utf-8"
                self.counters["metrics_scrapes"] += 1
            else:
                body = b"not found; try GET /metrics\n"
                status = b"404 Not Found"
                ctype = b"text/plain; charset=utf-8"
            if method == "HEAD":
                payload = b""
            else:
                payload = body
            writer.write(
                b"HTTP/1.1 " + status
                + b"\r\nContent-Type: " + ctype
                + b"\r\nContent-Length: " + str(len(body)).encode()
                + b"\r\nConnection: close\r\n\r\n"
                + payload
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
            except Exception:  # pragma: no cover - transport races
                pass

    # -- engine plumbing ---------------------------------------------------

    async def _run(self, span: str, fn, *args, executor=None, **kwargs):
        """Run a blocking engine call on the pool, inside a tracer span.

        The span must open and close on the executor thread: the tracer
        keeps per-thread span stacks, and interleaved coroutines on the
        loop thread would corrupt them.
        """
        tracer = self.engine.observability.tracer

        def work():
            with tracer.span(span):
                return fn(*args, **kwargs)

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            executor if executor is not None else self._executor,
            functools.partial(work),
        )

    def _retry_hint(self, exc: BaseException) -> Optional[float]:
        """The server's backoff suggestion for a retryable failure."""
        cfg = self.engine.resilience.config
        if isinstance(exc, OverloadError):
            return cfg.admission_timeout
        if isinstance(exc, DegradedModeError):
            return cfg.breaker_reset_timeout
        if isinstance(exc, SerializationConflict):
            return cfg.retry.base_delay
        return self.config.shed_retry_after

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        _set_nodelay(writer)
        self.counters["connections_accepted"] += 1
        if self.counters["connections_active"] >= self.config.max_connections:
            self.counters["connections_rejected"] += 1
            await self._farewell(
                writer,
                shed_response(
                    None,
                    "connection limit reached",
                    retry_after=self.config.shed_retry_after,
                    code="OVERLOADED",
                ),
            )
            self._conn_tasks.discard(task)
            return
        self.counters["connections_active"] += 1
        self.counters["connections_peak"] = max(
            self.counters["connections_peak"],
            self.counters["connections_active"],
        )
        self._sessions += 1
        session = _Session(self._sessions)
        try:
            await self._serve_session(session, reader, writer)
        except asyncio.CancelledError:
            # The drain cancelled this session past its grace period.
            # Finish the task cleanly instead of re-raising: asyncio's
            # stream-protocol callback calls task.exception(), which
            # would log a spurious error for a cancelled task, and the
            # cleanup below aborts the transaction either way.
            pass
        finally:
            self._cleanup_session(session)
            self.counters["connections_active"] -= 1
            self._conn_tasks.discard(task)
            writer.transport.abort()

    def _cleanup_session(self, session: _Session) -> None:
        """Abort a dead session's transaction (releases its admission
        slot via the txn's on-abort hook).  Synchronous on purpose —
        abort is an in-memory rollback, and running it inline keeps the
        cleanup immune to executor shutdown races."""
        txn = session.txn
        session.txn = None
        if txn is not None and txn.is_active:
            self.counters["sessions_killed"] += 1
            try:
                self.engine.abort(txn)
            except ReproError:
                pass  # watchdog beat us to it; slot already released

    async def _farewell(self, writer, payload: dict[str, Any]) -> None:
        """Best-effort final frame before closing a connection."""
        try:
            await write_frame(writer, payload)
        except (ConnectionError, OSError):
            pass
        finally:
            writer.transport.abort()

    async def _serve_session(self, session, reader, writer) -> None:
        while True:
            try:
                request = await read_frame(reader, site=SITE_CONN_READ)
            except ProtocolError as exc:
                self.counters["protocol_errors"] += 1
                await self._farewell(writer, error_response(None, exc))
                return
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                return  # peer died mid-frame; cleanup aborts its txn
            except ReproError as exc:
                # An armed server.conn.read failpoint in ``error`` mode:
                # the read never happened, so the connection is toast —
                # but unlike a storage EIO this is transient transport
                # trouble, so the farewell frame is marked retryable.
                self.counters["io_faults"] += 1
                await self._farewell(
                    writer,
                    shed_response(
                        None,
                        f"connection I/O failure: {exc}",
                        retry_after=self.config.shed_retry_after,
                        code="IO_ERROR",
                    ),
                )
                return
            if request is None:
                return  # clean EOF at a frame boundary
            goodbye = await self._answer(session, writer, request)
            if goodbye:
                return

    async def _answer(self, session, writer, request) -> bool:
        """Dispatch one request and write its response; returns True
        when the connection should close (goodbye)."""
        request_id = request.get("id")
        op = request.get("op")
        goodbye = False
        try:
            response = await self._dispatch(session, request)
            if op == "goodbye":
                goodbye = True
        except ConnectionError:
            # An injected stream disconnect (repl.stream.write) or a
            # peer reset surfaced by a handler: tear the connection
            # down instead of answering on a dead/poisoned stream.
            self.counters["io_faults"] += 1
            return True
        except Exception as exc:
            response = self._failure(session, request_id, exc)
        try:
            self.counters["bytes_out"] += await write_frame(
                writer, response, site=SITE_CONN_WRITE
            )
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            return True  # peer gone; cleanup aborts its txn
        except ReproError:
            # Armed server.conn.write failpoint in ``error`` mode: the
            # response cannot be delivered; drop the connection rather
            # than desynchronize the request/response pairing.
            self.counters["io_faults"] += 1
            return True
        return goodbye

    def _failure(self, session, request_id, exc: BaseException):
        """Build the structured error response and update counters."""
        if isinstance(exc, ProtocolError):
            self.counters["protocol_errors"] += 1
        if isinstance(exc, (OverloadError, DegradedModeError)):
            self.counters["requests_shed"] += 1
        else:
            self.counters["requests_failed"] += 1
        # The engine aborts a transaction that conflicts, times out, or
        # trips integrity checks — stop tracking it once it is dead.
        txn = session.txn
        if txn is not None and not txn.is_active:
            session.txn = None
        return error_response(
            request_id, exc, retry_after=self._retry_hint(exc)
        )

    async def _dispatch(self, session, request) -> dict[str, Any]:
        op = request.get("op")
        request_id = request.get("id")
        if not isinstance(op, str):
            raise ProtocolError("request is missing its 'op' field")
        if not session.ready and op not in _PRE_HANDSHAKE_OPS:
            raise ProtocolError(f"op {op!r} before the hello handshake")
        if self._draining and op not in _DRAIN_OPS:
            self.counters["requests_shed"] += 1
            return shed_response(
                request_id,
                "server is draining",
                retry_after=self.config.shed_retry_after,
            )

        if op == "hello":
            version = request.get("version", PROTOCOL_VERSION)
            if not isinstance(version, int) or version < 1:
                raise ProtocolError(f"bad protocol version {version!r}")
            if version > PROTOCOL_VERSION:
                raise ProtocolError(
                    f"client speaks protocol {version}, server tops out "
                    f"at {PROTOCOL_VERSION}"
                )
            session.ready = True
            self.counters["requests_served"] += 1
            return {
                "ok": True,
                "id": request_id,
                "server": "aeong",
                "protocol": PROTOCOL_VERSION,
                "session": session.sid,
            }
        if op == "ping":
            self.counters["requests_served"] += 1
            return {"ok": True, "id": request_id, "pong": True}
        if op == "health":
            return self._health(request_id)
        if op == "ready":
            return self._ready(request_id)
        if op == "metrics":
            # registry.sections() merges every provider: the engine's
            # full metrics() plus this server's own "server" section.
            snapshot = await self._run(
                "server.metrics",
                self.engine.observability.registry.sections,
            )
            self.counters["requests_served"] += 1
            return {"ok": True, "id": request_id, "metrics": snapshot}
        if op == "goodbye":
            self.counters["requests_served"] += 1
            return {"ok": True, "id": request_id, "bye": True}

        if op == "query":
            return await self._op_query(
                session,
                request_id,
                request.get("text"),
                request.get("params"),
                request.get("timeout"),
            )
        if op == "prepare":
            return self._op_prepare(
                session, request_id, request.get("name"), request.get("text")
            )
        if op == "execute":
            name = request.get("name")
            if not isinstance(name, str) or name not in session.prepared:
                raise ProtocolError(f"no prepared statement named {name!r}")
            return await self._op_query(
                session,
                request_id,
                session.prepared[name],
                request.get("params"),
                request.get("timeout"),
            )
        if op == "begin":
            return await self._op_begin(
                session, request_id, request.get("timeout")
            )
        if op == "commit":
            return await self._op_commit(session, request_id)
        if op == "abort":
            return await self._op_abort(session, request_id)

        if op == "repl_register":
            return await self._op_repl_register(request_id, request)
        if op == "repl_fetch":
            return await self._op_repl_fetch(request_id, request)
        if op == "repl_apply":
            return await self._op_repl_apply(request_id, request)
        if op == "repl_snapshot":
            return await self._op_repl_snapshot(request_id, request)
        if op == "repl_status":
            return self._op_repl_status(request_id)
        if op == "promote":
            return self._op_promote(request_id)
        raise ProtocolError(f"unknown op {op!r}")

    # -- status ops --------------------------------------------------------

    def _health(self, request_id) -> dict[str, Any]:
        """Liveness: answers even while degraded or draining."""
        ctrl = self.engine.resilience
        degraded = ctrl.degraded
        self.counters["requests_served"] += 1
        return {
            "ok": True,
            "id": request_id,
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "draining": self._draining,
            "connections": self.counters["connections_active"],
            "active_transactions": self.engine.manager.active_count,
        }

    def _ready(self, request_id) -> dict[str, Any]:
        """Readiness: should this server receive *new* traffic?"""
        gate = self.engine.resilience.gate
        saturated = False
        if gate is not None:
            snap = gate.snapshot()
            saturated = snap["in_flight"] >= snap["max_concurrent"]
        ready = not self._draining and not saturated
        self.counters["requests_served"] += 1
        return {
            "ok": True,
            "id": request_id,
            "ready": ready,
            "draining": self._draining,
            "saturated": saturated,
        }

    # -- replication ops ---------------------------------------------------

    @staticmethod
    def _repl_int(request, field, default=None) -> int:
        value = request.get(field, default)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ProtocolError(
                f"{field} must be a non-negative integer, got {value!r}"
            )
        return value

    def _require_primary_role(self, op: str) -> None:
        state = self.engine.replication
        if state.is_replica:
            self.counters["not_primary_rejections"] += 1
            raise NotPrimaryError(
                f"op {op!r} must go to the primary; this node is a replica",
                primary_address=self.primary_hint,
            )

    async def _op_repl_register(self, request_id, request) -> dict[str, Any]:
        self._require_primary_role("repl_register")
        replica_id = request.get("replica_id")
        if not isinstance(replica_id, str) or not replica_id:
            raise ProtocolError("repl_register requires a 'replica_id'")
        watermark = self._repl_int(request, "watermark", 0)
        epoch = self._repl_int(request, "epoch", 1)
        state = self.engine.replication
        state.register_replica(replica_id, watermark, epoch)
        self.counters["requests_served"] += 1
        return {
            "ok": True,
            "id": request_id,
            "role": state.role,
            "epoch": state.epoch,
            "fence_ts": state.fence_ts,
            "watermark": state.watermark(),
        }

    async def _op_repl_fetch(self, request_id, request) -> dict[str, Any]:
        from repro.replication import build_fetch_response

        self._require_primary_role("repl_fetch")
        replica_id = request.get("replica_id")
        if not isinstance(replica_id, str) or not replica_id:
            raise ProtocolError("repl_fetch requires a 'replica_id'")
        from_ts = self._repl_int(request, "from_ts", 1)
        ack = self._repl_int(request, "ack", 0)
        epoch = self._repl_int(request, "epoch", 1)
        wait = request.get("wait", 0)
        if not isinstance(wait, (int, float)) or wait < 0:
            raise ProtocolError("wait must be a non-negative number")
        limit = self._repl_int(request, "limit", 512)
        response = await self._run(
            "repl.ship",
            build_fetch_response,
            self.engine,
            replica_id,
            from_ts,
            ack,
            epoch,
            min(float(wait), self.config.repl_max_wait),
            max(1, min(limit, 4096)),
            executor=self._repl_executor,
        )
        self.counters["repl_fetches"] += 1
        self.counters["requests_served"] += 1
        return {"ok": True, "id": request_id, **response}

    async def _op_repl_snapshot(self, request_id, request) -> dict[str, Any]:
        # Not in _DRAIN_OPS on purpose: a drain sheds snapshot traffic
        # with a retryable SHUTTING_DOWN instead of racing the stream
        # against shutdown, and the replica resumes at the same offset
        # against the next primary.
        from repro.replication import serve_snapshot_request

        self._require_primary_role("repl_snapshot")
        response = await self._run(
            "repl.snapshot",
            serve_snapshot_request,
            self.engine,
            request,
            executor=self._repl_executor,
        )
        self.counters["repl_snapshots"] += 1
        self.counters["requests_served"] += 1
        return {"ok": True, "id": request_id, **response}

    async def _op_repl_apply(self, request_id, request) -> dict[str, Any]:
        from repro.replication import apply_pushed_records

        epoch = self._repl_int(request, "epoch", 1)
        records = request.get("records")
        if not isinstance(records, list) or not all(
            isinstance(r, str) for r in records
        ):
            raise ProtocolError(
                "repl_apply requires 'records': a list of base64 envelopes"
            )
        result = await self._run(
            "repl.apply_push", apply_pushed_records, self.engine, epoch,
            records, executor=self._repl_executor,
        )
        self.counters["repl_applies"] += 1
        self.counters["requests_served"] += 1
        return {"ok": True, "id": request_id, **result}

    def _op_repl_status(self, request_id) -> dict[str, Any]:
        state = self.engine.replication
        self.counters["requests_served"] += 1
        return {
            "ok": True,
            "id": request_id,
            "replication": state.metrics(),
            "primary_hint": self.primary_hint,
        }

    def _op_promote(self, request_id) -> dict[str, Any]:
        """Operator-initiated failover: make this node the primary."""
        status = self.engine.replication.promote()
        self.counters["requests_served"] += 1
        return {"ok": True, "id": request_id, **status}

    # -- statement ops -----------------------------------------------------

    def _validate_params(self, params) -> Optional[dict[str, Any]]:
        if params is None:
            return None
        if not isinstance(params, dict):
            raise ProtocolError("params must be a JSON object")
        return params

    async def _op_query(
        self, session, request_id, text, params, timeout
    ) -> dict[str, Any]:
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError("query requires a non-empty 'text'")
        params = self._validate_params(params)
        if timeout is not None and not isinstance(timeout, (int, float)):
            raise ProtocolError("timeout must be a number of seconds")
        if session.txn is not None:
            # Surface a watchdog-aborted transaction now (TXN_TIMEOUT)
            # instead of silently reading a dead snapshot; _failure()
            # drops the dead txn from the session.
            session.txn.check_active()
        engine = self.engine
        if engine.replication.is_replica:
            # Replicas serve snapshot reads at their applied watermark;
            # writes must go to the primary.  Reject with the primary's
            # address so the retrying client can fail over (retryable:
            # the same statement succeeds there — or here, once this
            # node is promoted).
            from repro.query.executor import statement_prefix

            if statement_prefix(text) is None and engine.compile(text).is_write:
                self.counters["not_primary_rejections"] += 1
                raise NotPrimaryError(
                    "write routed to a replica",
                    primary_address=self.primary_hint,
                )

        def work():
            from repro.query.executor import execute_query, statement_prefix

            if session.txn is not None:
                rows = execute_query(engine, session.txn, text, params)
            elif timeout is not None and statement_prefix(text) != "EXPLAIN":
                rows = engine.run_transaction(
                    lambda txn: execute_query(engine, txn, text, params),
                    timeout=timeout,
                )
            else:
                rows = engine.execute(text, params)
            return rows, engine.last_read_degraded

        rows, degraded = await self._run("server.query", work)
        if degraded:
            self.counters["requests_degraded"] += 1
        self.counters["requests_served"] += 1
        response = {"ok": True, "id": request_id, "rows": rows}
        if degraded:
            response["degraded"] = True
        return response

    def _op_prepare(self, session, request_id, name, text) -> dict[str, Any]:
        if not isinstance(name, str) or not name:
            raise ProtocolError("prepare requires a statement 'name'")
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError("prepare requires a non-empty 'text'")
        # Compile eagerly so a typo fails at prepare time, not on the
        # Nth execute; the plan stays in the engine's plan cache, where
        # every execute of this statement finds it.
        self.engine.compile(text)
        session.prepared[name] = text
        self.counters["requests_served"] += 1
        return {"ok": True, "id": request_id, "prepared": name}

    # -- transaction ops ---------------------------------------------------

    async def _op_begin(self, session, request_id, timeout) -> dict[str, Any]:
        if session.txn is not None and session.txn.is_active:
            raise TransactionStateError(
                "session already has an open transaction"
            )
        if timeout is not None and not isinstance(timeout, (int, float)):
            raise ProtocolError("timeout must be a number of seconds")
        session.txn = await self._run(
            "server.begin", self.engine.begin, timeout=timeout
        )
        self.counters["requests_served"] += 1
        return {"ok": True, "id": request_id, "txn": session.txn.id}

    async def _op_commit(self, session, request_id) -> dict[str, Any]:
        txn = session.txn
        if txn is None:
            raise TransactionStateError("no open transaction to commit")
        commit_ts = await self._run("server.commit", self.engine.commit, txn)
        session.txn = None
        self.counters["requests_served"] += 1
        return {"ok": True, "id": request_id, "commit_ts": commit_ts}

    async def _op_abort(self, session, request_id) -> dict[str, Any]:
        txn = session.txn
        if txn is None:
            raise TransactionStateError("no open transaction to abort")
        session.txn = None
        await self._run("server.abort", self.engine.abort, txn)
        self.counters["requests_served"] += 1
        return {"ok": True, "id": request_id, "aborted": True}


class ServerThread:
    """Run an :class:`AeonGServer` on a dedicated event-loop thread.

    The blocking façade used by tests, the example, and the load
    harness's in-process mode::

        thread = ServerThread(engine)
        host, port = thread.start()
        ...
        thread.stop()   # graceful drain
    """

    def __init__(self, engine, config: Optional[ServerConfig] = None) -> None:
        self.server = AeonGServer(engine, config)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def start(self, timeout: float = 10.0) -> tuple[str, int]:
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="aeong-server-loop", daemon=True
        )
        self._thread.start()
        started.wait(timeout)
        future = asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop
        )
        return future.result(timeout)

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self._loop
        )
        future.result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        self._loop.close()
        self._loop = None


def serve(
    directory,
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[ServerConfig] = None,
    replica_of: Optional[str] = None,
    replica_id: str = "replica-1",
    lease_timeout: float = 2.0,
    poll_interval: float = 0.2,
    auto_promote: bool = True,
    sync_replication: bool = False,
    metrics_port: Optional[int] = None,
    **engine_kwargs,
) -> None:
    """Blocking entry point behind ``aeong serve DIR``.

    Opens (or creates) a durable engine at ``directory`` — replaying
    its WAL and reporting recovery — then serves until SIGTERM/SIGINT,
    drains, and closes the engine cleanly.

    With ``replica_of="HOST:PORT"`` the node starts as a replica: a
    :class:`~repro.replication.ReplicaRunner` streams the primary's
    WAL, the node serves snapshot reads at its applied watermark, and
    on lease expiry (``lease_timeout`` seconds without a successful
    fetch, ``auto_promote`` on) it promotes itself and starts accepting
    writes.  ``sync_replication`` makes a *primary* hold each commit
    acknowledgement until a replica has applied it.

    Startup prints machine-readable lines (stable format; the harness
    and tests parse them)::

        aeong serving on 127.0.0.1:43117
        aeong metrics on 127.0.0.1:9464        (with --metrics-port)
        aeong role replica of 127.0.0.1:43000  (with --replica-of)
    """
    from repro.core.durability import open_engine
    from repro.replication import ReplicaRunner, ReplicationConfig

    repl_config: Optional[ReplicationConfig] = None
    if replica_of is not None:
        try:
            primary_host, primary_port_s = replica_of.rsplit(":", 1)
            primary_port = int(primary_port_s)
        except ValueError:
            raise SystemExit(
                f"--replica-of must be HOST:PORT, got {replica_of!r}"
            )
        repl_config = ReplicationConfig(
            role="replica",
            replica_id=replica_id,
            primary_host=primary_host,
            primary_port=primary_port,
            lease_timeout=lease_timeout,
            poll_interval=poll_interval,
            auto_promote=auto_promote,
        )
    elif sync_replication:
        repl_config = ReplicationConfig(role="primary", sync_commit=True)

    engine = open_engine(directory, replication=repl_config, **engine_kwargs)
    report = engine.last_recovery
    if report is not None:
        print(
            f"recovery: {report.transactions_replayed} txns replayed, "
            f"torn_tail={report.torn_tail}, "
            f"corruption_detected={report.corruption_detected}",
            flush=True,
        )
    cfg = config or ServerConfig(host=host, port=port)
    if metrics_port is not None:
        cfg.metrics_port = metrics_port
    runner: Optional[ReplicaRunner] = None

    async def main() -> None:
        nonlocal runner
        server = AeonGServer(engine, cfg)
        bound_host, bound_port = await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        print(f"aeong serving on {bound_host}:{bound_port}", flush=True)
        if server.metrics_address is not None:
            mhost, mport = server.metrics_address
            print(f"aeong metrics on {mhost}:{mport}", flush=True)
        if repl_config is not None and repl_config.role == "replica":
            server.primary_hint = (
                f"{repl_config.primary_host}:{repl_config.primary_port}"
            )
            runner = ReplicaRunner(engine, repl_config)
            runner.start()
            print(
                f"aeong role replica of {server.primary_hint}", flush=True
            )
        else:
            print("aeong role primary", flush=True)
        await stop.wait()
        print("aeong draining", flush=True)
        await server.shutdown()

    try:
        asyncio.run(main())
    finally:
        if runner is not None:
            runner.stop()
        engine.close()
    print("aeong closed cleanly", flush=True)


__all__ = ["ServerConfig", "AeonGServer", "ServerThread", "serve"]
