"""The serving layer: protocol, sessions, overload, chaos, drain.

Run with ``pytest -m serving``.  Every test spins up a real asyncio
server on a loopback port (``ServerThread``) against a small engine,
and talks to it over real sockets — the retrying client, raw frames,
or both.  The session-death test is property-style: a client killed at
*any* protocol step must leave the engine balanced (no zombie
transaction, no leaked admission slot).
"""

from __future__ import annotations

import socket
import struct
import sys
import threading
import time

import pytest

from repro import AeonG, FAILPOINTS, TemporalCondition
from repro.errors import (
    FaultInjected,
    OverloadError,
    ProtocolError,
    SerializationConflict,
    ServerError,
    TransactionTimeout,
)
from repro.query import executor
from repro.resilience import ResilienceConfig, RetryPolicy
from repro.server import Client, ServerThread
from repro.server.app import ServerConfig
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    SITE_CONN_READ,
    SITE_CONN_WRITE,
    classify,
    decode_body,
    decode_length,
    encode_frame,
    error_response,
    shed_response,
)

pytestmark = pytest.mark.serving

ONE_SHOT = RetryPolicy(max_attempts=1)
FAST_RETRY = RetryPolicy(max_attempts=6, base_delay=0.005, max_delay=0.05)


@pytest.fixture
def engine():
    db = AeonG(
        gc_interval_transactions=0,
        resilience=ResilienceConfig(
            max_concurrent_transactions=2, admission_timeout=0.05
        ),
    )
    yield db
    db.close()


@pytest.fixture
def server(engine):
    thread = ServerThread(
        engine,
        ServerConfig(max_connections=8, executor_workers=4,
                     shed_retry_after=0.01, drain_grace=2.0),
    )
    host, port = thread.start()
    yield thread, host, port
    FAILPOINTS.clear()
    thread.stop()


def _wait_balanced(engine, deadline: float = 5.0) -> dict:
    """Poll until the engine shows no active txn and no held slot."""
    until = time.monotonic() + deadline
    while time.monotonic() < until:
        metrics = engine.metrics()
        admission = metrics["resilience"]["admission"]
        if (
            metrics["transactions"]["active"] == 0
            and admission["in_flight"] == 0
        ):
            return metrics
        time.sleep(0.01)
    raise AssertionError(
        f"engine never rebalanced: {engine.metrics()['resilience']}"
    )


# -- protocol unit tests ----------------------------------------------------


class TestProtocol:
    def test_frame_roundtrip(self):
        payload = {"op": "query", "id": 3, "params": {"x": [1, 2, None]}}
        data = encode_frame(payload)
        assert decode_length(data[:4]) == len(data) - 4
        assert decode_body(data[4:]) == payload

    def test_oversized_declared_length_rejected(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_length(header)

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_body(b"[1, 2]")
        with pytest.raises(ProtocolError, match="unparseable"):
            decode_body(b"not json at all")

    def test_classify_taxonomy(self):
        assert classify(OverloadError("x")) == ("OVERLOADED", True)
        assert classify(SerializationConflict("x")) == ("CONFLICT", True)
        assert classify(TransactionTimeout("x")) == ("TXN_TIMEOUT", True)
        assert classify(ProtocolError("x")) == ("PROTOCOL", False)
        assert classify(ValueError("x")) == ("INTERNAL", False)

    def test_retry_after_only_on_retryable(self):
        overload = error_response(1, OverloadError("full"), retry_after=0.5)
        assert overload["error"]["retry_after"] == 0.5
        fatal = error_response(2, ProtocolError("bad"), retry_after=0.5)
        assert "retry_after" not in fatal["error"]
        shed = shed_response(3, "draining", retry_after=0.1)
        assert shed["error"]["code"] == "SHUTTING_DOWN"
        assert shed["error"]["retryable"] is True

    def test_socket_sites_registered(self):
        assert SITE_CONN_READ in FAILPOINTS.sites()
        assert SITE_CONN_WRITE in FAILPOINTS.sites()


# -- session layer ----------------------------------------------------------


class TestSessions:
    def test_query_before_hello_is_protocol_error(self, server):
        _, host, port = server
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(encode_frame({"op": "query", "text": "MATCH (n) RETURN n", "id": 1}))
            response = _read_response(sock)
        assert response["ok"] is False
        assert response["error"]["code"] == "PROTOCOL"

    def test_handshake_and_basic_ops(self, server):
        _, host, port = server
        with Client(host, port) as client:
            assert client.ping()
            health = client.health()
            assert health["status"] == "ok"
            assert health["degraded"] is False
            assert client.ready() is True
            metrics = client.metrics()
            assert "server" in metrics and "resilience" in metrics
            assert "backup" in metrics and "restore" in metrics

    def test_autocommit_and_interactive_transaction(self, server, engine):
        _, host, port = server
        with Client(host, port) as client:
            client.query(
                "CREATE (n:P {ext_id: $e, name: $n})",
                {"e": "a", "n": "Ann"},
            )
            client.begin()
            client.query("CREATE (n:P {ext_id: $e})", {"e": "b"})
            commit_ts = client.commit()
            assert commit_ts > 0
            client.begin()
            client.query("CREATE (n:P {ext_id: $e})", {"e": "c"})
            client.abort()
            rows = client.query("MATCH (n:P) RETURN n.ext_id")
        assert sorted(r["n.ext_id"] for r in rows) == ["a", "b"]
        _wait_balanced(engine)

    def test_prepared_statements(self, server):
        _, host, port = server
        with Client(host, port) as client:
            client.prepare("mk", "CREATE (n:P {ext_id: $e})")
            client.prepare("get", "MATCH (n {ext_id: $e}) RETURN n.ext_id")
            client.execute("mk", {"e": "p9"})
            rows = client.execute("get", {"e": "p9"})
            assert rows == [{"n.ext_id": "p9"}]
            # eager validation: a syntax error fails at prepare time
            client.policy = ONE_SHOT
            with pytest.raises(ServerError) as info:
                client.prepare("bad", "CREATE (((")
            assert info.value.code == "QUERY_ERROR"
            with pytest.raises(ServerError) as info:
                client.execute("never-prepared")
            assert info.value.code == "PROTOCOL"

    def test_per_request_deadline_times_out_transaction(self, server, engine):
        _, host, port = server
        with Client(host, port) as client:
            client.policy = ONE_SHOT
            client.begin(timeout=0.05)
            time.sleep(0.4)  # watchdog aborts the expired txn
            with pytest.raises(ServerError) as info:
                client.query("MATCH (n) RETURN n")
            assert info.value.code == "TXN_TIMEOUT"
            assert info.value.retryable is True
            # the session forgot the dead txn: new work is accepted
            assert client.query("MATCH (n) RETURN n") == []
        _wait_balanced(engine)

    def test_unknown_op_and_double_begin(self, server):
        _, host, port = server
        with Client(host, port) as client:
            client.policy = ONE_SHOT
            with pytest.raises(ServerError) as info:
                client.request({"op": "frobnicate"})
            assert info.value.code == "PROTOCOL"
            client.begin()
            with pytest.raises(ServerError) as info:
                client.request({"op": "begin"})
            assert info.value.code == "TXN_STATE"
            client.abort()


# -- overload posture -------------------------------------------------------


class TestOverload:
    def test_admission_overload_is_structured_and_retryable(
        self, server, engine
    ):
        _, host, port = server
        holders = [Client(host, port), Client(host, port)]
        for holder in holders:
            holder.connect()
            holder.begin()
        straggler = Client(host, port, policy=ONE_SHOT)
        straggler.connect()
        with pytest.raises(ServerError) as info:
            straggler.begin()
        assert info.value.code == "OVERLOADED"
        assert info.value.retryable is True
        assert info.value.retry_after is not None
        for holder in holders:
            holder.abort()
            holder.close()
        straggler.close()
        _wait_balanced(engine)

    def test_connection_limit_sheds_not_resets(self, engine):
        thread = ServerThread(
            engine, ServerConfig(max_connections=1, shed_retry_after=0.01)
        )
        host, port = thread.start()
        try:
            first = Client(host, port)
            first.connect()
            second = Client(host, port, policy=ONE_SHOT)
            with pytest.raises(ServerError) as info:
                second.connect()
            assert info.value.code == "OVERLOADED"
            assert info.value.retryable is True
            first.close()
            time.sleep(0.1)
            # slot freed: the retrying client now gets in
            third = Client(host, port, policy=FAST_RETRY)
            with third:
                assert third.ping()
        finally:
            thread.stop()

    def test_overloaded_begin_retries_to_success(self, server, engine):
        _, host, port = server
        holder = Client(host, port)
        holder.connect()
        holder.begin()

        import threading

        def release_soon():
            time.sleep(0.1)
            holder.abort()

        releaser = threading.Thread(target=release_soon)
        releaser.start()
        # 2 slots, 1 held; grab the second, contend for the first
        other = Client(host, port)
        other.connect()
        other.begin()
        contender = Client(host, port, policy=FAST_RETRY)
        contender.connect()
        contender.begin()  # retries through OVERLOADED until released
        contender.abort()
        releaser.join()
        other.abort()
        for client in (holder, other, contender):
            client.close()
        _wait_balanced(engine)


# -- chaos: socket failpoints ----------------------------------------------


class TestSocketFaults:
    @pytest.mark.parametrize(
        "site,mode",
        [
            (SITE_CONN_READ, "error"),
            (SITE_CONN_READ, "delay"),
            (SITE_CONN_READ, "disconnect"),
            (SITE_CONN_READ, "short-read"),
            (SITE_CONN_WRITE, "error"),
            (SITE_CONN_WRITE, "delay"),
            (SITE_CONN_WRITE, "disconnect"),
            (SITE_CONN_WRITE, "torn-write"),
        ],
    )
    def test_client_survives_every_socket_fault(self, server, mode, site):
        _, host, port = server
        client = Client(host, port, policy=FAST_RETRY)
        client.connect()
        try:
            FAILPOINTS.activate(site, mode, nth=1, times=1)
            # The server evaluates a read failpoint before it awaits the
            # next frame, which may be before activate() ran; the
            # second ping's read is then the first one armed.
            assert client.ping()
            assert client.ping()
            assert FAILPOINTS.stats(site).fired >= 1
        finally:
            FAILPOINTS.clear()
            client.close()

    def test_faulted_writes_are_not_lost_when_acked(self, server, engine):
        """Disconnect faults around a write: every acked create exists."""
        _, host, port = server
        acked = []
        client = Client(host, port, policy=FAST_RETRY)
        client.connect()
        FAILPOINTS.activate(SITE_CONN_WRITE, "disconnect", nth=3)
        try:
            for i in range(10):
                try:
                    client.query(
                        "CREATE (n:W {ext_id: $e})", {"e": f"w{i}"}
                    )
                    acked.append(f"w{i}")
                except (ServerError, ConnectionError, OSError):
                    pass
        finally:
            FAILPOINTS.clear()
            client.close()
        rows = engine.execute("MATCH (n:W) RETURN n.ext_id")
        stored = {row["n.ext_id"] for row in rows}
        assert set(acked) <= stored
        _wait_balanced(engine)


# -- session death at every protocol step (property-style) ------------------


def _read_response(sock) -> dict:
    header = _recv_exactly(sock, 4)
    return decode_body(_recv_exactly(sock, decode_length(header)))


def _recv_exactly(sock, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionResetError("peer closed")
        data += chunk
    return data


def _steps():
    """Each step drives a raw socket partway through the protocol and
    returns; the test then kills the socket at that exact point."""

    def connected(sock):
        pass

    def after_hello(sock):
        sock.sendall(encode_frame({"op": "hello", "version": 1, "id": 1}))
        _read_response(sock)

    def after_begin(sock):
        after_hello(sock)
        sock.sendall(encode_frame({"op": "begin", "id": 2}))
        assert _read_response(sock)["ok"]

    def mid_statement(sock):
        after_begin(sock)
        sock.sendall(encode_frame({
            "op": "query", "id": 3,
            "text": "CREATE (n:K {ext_id: $e})", "params": {"e": "dead"},
        }))
        # die without reading the response

    def torn_frame(sock):
        after_begin(sock)
        frame = encode_frame({"op": "query", "id": 3,
                              "text": "MATCH (n) RETURN n"})
        sock.sendall(frame[: len(frame) // 2])  # half a frame, then die

    def mid_commit(sock):
        mid_statement(sock)
        time.sleep(0.05)
        sock.sendall(encode_frame({"op": "commit", "id": 4}))
        # die with the commit in flight, ack unread

    return [
        ("connected", connected),
        ("after_hello", after_hello),
        ("after_begin", after_begin),
        ("mid_statement", mid_statement),
        ("torn_frame", torn_frame),
        ("mid_commit", mid_commit),
    ]


class TestSessionDeath:
    @pytest.mark.parametrize("name,step", _steps(), ids=[n for n, _ in _steps()])
    def test_killed_client_always_leaves_engine_balanced(
        self, server, engine, name, step
    ):
        _, host, port = server
        sock = socket.create_connection((host, port), timeout=5)
        try:
            step(sock)
        finally:
            # hard kill: RST instead of FIN, like a crashed process
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
            sock.close()
        metrics = _wait_balanced(engine)
        admission = metrics["resilience"]["admission"]
        assert admission["in_flight"] == 0
        assert metrics["transactions"]["active"] == 0
        # and the server is still alive for the next client
        with Client(host, port) as client:
            assert client.ping()

    def test_many_killed_sessions_never_exhaust_the_gate(self, server, engine):
        """Repeated mid-transaction deaths must not consume the 2-slot
        gate: after the storm, a well-behaved client still gets in."""
        _, host, port = server
        for _ in range(6):
            sock = socket.create_connection((host, port), timeout=5)
            sock.sendall(encode_frame({"op": "hello", "version": 1, "id": 1}))
            _read_response(sock)
            sock.sendall(encode_frame({"op": "begin", "id": 2}))
            assert _read_response(sock)["ok"]
            sock.close()
        _wait_balanced(engine)
        with Client(host, port) as client:
            client.begin()
            client.query("CREATE (n:S {ext_id: $e})", {"e": "alive"})
            client.commit()
        assert engine.execute("MATCH (n:S) RETURN n.ext_id") == [
            {"n.ext_id": "alive"}
        ]


# -- interactive-transaction loss -------------------------------------------


class TestTransactionLoss:
    """A connection that dies while a ``begin()`` transaction is open
    took its server session — and the transaction — with it.  The
    client must surface a structured ``TXN_LOST`` error on the next
    operation, never silently replay onto a fresh session (regression:
    the reconnect path used to re-run the statement in autocommit)."""

    def _kill_connection(self, client):
        """Tear the transport under the client without telling it."""
        client._sock.shutdown(socket.SHUT_RDWR)
        client._sock.close()

    def test_connection_death_mid_txn_raises_txn_lost(self, server, engine):
        _thread, host, port = server
        client = Client(host, port, policy=FAST_RETRY)
        client.connect()
        client.begin()
        client.query("CREATE (n:L {ext_id: 'doomed'})")
        self._kill_connection(client)
        with pytest.raises(ServerError) as info:
            client.query("CREATE (n:L {ext_id: 'after'})")
        assert info.value.code == "TXN_LOST"
        assert info.value.retryable is False
        assert client.stats["txn_lost"] == 1
        # The statement was NOT silently replayed in autocommit: the
        # rolled-back transaction's writes are gone, and nothing new
        # was created behind the caller's back.
        _wait_balanced(engine)
        assert engine.execute("MATCH (n:L) RETURN n.ext_id") == []
        # The client recovers: a fresh begin/commit works.
        client.begin()
        client.query("CREATE (n:L {ext_id: 'retried'})")
        assert client.commit() > 0
        assert engine.execute("MATCH (n:L) RETURN n.ext_id") == [
            {"n.ext_id": "retried"}
        ]
        client.close()

    def test_injected_disconnect_mid_txn_raises_txn_lost(
        self, server, engine
    ):
        _thread, host, port = server
        client = Client(host, port, policy=FAST_RETRY)
        client.connect()
        client.begin()
        client.query("CREATE (n:L {ext_id: 'doomed'})")
        # The write site fires while the server answers the next
        # request, so the disconnect lands deterministically on it.
        FAILPOINTS.activate(SITE_CONN_WRITE, "disconnect", times=1)
        with pytest.raises(ServerError) as info:
            client.query("CREATE (n:L {ext_id: 'after'})")
        assert info.value.code == "TXN_LOST"
        FAILPOINTS.clear()
        _wait_balanced(engine)
        assert engine.execute("MATCH (n:L) RETURN n.ext_id") == []
        client.close()

    def test_commit_and_abort_clear_the_txn_flag(self, server, engine):
        _thread, host, port = server
        client = Client(host, port, policy=FAST_RETRY)
        client.connect()
        client.begin()
        client.query("CREATE (n:L {ext_id: 'kept'})")
        client.commit()
        # After commit, a torn connection is an ordinary reconnect —
        # no transaction was open, so no TXN_LOST.
        self._kill_connection(client)
        rows = client.query("MATCH (n:L) RETURN n.ext_id")
        assert rows == [{"n.ext_id": "kept"}]
        assert client.stats["txn_lost"] == 0
        client.begin()
        client.abort()
        self._kill_connection(client)
        assert client.query("MATCH (n:L) RETURN n.ext_id") == rows
        assert client.stats["txn_lost"] == 0
        client.close()

    def test_autocommit_clients_reconnect_silently(self, server, engine):
        """Without an open transaction the old behavior stands: the
        connection loss is retried transparently."""
        _thread, host, port = server
        client = Client(host, port, policy=FAST_RETRY)
        client.connect()
        client.query("CREATE (n:L {ext_id: 'a'})")
        self._kill_connection(client)
        client.query("CREATE (n:L {ext_id: 'b'})")
        assert client.stats["reconnects"] >= 1
        assert client.stats["txn_lost"] == 0
        rows = engine.execute("MATCH (n:L) RETURN n.ext_id")
        assert {r["n.ext_id"] for r in rows} == {"a", "b"}
        client.close()


# -- drain ------------------------------------------------------------------


class TestDrain:
    def test_drain_sheds_new_work_finishes_old(self, engine):
        import asyncio

        thread = ServerThread(
            engine, ServerConfig(shed_retry_after=0.01, drain_grace=2.0)
        )
        host, port = thread.start()
        client = Client(host, port, policy=ONE_SHOT)
        client.connect()
        client.begin()
        client.query("CREATE (n:D {ext_id: $e})", {"e": "drained"})
        future = asyncio.run_coroutine_threadsafe(
            thread.server.shutdown(), thread._loop
        )
        try:
            time.sleep(0.05)
            # new work on the draining server is shed, structured
            with pytest.raises(ServerError) as info:
                client.query("MATCH (n) RETURN n")
            assert info.value.code == "SHUTTING_DOWN"
            assert info.value.retryable is True
            # but the in-flight transaction may still finish
            assert client.commit() > 0
        finally:
            future.result(timeout=10)
            client.close()
            thread.stop()
        assert engine.execute("MATCH (n:D) RETURN n.ext_id") == [
            {"n.ext_id": "drained"}
        ]
        assert thread.server.counters["sessions_killed"] == 0


# -- where a request runs ---------------------------------------------------


def _open_served(directory, **engine_kwargs):
    from repro.core.durability import open_engine

    engine = open_engine(
        directory, gc_interval_transactions=0, **engine_kwargs
    )
    thread = ServerThread(engine, ServerConfig(executor_workers=2))
    host, port = thread.start()
    return engine, thread, host, port


@pytest.fixture
def served(tmp_path):
    """A flush-mode durable engine with no admission gate."""
    engine, thread, host, port = _open_served(tmp_path / "flush")
    try:
        yield engine, thread, host, port
    finally:
        FAILPOINTS.clear()
        thread.stop()
        engine.close()


class _Paths:
    """Counts of statement requests served inline / pooled since
    construction."""

    def __init__(self, thread) -> None:
        self._counters = thread.server.counters
        self._start = self._now()

    def _now(self):
        c = self._counters
        return c["requests_inline"], c["requests_pooled"]

    def moved(self) -> tuple[int, int]:
        (i0, p0), (i1, p1) = self._start, self._now()
        return i1 - i0, p1 - p0


POINT = "MATCH (n:Acct {k: $k}) RETURN n.v"
SET_V = "MATCH (n:Acct {k: $k}) SET n.v = $v"


def test_statement_lengths_stay_bounded_under_racing_threads():
    from repro.server.app import _StatementLengths

    lengths = _StatementLengths(16)
    errors = []

    def hammer(offset):
        try:
            for i in range(2000):
                text = f"t{(i + offset) % 64}"
                lengths.timed(text, lambda: None)()
                lengths.is_short(text)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=hammer, args=(k * 7,)) for k in range(8)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert len(lengths._last) == 16
    assert all(lengths.is_short(text) for text in lengths._last)


class TestWhereRequestsRun:
    @pytest.fixture(autouse=True)
    def _roomy_switch_interval(self):
        # Statement lengths are wall times, and a loaded machine can
        # stretch a cold first run past 5 ms; judge them against 50 ms
        # so that only the slowed statement below reads as long.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(0.05)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    def test_short_reads_txn_statements_and_flush_commits_run_inline(
        self, served
    ):
        engine, thread, host, port = served
        with Client(host, port, policy=ONE_SHOT) as client:
            client.query("CREATE (n:Acct {k: 1, v: 0})")
            paths = _Paths(thread)
            client.query(POINT, {"k": 1})       # not seen yet: pooled
            assert paths.moved() == (0, 1)
            client.query(POINT, {"k": 1})       # point read
            client.query(SET_V, {"k": 1, "v": 1})   # not seen yet: pooled
            client.query(SET_V, {"k": 1, "v": 2})   # flush-mode SET
            client.begin()                      # no gate
            client.query(SET_V, {"k": 1, "v": 3})   # in-txn statement
            client.commit()                     # flush-mode commit
            client.begin()
            client.abort()
            assert paths.moved() == (7, 2)
            assert client.query(POINT, {"k": 1}) == [{"n.v": 3}]
        exposition = engine.observability.registry.prometheus_text()
        samples = dict(
            line.rsplit(" ", 1)
            for line in exposition.splitlines()
            if not line.startswith("#")
        )
        for path in ("inline", "pooled"):
            assert float(samples[f"aeong_server_requests_{path}"]) == (
                thread.server.counters[f"requests_{path}"]
            )

    def test_fsync_writes_run_pooled(self, tmp_path):
        engine, thread, host, port = _open_served(
            tmp_path / "fsync", durability_mode="fsync"
        )
        try:
            with Client(host, port, policy=ONE_SHOT) as client:
                client.query("CREATE (n:Acct {k: 1, v: 0})")
                client.query(POINT, {"k": 1})
                paths = _Paths(thread)
                for v in (1, 2, 3):
                    client.query(SET_V, {"k": 1, "v": v})
                assert paths.moved() == (0, 3)
                client.query(POINT, {"k": 1})   # a read never waits
                client.begin()                  # no gate
                client.query(POINT, {"k": 1})
                client.commit()                 # read-only: no fsync
                assert paths.moved() == (4, 3)
                client.begin()
                client.query("CREATE (n:Acct {k: 2, v: 0})")  # unseen
                client.commit()                 # waits on the device
                assert paths.moved() == (5, 5)
        finally:
            thread.stop()
            engine.close()

    def test_gate_sends_begin_and_autocommit_to_the_pool(self, server):
        thread, host, port = server
        with Client(host, port, policy=ONE_SHOT) as client:
            client.query("CREATE (n:Acct {k: 1, v: 0})")
            paths = _Paths(thread)
            for _ in range(3):
                client.query(POINT, {"k": 1})
            assert paths.moved() == (0, 3)
            client.begin()                      # queues at the gate
            client.query(POINT, {"k": 1})       # in-txn: inline
            client.commit()                     # read-only, flush: inline
            assert paths.moved() == (2, 4)

    def test_timeout_sends_the_request_to_the_pool(self, served):
        _engine, thread, host, port = served
        with Client(host, port, policy=ONE_SHOT) as client:
            client.query("CREATE (n:Acct {k: 1, v: 0})")
            client.query(POINT, {"k": 1})
            paths = _Paths(thread)
            client.query(POINT, {"k": 1}, timeout=5.0)
            client.query(SET_V, {"k": 1, "v": 1}, timeout=5.0)
            client.begin(timeout=5.0)
            client.abort()
            assert paths.moved() == (1, 3)

    def test_conflicting_inline_write_is_redispatched(
        self, served, monkeypatch
    ):
        engine, thread, host, port = served
        real = executor.execute_query
        raced = []

        def racing(engine_, txn, text, params=None):
            if text == SET_V and params["v"] == 2 and not raced:
                raced.append(threading.current_thread().name)
                # A competing write commits after this attempt's
                # snapshot, so the attempt's own write conflicts.
                with engine.transaction() as other:
                    real(engine, other, SET_V, {"k": 1, "v": -1})
            return real(engine_, txn, text, params)

        with Client(host, port, policy=ONE_SHOT) as client:
            client.query("CREATE (n:Acct {k: 1, v: 0})")
            client.query(SET_V, {"k": 1, "v": 1})
            monkeypatch.setattr(executor, "execute_query", racing)
            conflicts = engine.metrics()["resilience"]["conflict_retries"]
            paths = _Paths(thread)
            client.query(SET_V, {"k": 1, "v": 2})
            assert raced == ["aeong-server-loop"]
            assert paths.moved() == (0, 1)
            resilience = engine.metrics()["resilience"]
            assert resilience["conflict_retries"] == conflicts + 1
            assert resilience["retries_exhausted"] == 0
            assert client.query(POINT, {"k": 1}) == [{"n.v": 2}]

    def test_slow_statement_moves_to_the_pool(self, served, monkeypatch):
        _engine, thread, host, port = served
        real = executor.execute_query
        entered = threading.Event()
        release = threading.Event()
        release.set()
        stall = [0.0]

        def slowed(engine_, txn, text, params=None):
            if text == POINT:
                entered.set()
                time.sleep(stall[0])
                assert release.wait(10.0)
            return real(engine_, txn, text, params)

        monkeypatch.setattr(executor, "execute_query", slowed)
        with Client(host, port, policy=ONE_SHOT) as client:
            client.query("CREATE (n:Acct {k: 1, v: 0})")
            client.query(POINT, {"k": 1})
            paths = _Paths(thread)
            # Slowed past one switch interval: this run is still inline
            # (its last run was short), the next one is pooled.
            stall[0] = 2 * sys.getswitchinterval()
            client.query(POINT, {"k": 1})
            assert paths.moved() == (1, 0)
            stall[0] = 0.0
            entered.clear()
            release.clear()
            answer = []
            slow = threading.Thread(
                target=lambda: answer.append(client.query(POINT, {"k": 1}))
            )
            slow.start()
            try:
                assert entered.wait(5.0)
                with Client(host, port, policy=ONE_SHOT) as other:
                    assert other.ping()
                assert slow.is_alive()  # answered while the scan runs
            finally:
                release.set()
                slow.join(10.0)
            assert answer == [[{"n.v": 0}]]
            assert paths.moved() == (1, 1)

    def test_inline_read_reports_degraded(self):
        engine = AeonG(
            gc_interval_transactions=0,
            anchor_interval=2,
            resilience=ResilienceConfig(
                watchdog_interval=0,
                breaker_failure_threshold=1,
                breaker_reset_timeout=100.0,
                degraded_reads="current-only",
            ),
        )
        with engine.transaction() as txn:
            gid = engine.create_vertex(txn, ["B"], {"v": 0})
        created_at = engine.now() - 1
        for value in (1, 2, 3):
            with engine.transaction() as txn:
                engine.set_vertex_property(txn, gid, "v", value)
        engine.collect_garbage()  # old versions live only in the KV store
        thread = ServerThread(engine)
        host, port = thread.start()
        try:
            FAILPOINTS.activate("history.fetch", "error")
            txn = engine.begin()
            with pytest.raises(FaultInjected):
                list(engine.vertex_versions(
                    txn, gid, TemporalCondition.as_of(created_at)
                ))
            engine.abort(txn)
            FAILPOINTS.clear()
            assert engine.resilience.degraded
            text = f"MATCH (n) TT SNAPSHOT {created_at} RETURN n.v"
            with Client(host, port, policy=ONE_SHOT) as client:
                pooled = client.request({"op": "query", "text": text})
                paths = _Paths(thread)
                inline = client.request({"op": "query", "text": text})
                assert paths.moved() == (1, 0)
            for response in (pooled, inline):
                assert response["rows"] == []
                assert response["degraded"] is True
            assert thread.server.counters["requests_degraded"] == 2
        finally:
            FAILPOINTS.clear()
            thread.stop()
            engine.close()
