"""Replication tests: envelope, shipping, failover, fencing, metrics.

Run with ``pytest -m replication``.  The unit half exercises the
record envelope and :class:`ReplicationState` directly; the
integration half spins up real servers (``ServerThread``) with a real
:class:`ReplicaRunner` streaming between two engines in-process, plus
one subprocess test for the ``aeong serve`` startup lines.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import AeonG, FAILPOINTS
from repro.core.durability import EngineWal, open_engine
from repro.errors import (
    CorruptionError,
    ReplicationDivergedError,
    ReplicationFencedError,
    ReplicationResyncRequired,
    ReplicationTimeout,
    ServerError,
    TransactionStateError,
)
from repro.replication import (
    ReplicaRunner,
    ReplicationConfig,
    ReplicationState,
    SITE_STREAM_READ,
    SITE_STREAM_WRITE,
    apply_pushed_records,
    build_fetch_response,
    decode_record,
    encode_record,
    pack_records,
    unpack_record,
)
from repro.resilience import RetryPolicy
from repro.server import Client, ServerThread
from repro.server.app import ServerConfig

pytestmark = pytest.mark.replication

FAST = RetryPolicy(max_attempts=4, base_delay=0.005, max_delay=0.05)


@pytest.fixture(autouse=True)
def _clean_failpoints():
    FAILPOINTS.clear()
    yield
    FAILPOINTS.clear()


def _wait_until(predicate, timeout: float = 10.0, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


def _replica_config(host="127.0.0.1", port=1, **overrides):
    defaults = dict(
        role="replica",
        replica_id="replica-1",
        primary_host=host,
        primary_port=port,
        poll_interval=0.05,
        lease_timeout=1.5,
    )
    defaults.update(overrides)
    return ReplicationConfig(**defaults)


# -- the record envelope ----------------------------------------------------


class TestEnvelope:
    def test_roundtrip(self):
        ops = [("cv", 7, ["P"], {"name": "a"}), ("svp", 7, "v", 1)]
        ts, decoded = decode_record(encode_record(42, ops))
        assert ts == 42
        assert decoded == [tuple(op) for op in ops]

    def test_wire_roundtrip(self):
        batch = [(1, [("cv", 1, ["A"], {})]), (2, [("dv", 1)])]
        wire = pack_records(batch)
        assert all(isinstance(b, str) for b in wire)
        assert [unpack_record(b) for b in wire] == batch

    def test_truncation_detected(self):
        blob = encode_record(5, [("cv", 1, ["A"], {})])
        for cut in (0, 3, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CorruptionError):
                decode_record(blob[:cut])

    def test_bitflip_detected(self):
        blob = bytearray(encode_record(5, [("cv", 1, ["A"], {})]))
        blob[len(blob) // 2] ^= 0x40
        with pytest.raises(CorruptionError, match="checksum"):
            decode_record(bytes(blob))

    def test_unknown_version_detected(self):
        blob = encode_record(5, [("cv", 1, ["A"], {})])
        with pytest.raises(CorruptionError, match="version"):
            decode_record(b"\x7f" + blob[1:])

    def test_invalid_base64_detected(self):
        with pytest.raises(CorruptionError, match="base64"):
            unpack_record("!!! not base64 !!!")


# -- configuration ----------------------------------------------------------


class TestConfig:
    def test_role_validated(self):
        with pytest.raises(ValueError):
            ReplicationConfig(role="leader")

    def test_replica_requires_primary_address(self):
        with pytest.raises(ValueError):
            ReplicationConfig(role="replica")

    def test_lease_validated(self):
        with pytest.raises(ValueError):
            ReplicationConfig(lease_timeout=0)


# -- state machine (no engine) ----------------------------------------------


class TestState:
    def test_promote_bumps_epoch_and_seals_fence(self):
        state = ReplicationState(_replica_config())
        assert state.is_replica
        status = state.promote()
        assert status["role"] == "primary"
        assert status["epoch"] == 2
        assert not state.is_replica
        # Idempotent: a second promote reports, does not bump again.
        assert state.promote()["epoch"] == 2

    def test_ring_serves_and_long_poll_times_out(self):
        state = ReplicationState()
        assert state.records_from(1, 10, wait=0.0) == []
        state.note_commit(3, [("cv", 1, ["A"], {})])
        state.note_commit(5, [("cv", 2, ["A"], {})])
        assert [ts for ts, _ in state.records_from(1, 10)] == [3, 5]
        assert [ts for ts, _ in state.records_from(4, 10)] == [5]
        assert state.records_from(6, 10, wait=0.05) == []

    def test_note_commit_wakes_long_poll(self):
        state = ReplicationState()
        got = []

        def poll():
            got.extend(state.records_from(1, 10, wait=5.0))

        thread = threading.Thread(target=poll)
        thread.start()
        time.sleep(0.05)
        state.note_commit(1, [("cv", 1, ["A"], {})])
        thread.join(5.0)
        assert [ts for ts, _ in got] == [1]

    def test_wal_retain_ts_is_slowest_replica_plus_one(self):
        state = ReplicationState()
        assert state.wal_retain_ts() is None
        state.ack("r1", 10, 1)
        state.ack("r2", 4, 1)
        assert state.wal_retain_ts() == 5

    def test_wait_replicated(self):
        state = ReplicationState()
        state.register_replica("r1", 0, 1)
        assert not state.wait_replicated(5, timeout=0.05)

        def ack_soon():
            time.sleep(0.05)
            state.ack("r1", 5, 1)

        thread = threading.Thread(target=ack_soon)
        thread.start()
        assert state.wait_replicated(5, timeout=5.0)
        thread.join()

    def test_metrics_shape(self):
        state = ReplicationState()
        state.ack("r1", 2, 1)
        metrics = state.metrics()
        assert metrics["role"] == "primary"
        assert metrics["epoch"] == 1
        assert "r1" in metrics["replicas"]
        for key in ("records_shipped", "records_applied", "promotions",
                    "fenced_rejections", "lag"):
            assert key in metrics


# -- apply path (two in-memory engines) -------------------------------------


@pytest.fixture
def primary():
    db = AeonG(gc_interval_transactions=0)
    yield db
    db.close()


@pytest.fixture
def replica():
    db = AeonG(
        gc_interval_transactions=0,
        replication=_replica_config(),
    )
    yield db
    db.close()


def _write_people(db, n, offset=0):
    for i in range(offset, offset + n):
        with db.transaction() as txn:
            db.create_vertex(txn, ["Person"], {"ext_id": f"p{i}"})


def _ship_all(primary, replica):
    """Pump every primary record through the wire envelope into the
    replica, exactly as the runner would."""
    state = primary.replication
    records = state.records_from(1, 10_000)
    applied = 0
    for blob in pack_records(records):
        ts, ops = unpack_record(blob)
        if replica.apply_replicated(ts, ops):
            applied += 1
    return applied


class TestApply:
    def test_ship_apply_and_snapshot_reads(self, primary, replica):
        _write_people(primary, 5)
        assert _ship_all(primary, replica) == 5
        assert replica.replication.watermark() == \
            primary.replication.watermark()
        rows = replica.execute("MATCH (n:Person) RETURN n.ext_id")
        assert {r["n.ext_id"] for r in rows} == {f"p{i}" for i in range(5)}
        # Temporal history is bit-for-bit: same commit timestamps.
        snap = replica.execute(
            "MATCH (n:Person) TT SNAPSHOT 2 RETURN n.ext_id"
        )
        assert snap == primary.execute(
            "MATCH (n:Person) TT SNAPSHOT 2 RETURN n.ext_id"
        )

    def test_reapply_is_noop(self, primary, replica):
        _write_people(primary, 4)
        assert _ship_all(primary, replica) == 4
        before = replica.replication.watermark()
        # The whole overlapping range again: every record skipped.
        assert _ship_all(primary, replica) == 0
        assert replica.replication.watermark() == before
        rows = replica.execute("MATCH (n:Person) RETURN n.ext_id")
        assert len(rows) == 4

    def test_replica_rejects_local_writes(self, replica):
        txn = replica.begin()
        try:
            with pytest.raises(TransactionStateError, match="read-only"):
                replica.create_vertex(txn, ["P"], {})
        finally:
            replica.abort(txn)
        with pytest.raises(TransactionStateError, match="read-only"):
            replica.execute("CREATE (n:P)")

    def test_replica_reads_do_not_consume_timestamps(self, primary, replica):
        _write_people(primary, 3)
        _ship_all(primary, replica)
        watermark = replica.replication.watermark()
        for _ in range(10):
            replica.execute("MATCH (n:Person) RETURN n.ext_id")
        # Reads must not advance the oracle, or the next shipped record
        # would collide with a locally-burned timestamp.
        assert replica.replication.watermark() == watermark
        assert _ship_all(primary, replica) == 0
        _write_people(primary, 1, offset=3)
        assert _ship_all(primary, replica) == 1

    def test_promoted_replica_accepts_writes_and_fences_zombie(
        self, primary, replica
    ):
        _write_people(primary, 3)
        _ship_all(primary, replica)
        status = replica.replication.promote()
        assert status["epoch"] == 2
        assert status["fence_ts"] == replica.replication.watermark()
        replica.execute("CREATE (n:Person {ext_id: 'new'})")
        # The zombie primary's late commit arrives under the old epoch.
        _write_people(primary, 1, offset=9)
        stale = pack_records(
            primary.replication.records_from(
                replica.replication.fence_ts + 1, 100
            )
        )
        with pytest.raises(ReplicationFencedError, match="epoch"):
            apply_pushed_records(replica, epoch=1, records=stale)

    def test_push_to_primary_refused(self, primary):
        blob = pack_records([(1, [("cv", 1, ["A"], {})])])
        with pytest.raises(ReplicationFencedError, match="primary"):
            apply_pushed_records(primary, epoch=1, records=blob)

    def test_sealed_history_refused(self, primary, replica):
        _write_people(primary, 2)
        _ship_all(primary, replica)
        # A replica that witnessed a failover seals history at the
        # fencing token; even current-epoch pushes below it are refused.
        replica.replication.adopt_epoch(2)
        replica.replication.fence_ts = replica.replication.watermark()
        sealed = pack_records([(1, [("cv", 99, ["A"], {})])])
        with pytest.raises(ReplicationFencedError, match="sealed"):
            apply_pushed_records(replica, epoch=2, records=sealed)

    def test_fetch_from_diverged_replica_detected(self, primary):
        _write_people(primary, 2)
        with pytest.raises(ReplicationDivergedError, match="resync"):
            build_fetch_response(
                primary, "r1", from_ts=1, ack=999, epoch=1,
                wait=0.0, limit=10,
            )

    def test_fetch_by_newer_epoch_fences_the_zombie(self, primary):
        _write_people(primary, 1)
        with pytest.raises(ReplicationFencedError, match="superseded"):
            build_fetch_response(
                primary, "r1", from_ts=1, ack=0, epoch=7,
                wait=0.0, limit=10,
            )

    def test_sync_commit_timeout_is_commit_not_loss(self):
        db = AeonG(
            gc_interval_transactions=0,
            replication=ReplicationConfig(
                role="primary", sync_commit=True, sync_timeout=0.05
            ),
        )
        try:
            # No replica registered: sync wait is dormant.
            db.execute("CREATE (n:P {ext_id: 'free'})")
            db.replication.register_replica("r1", 0, 1)
            with pytest.raises(ReplicationTimeout, match="durable"):
                db.execute("CREATE (n:P {ext_id: 'held'})")
            # The timed-out commit IS locally durable — retrying it
            # would double-apply, which is why the error is terminal.
            rows = db.execute("MATCH (n:P) RETURN n.ext_id")
            assert {r["n.ext_id"] for r in rows} == {"free", "held"}
        finally:
            db.close()

    def test_sync_commit_releases_on_ack(self):
        db = AeonG(
            gc_interval_transactions=0,
            replication=ReplicationConfig(
                role="primary", sync_commit=True, sync_timeout=5.0
            ),
        )
        try:
            db.replication.register_replica("r1", 0, 1)
            stop = threading.Event()

            def acker():
                while not stop.is_set():
                    db.replication.ack(
                        "r1", db.replication.watermark(), 1
                    )
                    time.sleep(0.005)

            thread = threading.Thread(target=acker, daemon=True)
            thread.start()
            try:
                db.execute("CREATE (n:P {ext_id: 'synced'})")
            finally:
                stop.set()
                thread.join(2.0)
            assert db.replication.counters["sync_commit_timeouts"] == 0
        finally:
            db.close()


# -- WAL fence vs. checkpoint truncation ------------------------------------


class TestCheckpointFence:
    def test_checkpoint_keeps_unacked_records(self, tmp_path):
        db = open_engine(tmp_path / "data", gc_interval_transactions=0)
        try:
            _write_people(db, 6)
            watermark = db.replication.watermark()
            slow_ack = watermark - 3
            db.replication.register_replica("r1", slow_ack, 1)
            db.checkpoint()
            # Records the slow replica still needs survive truncation…
            records = db.replication.records_from(slow_ack + 1, 100)
            assert records
            assert all(ts > slow_ack for ts, _ in records)
            assert records[-1][0] == watermark
            # …and the dropped prefix is fenced, not silently skipped
            # (the fence is the highest *dropped* commit timestamp,
            # which may sit below the ack when timestamps have gaps).
            fence = db.wal_truncation_fence()
            assert 0 < fence <= slow_ack
            with pytest.raises(ReplicationResyncRequired, match="bootstrap"):
                db.replication.records_from(1, 100)
            with pytest.raises(ReplicationResyncRequired):
                db.replication.records_from(fence, 100)
        finally:
            db.close()

    def test_full_truncate_without_replicas_sets_fence(self, tmp_path):
        db = open_engine(tmp_path / "data", gc_interval_transactions=0)
        try:
            _write_people(db, 3)
            watermark = db.replication.watermark()
            db.checkpoint()
            assert db.wal_truncation_fence() == watermark
            with pytest.raises(ReplicationResyncRequired):
                db.replication.records_from(1, 100)
        finally:
            db.close()

    def test_fence_survives_restart(self, tmp_path):
        db = open_engine(tmp_path / "data", gc_interval_transactions=0)
        _write_people(db, 4)
        db.replication.register_replica("r1", 2, 1)
        db.checkpoint()
        fence = db.wal_truncation_fence()
        assert fence >= 2
        surviving = [ts for ts, _ in db.replication.records_from(
            fence + 1, 100
        )]
        assert surviving
        db.close()
        db = open_engine(tmp_path / "data", gc_interval_transactions=0)
        try:
            # The reopened engine re-derives a fence below its oldest
            # surviving record: fetches above it still work, fetches
            # at or below it still resync — no silent gap either way.
            refence = db.wal_truncation_fence()
            assert 0 < refence < surviving[0]
            assert [
                ts for ts, _ in db.replication.records_from(refence + 1, 100)
            ] == surviving
            with pytest.raises(ReplicationResyncRequired):
                db.replication.records_from(refence, 100)
        finally:
            db.close()


    def test_reopen_scans_the_wal_once(self, tmp_path, monkeypatch):
        """Recovery derives the fence from its replay scan: opening a
        directory whose checkpoint kept unacked records reads the log
        exactly once."""
        db = open_engine(tmp_path / "data", gc_interval_transactions=0)
        _write_people(db, 4)
        db.replication.register_replica("r1", 2, 1)
        db.checkpoint()
        surviving = [ts for ts, _ in db.wal_records_from(0)]
        assert surviving
        db.close()
        scans = []
        original = EngineWal._scan_frames

        def counting_scan(wal, *args, **kwargs):
            scans.append(args)
            return original(wal, *args, **kwargs)

        monkeypatch.setattr(EngineWal, "_scan_frames", counting_scan)
        db = open_engine(tmp_path / "data", gc_interval_transactions=0)
        try:
            assert len(scans) == 1
            assert 0 < db.wal_truncation_fence() < surviving[0]
        finally:
            db.close()


# -- live topology: two servers, a real runner ------------------------------


@pytest.fixture
def cluster(tmp_path):
    """A primary server and a replica server with a live runner."""
    primary_engine = open_engine(
        tmp_path / "primary", gc_interval_transactions=0
    )
    primary_thread = ServerThread(primary_engine)
    primary_addr = primary_thread.start()

    replica_engine = open_engine(
        tmp_path / "replica",
        gc_interval_transactions=0,
        replication=_replica_config(*primary_addr),
    )
    replica_thread = ServerThread(replica_engine)
    replica_thread.server.primary_hint = "%s:%d" % primary_addr
    replica_addr = replica_thread.start()
    runner = ReplicaRunner(replica_engine, replica_engine.replication.config)
    runner.start()
    try:
        yield {
            "primary": (primary_engine, primary_addr),
            "replica": (replica_engine, replica_addr),
            "runner": runner,
        }
    finally:
        FAILPOINTS.clear()
        runner.stop()
        replica_thread.stop()
        primary_thread.stop()
        replica_engine.close()
        primary_engine.close()


def _caught_up(primary_engine, replica_engine) -> bool:
    return (
        replica_engine.replication.watermark()
        == primary_engine.replication.watermark()
    )


class TestLiveCluster:
    def test_stream_applies_and_replica_serves_reads(self, cluster):
        primary_engine, primary_addr = cluster["primary"]
        replica_engine, replica_addr = cluster["replica"]
        with Client(*primary_addr) as client:
            for i in range(8):
                client.query("CREATE (n:Person {ext_id: $e})", {"e": f"p{i}"})
        _wait_until(
            lambda: _caught_up(primary_engine, replica_engine),
            what="replica catch-up",
        )
        with Client(*replica_addr) as reader:
            rows = reader.query("MATCH (n:Person) RETURN n.ext_id")
            status = reader.request({"op": "repl_status"})
        assert {r["n.ext_id"] for r in rows} == {f"p{i}" for i in range(8)}
        assert status["replication"]["role"] == "replica"
        assert status["replication"]["lag"] == 0
        assert status["primary_hint"] == "%s:%d" % primary_addr
        primary_metrics = primary_engine.metrics()["replication"]
        assert primary_metrics["records_shipped"] >= 8
        assert primary_metrics["replicas"]["replica-1"]["lag"] == 0

    def test_write_to_replica_fails_over_to_primary(self, cluster):
        primary_engine, primary_addr = cluster["primary"]
        _replica_engine, replica_addr = cluster["replica"]
        # The client is pointed at the *replica*; the NOT_PRIMARY
        # rejection carries the primary's address and the retry loop
        # lands the write there transparently.
        with Client(*replica_addr, policy=FAST) as client:
            client.query("CREATE (n:Person {ext_id: 'routed'})")
            assert client.stats["failovers"] >= 1
        rows = primary_engine.execute("MATCH (n:Person) RETURN n.ext_id")
        assert {r["n.ext_id"] for r in rows} == {"routed"}

    def test_not_primary_is_structured_when_unretryable(self, cluster):
        _engine, replica_addr = cluster["replica"]
        with Client(
            *replica_addr, policy=RetryPolicy(max_attempts=1)
        ) as client:
            with pytest.raises(ServerError) as excinfo:
                client.query("CREATE (n:P)")
        assert excinfo.value.code == "NOT_PRIMARY"
        assert excinfo.value.primary_address is not None

    def test_torn_stream_record_is_refetched_not_applied(self, cluster):
        primary_engine, primary_addr = cluster["primary"]
        replica_engine, _ = cluster["replica"]
        # Quiesce the stream, queue records, then arm the tear: the
        # restarted runner's first fetch is guaranteed a non-empty
        # batch whose final envelope arrives damaged.
        cluster["runner"].stop()
        with Client(*primary_addr) as client:
            for i in range(5):
                client.query("CREATE (n:T {ext_id: $e})", {"e": f"t{i}"})
        FAILPOINTS.activate(SITE_STREAM_WRITE, "torn-write", times=1)
        runner = ReplicaRunner(
            replica_engine, replica_engine.replication.config
        )
        runner.start()
        try:
            _wait_until(
                lambda: _caught_up(primary_engine, replica_engine),
                what="replica catch-up past torn records",
            )
        finally:
            runner.stop()
        FAILPOINTS.clear()
        rows = replica_engine.execute("MATCH (n:T) RETURN n.ext_id")
        assert {r["n.ext_id"] for r in rows} == {f"t{i}" for i in range(5)}
        assert replica_engine.replication.counters["checksum_failures"] >= 1

    def test_lease_expiry_promotes_replica(self):
        # The primary is a port that refuses connections: the lease can
        # never be renewed, so the replica promotes itself.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        engine = AeonG(
            gc_interval_transactions=0,
            replication=_replica_config(
                "127.0.0.1", dead_port, lease_timeout=0.3
            ),
        )
        runner = ReplicaRunner(engine, engine.replication.config, policy=FAST)
        runner.start()
        try:
            _wait_until(
                lambda: engine.replication.role == "primary",
                what="lease-expiry promotion",
            )
            runner.join(5.0)
            assert runner.stopped_reason == "promoted"
            assert engine.replication.epoch == 2
            assert engine.replication.counters["lease_expiries"] >= 1
            engine.execute("CREATE (n:P {ext_id: 'post-promotion'})")
        finally:
            runner.stop()
            engine.close()

    def test_promote_op_and_zombie_rejection_over_the_wire(self, cluster):
        primary_engine, primary_addr = cluster["primary"]
        replica_engine, replica_addr = cluster["replica"]
        with Client(*primary_addr) as client:
            client.query("CREATE (n:Person {ext_id: 'before'})")
        _wait_until(
            lambda: _caught_up(primary_engine, replica_engine),
            what="replica catch-up",
        )
        cluster["runner"].stop()
        with Client(*replica_addr) as admin:
            status = admin.request({"op": "promote"})
            assert status["role"] == "primary"
            assert status["epoch"] == 2
            # The old primary's epoch-1 push is fenced, not applied.
            stale = pack_records([(status["watermark"] + 1, [])])
            with pytest.raises(ServerError) as excinfo:
                admin.request(
                    {"op": "repl_apply", "epoch": 1, "records": stale}
                )
            assert excinfo.value.code == "REPL_FENCED"
            assert not excinfo.value.retryable
            # The promoted node accepts writes.
            admin.query("CREATE (n:Person {ext_id: 'after'})")
        rows = replica_engine.execute("MATCH (n:Person) RETURN n.ext_id")
        assert {r["n.ext_id"] for r in rows} == {"before", "after"}

    @pytest.mark.serving
    def test_served_semi_sync_commit_is_acked_through_the_loop(
        self, tmp_path
    ):
        # The replica's ack arrives in a repl_fetch that the primary's
        # event loop must read while the commit waits for it: a commit
        # run on the loop itself would block that read until
        # sync_timeout, and fail with REPL_TIMEOUT.
        primary_engine = open_engine(
            tmp_path / "primary",
            gc_interval_transactions=0,
            replication=ReplicationConfig(
                role="primary", sync_commit=True, sync_timeout=2.0
            ),
        )
        primary_thread = ServerThread(primary_engine)
        primary_addr = primary_thread.start()
        replica_engine = open_engine(
            tmp_path / "replica",
            gc_interval_transactions=0,
            replication=_replica_config(*primary_addr, auto_promote=False),
        )
        runner = ReplicaRunner(
            replica_engine, replica_engine.replication.config
        )
        runner.start()
        try:
            _wait_until(
                lambda: primary_engine.replication.replicas,
                what="replica registration",
            )
            with Client(
                *primary_addr, policy=RetryPolicy(max_attempts=1)
            ) as client:
                client.query("CREATE (n:Person {ext_id: 'p', v: 0})")
                # Repeated so the text is known and short: only the
                # wait on the peer keeps these commits off the loop.
                for v in (1, 2, 3):
                    client.query(
                        "MATCH (n:Person {ext_id: 'p'}) SET n.v = $v",
                        {"v": v},
                    )
            counters = primary_engine.replication.counters
            assert counters["sync_commit_timeouts"] == 0
            assert primary_thread.server.counters["requests_pooled"] == 4
            _wait_until(
                lambda: _caught_up(primary_engine, replica_engine),
                what="replica catch-up",
            )
            rows = replica_engine.execute(
                "MATCH (n:Person) RETURN n.v AS v"
            )
            assert rows == [{"v": 3}]
        finally:
            runner.stop()
            primary_thread.stop()
            replica_engine.close()
            primary_engine.close()


# -- satellite: the Prometheus scrape endpoint ------------------------------


def _http_get(host: str, port: int, path: str) -> tuple[int, bytes]:
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks)
    head, _, body = response.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body


class TestMetricsEndpoint:
    def test_live_scrape_serves_prometheus_text(self):
        engine = AeonG(gc_interval_transactions=0)
        thread = ServerThread(engine, ServerConfig(metrics_port=0))
        host, port = thread.start()
        try:
            engine.execute("CREATE (n:P {ext_id: 'scraped'})")
            mhost, mport = thread.server.metrics_address
            status, body = _http_get(mhost, mport, "/metrics")
            assert status == 200
            text = body.decode()
            assert "# TYPE aeong_replication_lag gauge" in text
            watermark = next(
                float(line.split()[1])
                for line in text.splitlines()
                if line.startswith("aeong_replication_watermark ")
            )
            assert watermark >= 1.0
            assert "aeong_server_metrics_scrapes" in text
            status, body = _http_get(mhost, mport, "/wrong")
            assert status == 404
            # The TCP protocol port still works alongside.
            with Client(host, port) as client:
                assert client.ping()
        finally:
            thread.stop()
            engine.close()


# -- satellite: `aeong serve` startup lines ---------------------------------


class TestServeStartupLines:
    def test_port0_prints_bound_addresses_and_role(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[1] / "src"
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                str(tmp_path / "data"), "--port", "0",
                "--metrics-port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            lines = {}
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and len(lines) < 3:
                line = proc.stdout.readline()
                if not line:
                    break
                for key in ("serving on", "metrics on", "role"):
                    if f"aeong {key}" in line:
                        lines[key] = line.strip()
            assert "serving on" in lines, lines
            assert "metrics on" in lines, lines
            assert lines["role"] == "aeong role primary"
            host, port = lines["serving on"].rsplit(" ", 1)[1].split(":")
            with Client(host, int(port)) as client:
                assert client.ping()
            mhost, mport = lines["metrics on"].rsplit(" ", 1)[1].split(":")
            status, body = _http_get(mhost, int(mport), "/metrics")
            assert status == 200 and b"aeong_" in body
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30.0)
