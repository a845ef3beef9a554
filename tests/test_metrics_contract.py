"""The metrics contract: what the benchmark and the exporters read.

``engine.metrics()`` is the merge of every section registered on the
engine's registry.  aeonbench's ``engine_counters`` reads its per-layer
deltas from it, so every section and key it reads must be there on an
in-memory engine and on an ``AeonG.open`` engine alike; sections of
satellites appear only once the satellite attaches.
"""

from __future__ import annotations

from benchmarks.aeonbench.workloads import engine_counters
from repro import AeonG
from repro.integrity import Scrubber


def _exercise(db: AeonG) -> None:
    with db.transaction() as txn:
        gid = db.create_vertex(txn, ["P"], {"n": 0})
    for n in range(1, 4):
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "n", n)
    db.collect_garbage()
    db.execute("MATCH (p:P) RETURN p.n AS n")


def test_engine_without_wal_carries_what_the_benchmark_reads():
    db = AeonG(gc_interval_transactions=0)
    _exercise(db)
    counters = engine_counters(db)  # KeyError on a missing section or key
    assert counters["records_migrated"] > 0 and counters["wal_bytes"] == 0
    assert counters["wal_records"] == 0 and counters["fsyncs"] == 0
    db.close()


def test_opened_engine_carries_what_the_benchmark_reads(tmp_path):
    db = AeonG.open(tmp_path / "db", gc_interval_transactions=0)
    _exercise(db)
    counters = engine_counters(db)
    assert counters["records_migrated"] > 0 and counters["wal_bytes"] > 0
    assert counters["wal_records"] == 4 and counters["wal_batches"] == 4
    db.close()


def test_write_path_keys_are_the_same_with_and_without_wal(tmp_path):
    plain = AeonG(gc_interval_transactions=0)
    durable = AeonG.open(tmp_path / "db", gc_interval_transactions=0)
    for section in ("write_path", "wal"):
        assert list(plain.metrics()[section]) == list(durable.metrics()[section])
    assert plain.metrics()["write_path"]["enabled"] is False
    assert durable.metrics()["write_path"]["enabled"] is True
    plain.close()
    durable.close()


def test_attached_scrubber_adds_the_integrity_section():
    db = AeonG(gc_interval_transactions=0)
    _exercise(db)
    assert "integrity" not in db.metrics()
    assert "aeong_integrity_" not in db.metrics_text()
    Scrubber(db).scrub_full()
    assert db.metrics()["integrity"]["full_passes"] == 1
    assert "aeong_integrity_full_passes 1.0" in db.metrics_text()
    db.close()
