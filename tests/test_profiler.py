"""Query profiler tests: EXPLAIN trees, PROFILE attribution, and the
reconciliation guarantee.

The load-bearing property: a statement's PROFILE ``Total`` row must
equal the delta that same statement causes in ``metrics()`` — the
profiler samples the very counters the metrics report, so any
double-count or missed site shows up as a mismatch here.
"""

from __future__ import annotations

import pytest

from repro import AeonG
from repro.errors import ExecutionError

COUNTER_KEYS = (
    "current_hits",
    "reclaimed_hits",
    "history_fetches",
    "cache_hits",
    "cache_misses",
    "anchor_seeks",
    "deltas_replayed",
    "payload_decodes",
    "kv_seeks",
    "kv_range_scans",
    "kv_gets",
)


def seed_reclaimed_history(db, versions=6):
    """One vertex with a balance history fully migrated to the KV store."""
    with db.transaction() as txn:
        gid = db.create_vertex(txn, ["Person"], {"name": "Alice", "balance": 0})
    t_mid = db.now()
    for value in range(1, versions):
        with db.transaction() as txn:
            db.set_vertex_property(txn, gid, "balance", value * 10)
    db.collect_garbage()
    assert db.storage.vertex_record(gid).delta_head is None
    return gid, t_mid


def metrics_counters(db):
    """The profiler's eleven counters, read straight from ``metrics()``."""
    m = db.metrics()
    kv = m["history_kv"]
    rp = m["read_path"]
    return {
        "current_hits": m["operators"]["current_hits"],
        "reclaimed_hits": rp["versions_served"],
        "history_fetches": rp["fetches"],
        "cache_hits": rp["cache_hits"],
        "cache_misses": rp["cache_misses"],
        "anchor_seeks": rp["anchor_seeks"],
        "deltas_replayed": rp["deltas_replayed"],
        "payload_decodes": rp["checksums_verified"] + rp["legacy_records"],
        "kv_seeks": kv["seeks"],
        "kv_range_scans": kv["range_scans"],
        "kv_gets": kv["gets"],
    }


class TestProfileReconciliation:
    def test_totals_match_metrics_deltas_over_reclaimed_history(self, db):
        _, t_mid = seed_reclaimed_history(db)
        db.history.invalidate_caches()

        before = metrics_counters(db)
        profile = db.profile(
            f"MATCH (p:Person) TT SNAPSHOT {t_mid} RETURN p.balance"
        )
        after = metrics_counters(db)

        deltas = {key: after[key] - before[key] for key in COUNTER_KEYS}
        assert profile.totals == deltas
        # A scan over reclaimed history must actually touch it.
        assert profile.totals["reclaimed_hits"] > 0
        assert profile.totals["kv_seeks"] > 0
        assert profile.totals["deltas_replayed"] > 0
        # the point read decoded one segment: its anchor and the records
        # it replayed, nothing else
        assert profile.totals["anchor_seeks"] == 1
        assert profile.totals["payload_decodes"] == profile.totals["deltas_replayed"] + 1

    def test_totals_match_metrics_deltas_warm_cache(self, db):
        _, t_mid = seed_reclaimed_history(db)
        query = f"MATCH (p:Person) TT SNAPSHOT {t_mid} RETURN p.balance"
        db.profile(query)  # warm the reconstruction cache

        before = metrics_counters(db)
        profile = db.profile(query)
        after = metrics_counters(db)

        assert profile.totals == {
            key: after[key] - before[key] for key in COUNTER_KEYS
        }
        assert profile.totals["cache_hits"] > 0
        assert profile.totals["kv_seeks"] == 0
        assert profile.totals["payload_decodes"] == 0  # decoded once, in place

    def test_per_operator_self_counters_sum_to_totals(self, db):
        _, t_mid = seed_reclaimed_history(db)
        profile = db.profile(
            f"MATCH (p:Person) TT SNAPSHOT {t_mid} RETURN p.name, p.balance"
        )
        for key in COUNTER_KEYS:
            assert (
                sum(op.counters[key] for op in profile.operators)
                == profile.totals[key]
            ), key

    def test_per_operator_self_time_sums_to_duration(self, db):
        seed_reclaimed_history(db)
        profile = db.profile("MATCH (p:Person) RETURN p.name")
        assert sum(op.time for op in profile.operators) == pytest.approx(
            profile.duration
        )

    def test_profile_table_total_row(self, db):
        seed_reclaimed_history(db)
        rows = db.execute("PROFILE MATCH (p:Person) RETURN p.name")
        assert rows[0]["operator"].startswith("Produce(")
        assert rows[-1]["operator"] == "Total"
        for key in COUNTER_KEYS:
            assert rows[-1][key] == sum(row[key] for row in rows[:-1])

    def test_profile_returns_query_rows(self, db):
        seed_reclaimed_history(db)
        profile = db.profile("MATCH (p:Person) RETURN p.name")
        assert profile.rows == [{"p.name": "Alice"}]

    def test_profile_write_statement(self, db):
        profile = db.profile("CREATE (n:City {name: 'Oslo'})")
        assert profile.rows == []
        assert profile.table()[0]["operator"] == "EmptyResult"
        assert db.execute("MATCH (n:City) RETURN n.name") == [
            {"n.name": "Oslo"}
        ]

    def test_profile_records_statement_metrics(self, db):
        seed_reclaimed_history(db)
        before = db.metrics()["observability"]["statements"]
        db.execute("PROFILE MATCH (p:Person) RETURN p.name")
        assert db.metrics()["observability"]["statements"] == before + 1


class TestExplain:
    def test_explain_is_side_effect_free(self, db):
        _, t_mid = seed_reclaimed_history(db)
        db.history.invalidate_caches()
        before = metrics_counters(db)
        ts_before = db.metrics()["transactions"]["next_timestamp"]

        rows = db.execute(
            f"EXPLAIN MATCH (p:Person) TT SNAPSHOT {t_mid} RETURN p.balance"
        )
        assert rows and all(set(row) == {"plan"} for row in rows)
        assert metrics_counters(db) == before
        # EXPLAIN never begins a transaction, so the oracle never moves.
        assert db.metrics()["transactions"]["next_timestamp"] == ts_before

    def test_explain_create_creates_nothing(self, db):
        db.execute("EXPLAIN CREATE (n:City {name: 'Oslo'})")
        assert db.execute("MATCH (n:City) RETURN n") == []

    def test_explain_tree_shapes(self, db):
        assert db.explain_tree("MATCH (p:Person) RETURN p.name") == [
            "Produce(p.name)",
            "└─ NodeScan(p:Person)",
            "   └─ Once",
        ]
        assert db.explain_tree(
            "MATCH (p:Person) TT SNAPSHOT 1 RETURN p.balance"
        ) == [
            "Produce(p.balance)",
            "└─ Temporal(TT SNAPSHOT)",
            "   └─ NodeScan(p:Person)",
            "      └─ Once",
        ]
        assert db.explain_tree("CREATE (n:City)") == [
            "EmptyResult",
            "└─ CreateNode(n:City)",
            "   └─ Once",
        ]

    def test_explain_tree_runs_from_produce_to_once(self, db):
        lines = db.explain_tree("MATCH (p:Person) TT SNAPSHOT 1 RETURN p")
        assert lines[-1].endswith("└─ Once")
        assert "└─ Temporal(TT SNAPSHOT)" in lines
        assert lines[0].startswith("Produce(")

    def test_prefix_requires_statement(self, db):
        with pytest.raises(ExecutionError):
            db.execute("EXPLAIN")
        with pytest.raises(ExecutionError):
            db.execute("PROFILE   ")

    def test_prefix_is_case_insensitive(self, db):
        with db.transaction() as txn:
            db.create_vertex(txn, ["Person"], {"name": "Ada"})
        rows = db.execute("explain MATCH (p:Person) RETURN p.name")
        assert rows[0]["plan"] == "Produce(p.name)"
        rows = db.execute("profile MATCH (p:Person) RETURN p.name")
        assert rows[-1]["operator"] == "Total"


class TestProfileDisabledObservability:
    def test_profile_works_with_observability_disabled(self):
        from repro import ObservabilityConfig

        db = AeonG(
            gc_interval_transactions=0,
            observability=ObservabilityConfig(enabled=False),
        )
        try:
            with db.transaction() as txn:
                db.create_vertex(txn, ["Person"], {"name": "Ada"})
            profile = db.profile("MATCH (p:Person) RETURN p.name")
            assert profile.rows == [{"p.name": "Ada"}]
            assert db.observability.tracer.spans() == []
        finally:
            db.close()
