"""Observability layer tests: registry, histograms, tracer, spans
through the engine, slow-query log, exporters, and closed-engine
safety."""

from __future__ import annotations

import json
import threading

import pytest

from repro import AeonG, Observability, ObservabilityConfig
from repro.errors import ReproError
from repro.faults import FAILPOINTS
from repro.observability import (
    Histogram,
    MetricsRegistry,
    NULL_SPAN,
    SlowQueryLog,
    Tracer,
)


class FakeClock:
    """A deterministic clock: each read advances by ``step``."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestHistogram:
    def test_exact_count_sum_min_max(self):
        h = Histogram("h", reservoir=4)
        for value in (5.0, 1.0, 3.0, 9.0, 7.0):
            h.observe(value)
        assert h.count == 5
        assert h.total == 25.0
        assert h.min == 1.0 and h.max == 9.0

    def test_reservoir_keeps_last_n(self):
        h = Histogram("h", reservoir=3)
        for value in (100.0, 1.0, 2.0, 3.0):
            h.observe(value)
        # 100.0 rotated out of the window; min/max stay exact.
        assert h.quantile(1.0) == 3.0
        assert h.max == 100.0

    def test_quantiles_deterministic(self):
        h = Histogram("h", reservoir=100)
        for value in range(100):
            h.observe(float(value))
        assert h.quantile(0.0) == 0.0
        assert h.quantile(0.5) == 50.0
        assert h.quantile(0.99) == 99.0
        summary = h.summary()
        assert summary["count"] == 100 and summary["p50"] == 50.0

    def test_empty_summary(self):
        summary = Histogram("h").summary()
        assert summary["count"] == 0 and summary["p50"] is None


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2)
        assert registry.counter("c").value == 3
        assert registry.histogram("h") is registry.histogram("h")

    def test_gauge_function_backed(self):
        registry = MetricsRegistry()
        registry.gauge("g", fn=lambda: 42.0)
        assert registry.as_dict()["gauges"]["g"] == 42.0

    def test_providers_merge_into_exports(self):
        registry = MetricsRegistry()
        registry.register_provider(lambda: {"alpha": {"x": 1}})
        registry.register_provider(lambda: {"beta": {"ok": True, "skip": "str"}})
        sections = registry.sections()
        assert sections["alpha"] == {"x": 1}
        text = registry.prometheus_text()
        assert "aeong_alpha_x 1.0" in text
        assert "aeong_beta_ok 1.0" in text          # bool -> 0/1
        assert "skip" not in text                   # strings are not series

    def test_prometheus_text_shape(self):
        registry = MetricsRegistry()
        registry.counter("statements").inc(3)
        registry.histogram("lat").observe(1.0)
        registry.histogram("lat").observe(3.0)
        text = registry.prometheus_text()
        assert "# TYPE aeong_statements counter" in text
        assert "aeong_statements 3" in text
        assert "aeong_lat_count 2" in text
        assert "aeong_lat_sum 4.0" in text
        assert 'aeong_lat{quantile="0.5"}' in text
        assert text.endswith("\n")

    def test_as_dict_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(0.5)
        registry.register_provider(lambda: {"s": {"n": 1}})
        json.dumps(registry.as_dict())  # must not raise


class TestTracer:
    def test_nesting_and_parentage(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            assert tracer.depth() == 1
            with tracer.span("inner"):
                assert tracer.depth() == 2
        assert tracer.depth() == 0
        inner, outer = tracer.spans("inner")[0], tracer.spans("outer")[0]
        assert inner.parent == "outer" and inner.depth == 1
        assert outer.parent is None and outer.depth == 0
        assert inner.duration == 1.0  # FakeClock: one tick inside

    def test_exception_path_records_and_unwinds(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.depth() == 0
        record = tracer.spans("boom")[0]
        assert record.error is True

    def test_disabled_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b") is NULL_SPAN
        with tracer.span("a"):
            pass
        assert tracer.spans() == [] and tracer.spans_recorded == 0

    def test_ring_is_bounded_but_counter_is_not(self):
        tracer = Tracer(clock=FakeClock(), max_spans=4)
        for _ in range(10):
            with tracer.span("s"):
                pass
        assert len(tracer.spans()) == 4
        assert tracer.spans_recorded == 10

    def test_spans_feed_registry_histograms(self):
        registry = MetricsRegistry()
        tracer = Tracer(clock=FakeClock(), registry=registry)
        with tracer.span("kv.flush"):
            pass
        assert registry.counter("spans").value == 1
        assert registry.histogram("span.kv.flush.seconds").count == 1


class TestSlowQueryLog:
    def test_threshold_and_rotation(self):
        log = SlowQueryLog(threshold=0.5, capacity=2)
        assert not log.record("fast", 0.1, rows=0)
        assert log.record("slow-1", 0.9, rows=1)
        assert log.record("slow-2", 0.8, rows=2)
        assert log.record("slow-3", 0.7, rows=3)
        assert len(log) == 2
        assert [entry.statement for entry in log.entries] == ["slow-2", "slow-3"]

    def test_statement_records_slow_queries(self):
        obs = Observability(ObservabilityConfig(slow_query_threshold=0.0))
        obs.record_statement("MATCH (n) RETURN n", 0.01, rows=5)
        assert len(obs.slow_queries) == 1
        assert obs.registry.counter("slow_queries").value == 1


class TestEngineSpans:
    def test_engine_span_taxonomy(self, db):
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["P"], {"v": 0})
        for value in range(1, 6):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "v", value)
        db.collect_garbage()
        db.history.invalidate_caches()
        db.execute("MATCH (p:P) TT SNAPSHOT 2 RETURN p.v")

        tracer = db.observability.tracer
        names = {record.name for record in tracer.spans()}
        assert {"engine.commit", "gc.migrate", "history.fetch",
                "history.reconstruct", "query.statement"} <= names
        # history.fetch nests under the statement that triggered it.
        fetch = tracer.spans("history.fetch")[-1]
        assert fetch.parent == "query.statement" and fetch.depth == 1
        assert tracer.depth() == 0

    def test_span_nesting_under_concurrent_transactions(self, db):
        errors = []

        def worker(tag):
            try:
                for i in range(20):
                    with db.transaction() as txn:
                        db.create_vertex(txn, ["W"], {"tag": tag, "i": i})
                    db.execute("MATCH (w:W) RETURN count(w)")
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        tracer = db.observability.tracer
        assert tracer.depth() == 0
        for record in tracer.spans():
            assert record.depth >= 0
            # A nested span's parent was opened on the same thread.
            if record.depth > 0:
                assert record.parent is not None

    def test_span_nesting_survives_injected_fetch_fault(self, db):
        with db.transaction() as txn:
            gid = db.create_vertex(txn, ["P"], {"v": 0})
        for value in range(1, 6):
            with db.transaction() as txn:
                db.set_vertex_property(txn, gid, "v", value)
        db.collect_garbage()
        db.history.invalidate_caches()

        tracer = db.observability.tracer
        with FAILPOINTS.active("history.fetch", "error"):
            with pytest.raises(ReproError):
                db.execute("MATCH (p:P) TT SNAPSHOT 2 RETURN p.v")
        assert tracer.depth() == 0          # stack fully unwound
        failed = [r for r in tracer.spans("history.fetch") if r.error]
        assert failed                        # the failing span was recorded
        db.history.invalidate_caches()
        rows = db.execute("MATCH (p:P) TT SNAPSHOT 2 RETURN p.v")
        assert rows == [{"p.v": 0}]


class TestEngineMetricsSurface:
    def test_metrics_safe_on_closed_engine(self, db):
        with db.transaction() as txn:
            db.create_vertex(txn, ["P"], {})
        db.close()
        snapshot = db.metrics()
        assert snapshot["observability"]["spans_recorded"] >= 1
        assert db.metrics_text().startswith("# TYPE")

    def test_metrics_safe_on_closed_durable_engine(self, tmp_path):
        db = AeonG.open(str(tmp_path / "data"))
        with db.transaction() as txn:
            db.create_vertex(txn, ["P"], {})
        db.close()
        snapshot = db.metrics()
        assert "wal" in snapshot
        db.metrics_text()

    def test_statement_accounting(self, db):
        with db.transaction() as txn:
            db.create_vertex(txn, ["P"], {})
        before = db.metrics()["observability"]["statements"]
        db.execute("MATCH (p:P) RETURN p")
        after = db.metrics()["observability"]["statements"]
        assert after == before + 1

    def test_disabled_engine_records_nothing(self):
        db = AeonG(
            gc_interval_transactions=0,
            observability=ObservabilityConfig(enabled=False),
        )
        try:
            with db.transaction() as txn:
                db.create_vertex(txn, ["P"], {})
            db.execute("MATCH (p:P) RETURN p")
            db.collect_garbage()
            obs = db.observability
            assert obs.tracer.spans_recorded == 0
            assert obs.registry.counter("statements").value == 0
            # metrics()/exports still work with tracing off.
            assert db.metrics()["observability"]["enabled"] is False
            assert "aeong_" in db.metrics_text()
        finally:
            db.close()

    def test_registry_merges_engine_sections(self, db):
        with db.transaction() as txn:
            db.create_vertex(txn, ["P"], {})
        sections = db.observability.registry.sections()
        assert "read_path" in sections and "operators" in sections
        text = db.metrics_text()
        assert "aeong_operators_current_hits" in text
        assert "aeong_span_engine_commit_seconds_count" in text

    def test_cli_metrics_subcommand(self, db, tmp_path, capsys):
        from repro.cli import main

        with db.transaction() as txn:
            db.create_vertex(txn, ["P"], {})
        db.save(str(tmp_path / "snap"))
        assert main(["metrics", str(tmp_path / "snap")]) == 0
        out = capsys.readouterr().out
        assert "aeong_current_store_vertices 1.0" in out
        assert "aeong_backup_backups_completed" in out
        assert "aeong_restore_restores_completed" in out
        assert main(["metrics", str(tmp_path / "snap"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sections"]["current_store"]["vertices"] == 1
        assert "backups_completed" in payload["sections"]["backup"]
        assert main(["metrics", str(tmp_path / "missing")]) == 2
