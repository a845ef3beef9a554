"""Engine persistence tests: save/open round trips, temporal history
surviving restarts, clock/gid continuity, failure cases."""

from __future__ import annotations

import pytest

from repro import AeonG, TemporalCondition
from repro.errors import StorageError


def _build_sample(db: AeonG) -> dict:
    with db.transaction() as txn:
        jack = db.create_vertex(txn, ["Person"], {"name": "Jack", "age": 30})
        card = db.create_vertex(txn, ["Card"], {"balance": 270})
        owns = db.create_edge(txn, jack, card, "OWNS", {"since": 2020})
    t_old = db.now()
    for balance in (250, 230, 210):
        with db.transaction() as txn:
            db.set_vertex_property(txn, card, "balance", balance)
    with db.transaction() as txn:
        gone = db.create_vertex(txn, ["Person"], {"name": "Ghost"})
    with db.transaction() as txn:
        db.delete_vertex(txn, gone)
    return {"jack": jack, "card": card, "owns": owns, "t_old": t_old}


class TestSaveLoad:
    def test_roundtrip_current_state(self, tmp_path):
        db = AeonG(gc_interval_transactions=0)
        ids = _build_sample(db)
        db.save(tmp_path / "snap")
        loaded = AeonG.open(tmp_path / "snap")
        with loaded.transaction() as txn:
            card = loaded.get_vertex(txn, ids["card"])
            assert card.properties["balance"] == 210
            jack = loaded.get_vertex(txn, ids["jack"])
            assert jack.properties["name"] == "Jack"
            assert [r.edge_gid for r in jack.out_edges] == [ids["owns"]]
            edge = loaded.get_edge(txn, ids["owns"])
            assert edge.edge_type == "OWNS"

    def test_roundtrip_temporal_history(self, tmp_path):
        db = AeonG(anchor_interval=2, gc_interval_transactions=0)
        ids = _build_sample(db)
        db.save(tmp_path / "snap")  # save() flushes history via GC
        loaded = AeonG.open(tmp_path / "snap")
        with loaded.transaction() as txn:
            old = next(
                loaded.vertex_versions(
                    txn, ids["card"], TemporalCondition.as_of(ids["t_old"] - 1)
                )
            )
            assert old.properties["balance"] == 270
            versions = list(
                loaded.vertex_versions(
                    txn, ids["card"], TemporalCondition.between(0, loaded.now())
                )
            )
            assert [v.properties["balance"] for v in versions] == [
                210, 230, 250, 270,
            ]

    def test_deleted_vertices_stay_deleted_but_queryable(self, tmp_path):
        db = AeonG(gc_interval_transactions=0)
        _build_sample(db)
        db.save(tmp_path / "snap")
        loaded = AeonG.open(tmp_path / "snap")
        rows = loaded.execute("MATCH (n:Person) RETURN n.name ORDER BY n.name")
        assert rows == [{"n.name": "Jack"}]
        rows = loaded.execute(
            f"MATCH (n:Person) TT BETWEEN 0 AND {loaded.now()} "
            "RETURN DISTINCT n.name ORDER BY n.name"
        )
        assert rows == [{"n.name": "Ghost"}, {"n.name": "Jack"}]

    def test_clock_and_gid_continuity(self, tmp_path):
        db = AeonG(gc_interval_transactions=0)
        ids = _build_sample(db)
        before = db.now()
        db.save(tmp_path / "snap")
        loaded = AeonG.open(tmp_path / "snap")
        assert loaded.now() >= before
        with loaded.transaction() as txn:
            new_gid = loaded.create_vertex(txn, ["Person"], {"name": "New"})
        assert new_gid > ids["owns"]  # gids never recycled across restart
        # New history continues on the same timeline.
        t_mid = loaded.now()
        with loaded.transaction() as txn:
            loaded.set_vertex_property(txn, new_gid, "name", "Renamed")
        with loaded.transaction() as txn:
            old = next(
                loaded.vertex_versions(
                    txn, new_gid, TemporalCondition.as_of(t_mid - 1)
                )
            )
            assert old.properties["name"] == "New"

    def test_updates_after_load_layer_on_saved_history(self, tmp_path):
        db = AeonG(anchor_interval=3, gc_interval_transactions=0)
        ids = _build_sample(db)
        db.save(tmp_path / "snap")
        loaded = AeonG.open(tmp_path / "snap")
        with loaded.transaction() as txn:
            loaded.set_vertex_property(txn, ids["card"], "balance", 100)
        loaded.collect_garbage()
        with loaded.transaction() as txn:
            versions = list(
                loaded.vertex_versions(
                    txn, ids["card"], TemporalCondition.between(0, loaded.now())
                )
            )
        assert [v.properties["balance"] for v in versions] == [
            100, 210, 230, 250, 270,
        ]

    def test_save_refuses_active_transactions(self, tmp_path):
        db = AeonG(gc_interval_transactions=0)
        _build_sample(db)
        txn = db.begin()
        with pytest.raises(StorageError):
            db.save(tmp_path / "snap")
        db.abort(txn)

    def test_save_refuses_a_live_engines_log(self, tmp_path):
        live = AeonG.open(tmp_path / "data", gc_interval_transactions=0)
        _build_sample(live)
        other = AeonG(gc_interval_transactions=0)
        with pytest.raises(StorageError, match="checkpoint"):
            other.save(tmp_path / "data")
        live.checkpoint()  # an empty log no longer belongs to anyone
        other.save(tmp_path / "data")
        live.close()

    def test_config_overrides_on_load(self, tmp_path):
        db = AeonG(anchor_interval=7, gc_interval_transactions=0)
        _build_sample(db)
        db.save(tmp_path / "snap")
        loaded = AeonG.open(tmp_path / "snap")
        assert loaded.anchor_interval == 7  # persisted default
        loaded.close()
        overridden = AeonG.open(tmp_path / "snap", anchor_interval=3)
        assert overridden.anchor_interval == 3

    def test_double_save_load_cycle(self, tmp_path):
        db = AeonG(gc_interval_transactions=0)
        ids = _build_sample(db)
        db.save(tmp_path / "a")
        first = AeonG.open(tmp_path / "a")
        with first.transaction() as txn:
            first.set_vertex_property(txn, ids["card"], "balance", 50)
        first.save(tmp_path / "b")
        second = AeonG.open(tmp_path / "b")
        with second.transaction() as txn:
            versions = list(
                second.vertex_versions(
                    txn, ids["card"], TemporalCondition.between(0, second.now())
                )
            )
        assert [v.properties["balance"] for v in versions] == [
            50, 210, 230, 250, 270,
        ]
