"""Full-stack integration: a social-network session driven *entirely*
through the query language — schema build-up, evolution, time travel,
analytics pipelines, maintenance — with ground-truth assertions."""

from __future__ import annotations

import pytest

from repro import AeonG


@pytest.fixture(scope="module")
def session():
    """A lived-in database plus the timestamps of its epochs."""
    db = AeonG(anchor_interval=5, gc_interval_transactions=0)
    epochs = {}

    people = [
        ("ada", "Oslo", 1970), ("bo", "Lima", 1980), ("cy", "Oslo", 1990),
        ("dee", "Pune", 1985), ("eli", "Lima", 1975),
    ]
    for name, city, born in people:
        db.execute(
            f"CREATE (p:Person {{name: '{name}', city: '{city}', born: {born}}})"
        )
    friendships = [("ada", "bo"), ("bo", "cy"), ("cy", "dee"), ("ada", "eli")]
    for a, b in friendships:
        db.execute(
            f"MATCH (x:Person {{name:'{a}'}}), (y:Person {{name:'{b}'}}) "
            "CREATE (x)-[:KNOWS {weight: 1}]->(y)"
        )
    epochs["founded"] = db.now()

    # Posts and likes.
    for author, text in [("ada", "hello"), ("bo", "temporal graphs!"), ("ada", "bye")]:
        db.execute(
            f"MATCH (p:Person {{name:'{author}'}}) "
            f"CREATE (m:Post {{content: '{text}', author: '{author}'}}) "
            "CREATE (m)-[:HAS_CREATOR]->(p)"
        )
    epochs["posted"] = db.now()

    # Evolution: moves, un-friending, new friendship.
    db.execute("MATCH (p:Person {name:'bo'}) SET p.city = 'Oslo'")
    db.execute(
        "MATCH (:Person {name:'ada'})-[r:KNOWS]->(:Person {name:'bo'}) DELETE r"
    )
    db.execute(
        "MATCH (x:Person {name:'dee'}), (y:Person {name:'eli'}) "
        "CREATE (x)-[:KNOWS {weight: 5}]->(y)"
    )
    epochs["evolved"] = db.now()
    db.collect_garbage()
    return db, epochs


class TestCurrentReads:
    def test_city_census_with_pipeline(self, session):
        db, _ = session
        rows = db.execute(
            "MATCH (p:Person) WITH p.city AS city, count(*) AS residents "
            "RETURN city, residents ORDER BY residents DESC, city"
        )
        assert rows[0] == {"city": "Oslo", "residents": 3}

    def test_multi_hop_now(self, session):
        db, _ = session
        rows = db.execute(
            "MATCH (a:Person {name:'bo'})-[:KNOWS*1..3]-(x) "
            "RETURN DISTINCT x.name ORDER BY x.name"
        )
        names = [row["x.name"] for row in rows]
        # ada un-friended bo: within 3 hops only cy-dee-eli remain
        # (ada is now 4 hops out, via eli).
        assert names == ["cy", "dee", "eli"]
        four_hops = db.execute(
            "MATCH (a:Person {name:'bo'})-[:KNOWS*1..4]-(x) "
            "RETURN DISTINCT x.name ORDER BY x.name"
        )
        assert [row["x.name"] for row in four_hops] == ["ada", "cy", "dee", "eli"]

    def test_authored_posts(self, session):
        db, _ = session
        rows = db.execute(
            "MATCH (m:Post)-[:HAS_CREATOR]->(p:Person) "
            "WITH p.name AS author, count(*) AS posts "
            "WHERE posts > 1 RETURN author, posts"
        )
        assert rows == [{"author": "ada", "posts": 2}]


class TestTimeTravel:
    def test_city_census_as_of_founding(self, session):
        db, epochs = session
        rows = db.execute(
            f"MATCH (p:Person) TT SNAPSHOT {epochs['founded'] - 1} "
            "WITH p.city AS city, count(*) AS residents "
            "RETURN city, residents ORDER BY city"
        )
        assert {row["city"]: row["residents"] for row in rows} == {
            "Lima": 2, "Oslo": 2, "Pune": 1,
        }

    def test_friend_network_before_unfriending(self, session):
        db, epochs = session
        rows = db.execute(
            f"MATCH (a:Person {{name:'ada'}})-[r:KNOWS]->(b) "
            f"TT SNAPSHOT {epochs['posted'] - 1} "
            "RETURN b.name ORDER BY b.name"
        )
        assert [row["b.name"] for row in rows] == ["bo", "eli"]
        now_rows = db.execute(
            "MATCH (a:Person {name:'ada'})-[r:KNOWS]->(b) "
            "RETURN b.name ORDER BY b.name"
        )
        assert [row["b.name"] for row in now_rows] == ["eli"]

    def test_slice_shows_both_cities(self, session):
        db, epochs = session
        rows = db.execute(
            f"MATCH (p:Person {{name:'bo'}}) "
            f"TT BETWEEN {epochs['founded'] - 1} AND {epochs['evolved']} "
            "RETURN DISTINCT p.city ORDER BY p.city"
        )
        assert [row["p.city"] for row in rows] == ["Lima", "Oslo"]

    def test_posts_did_not_exist_at_founding(self, session):
        db, epochs = session
        rows = db.execute(
            f"MATCH (m:Post) TT SNAPSHOT {epochs['founded'] - 1} "
            "RETURN count(*) AS c"
        )
        assert rows == [{"c": 0}]


class TestMaintenanceDoesNotChangeAnswers:
    def test_index_preserves_results(self, session):
        db, epochs = session
        question = (
            f"MATCH (p:Person {{name:'bo'}}) TT SNAPSHOT {epochs['posted'] - 1} "
            "RETURN p.city"
        )
        before = db.execute(question)
        db.create_label_property_index("Person", "name")
        assert db.execute(question) == before == [{"p.city": "Lima"}]

    def test_second_gc_is_idempotent_for_queries(self, session):
        db, epochs = session
        question = (
            f"MATCH (p:Person) TT SNAPSHOT {epochs['founded'] - 1} "
            "RETURN count(*) AS c"
        )
        before = db.execute(question)
        db.collect_garbage()
        assert db.execute(question) == before

    def test_storage_report_consistent(self, session):
        db, _ = session
        report = db.storage_report()
        assert report.vertex_count == 8  # 5 people + 3 posts
        assert report.history_bytes > 0
        assert report.total_bytes == report.current_bytes + report.history_bytes

    def test_explain_runs_on_real_queries(self, session):
        db, epochs = session
        lines = db.explain_tree(
            "MATCH (a:Person {name:'ada'})-[:KNOWS*1..2]-(x) "
            f"TT SNAPSHOT {epochs['founded']} RETURN x.name"
        )
        assert any("VarExpand" in line for line in lines)
        assert lines[1] == "└─ Temporal(TT SNAPSHOT)"
