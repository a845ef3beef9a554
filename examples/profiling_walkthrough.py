"""Profiling walkthrough: EXPLAIN a plan, then PROFILE a time-slice
query cold vs warm to watch the history cache work.

The script seeds a small bi-temporal graph — accounts whose balances
churn (transaction time) and offers with explicit validity intervals
(valid time) — garbage-collects so the old balance versions migrate to
the KV history store, and then:

1. renders the operator tree of the time-slice query (``EXPLAIN``);
2. profiles the query **cold** (history cache dropped): the
   temporal scan pays history fetches, KV seeks, and backward-delta
   replays to rebuild reclaimed versions (paper Algorithm 2);
3. profiles the identical query **warm**: the history cache
   answers instead, so seeks and replays collapse to zero — the effect
   the read-path performance layer exists to produce.

The two PROFILE trees print side by side so the counter movement is
obvious at a glance.

Run with::

    python examples/profiling_walkthrough.py
"""

from repro import AeonG, GraphModel


def seed(db):
    """Accounts with churned balances + offers with valid-time intervals."""
    with db.transaction() as txn:
        accounts = [
            db.create_vertex(
                txn, ["Account"], {"owner": f"acct-{i}", "balance": 0}
            )
            for i in range(4)
        ]
        for i in range(4):
            db.create_edge(
                txn, accounts[i], accounts[(i + 1) % 4], "TRANSFER", {"amt": 0}
            )
        # Valid-time objects: offers that were true over given intervals.
        db.create_vertex(txn, ["Offer"], {"pct": 10}, valid_time=(100, 200))
        db.create_vertex(txn, ["Offer"], {"pct": 25}, valid_time=(150, 300))
    t_mid = db.now()
    for round_no in range(1, 9):  # churn: 8 more balance versions each
        with db.transaction() as txn:
            for gid in accounts:
                db.set_vertex_property(txn, gid, "balance", round_no * 100)
    reclaimed = db.collect_garbage()
    print(f"seeded 4 accounts x 9 balance versions; GC migrated "
          f"{reclaimed} undo deltas to the history store\n")
    return t_mid


def side_by_side(left_title, left_lines, right_title, right_lines):
    width = max(len(line) for line in [left_title, *left_lines])
    rows = [(left_title, right_title)]
    for i in range(max(len(left_lines), len(right_lines))):
        rows.append(
            (
                left_lines[i] if i < len(left_lines) else "",
                right_lines[i] if i < len(right_lines) else "",
            )
        )
    return "\n".join(f"{left:<{width}}  {right}" for left, right in rows)


def main():
    db = AeonG(anchor_interval=4, gc_interval_transactions=0)
    t_mid = seed(db)
    query = f"MATCH (a:Account) TT SNAPSHOT {t_mid} RETURN a.owner, a.balance"

    print("== the plan (EXPLAIN executes nothing) ==")
    for line in db.explain_tree(query):
        print(line)

    print("\n== PROFILE: cold vs warm ==")
    db.history.invalidate_caches()          # drop the history cache
    cold = db.profile(query)
    warm = db.profile(query)                # identical query, warm cache
    assert cold.rows == warm.rows           # same answers either way
    print(side_by_side("-- cold (caches dropped)", cold.tree(),
                       "-- warm (second run)", warm.tree()))

    print("\n== totals ==")
    keys = ("reclaimed_hits", "history_fetches", "kv_seeks",
            "deltas_replayed", "cache_hits", "cache_misses")
    header = f"{'counter':<18}{'cold':>8}{'warm':>8}"
    print(header)
    for key in keys:
        print(f"{key:<18}{cold.totals[key]:>8}{warm.totals[key]:>8}")

    # The claims this example exists to demonstrate:
    assert cold.totals["reclaimed_hits"] > 0      # history was really read
    assert cold.totals["kv_seeks"] > 0
    assert cold.totals["deltas_replayed"] > 0
    assert warm.totals["cache_hits"] > 0          # the cache answered
    assert warm.totals["kv_seeks"] == 0           # ...so no KV work
    assert warm.totals["deltas_replayed"] == 0

    print("\nwarm run: the history cache replaces "
          f"{cold.totals['kv_seeks']} KV seeks and "
          f"{cold.totals['deltas_replayed']} delta replays with "
          f"{warm.totals['cache_hits']} cache hits.")

    # Valid-time queries profile the same way.
    vt = db.profile("MATCH (o:Offer) WHERE o.VT CONTAINS 175 RETURN o.pct")
    assert sorted(row["o.pct"] for row in vt.rows) == [10, 25]
    print("\nbi-temporal check: both offers valid at VT=175 found "
          "(see docs/OBSERVABILITY.md for reading the full profile).")
    db.close()


if __name__ == "__main__":
    main()
