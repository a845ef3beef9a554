"""Figure 5(b) — time-point query latency per IS query type.

The paper runs IS1/IS3/IS4/IS5/IS7 with ``TT SNAPSHOT`` conditions at
instants drawn uniformly over the dataset's time span, on the 2M-op
Bi-LDBC dataset (here: the 2x stream), and reports mean latency per
system.  Asserted shape: AeonG beats Clock-G on every query type
(paper: 5.7x on average); T-GQL's relative standing depends on total
graph size and is reported (see EXPERIMENTS.md for the discussion and
Figure 5(d) for the growth trend that drives the paper's 12.3x).

For AeonG it also records, per query, the temporal Expand's candidate
edges and produced pairs and the ``history.fetch`` spans (one per
history batch) per timed query: candidates close to pairs means the
expand cost is per pair, not spent on rejected edges.
"""

from __future__ import annotations

from repro.workloads.queries import IS_QUERIES
from benchmarks.conftest import write_report

FACTOR = 2
REPS = {"aeong": 20, "tgql": 20, "clockg": 6}


def _targets(dataset, kind):
    return dataset.person_ids if kind == "person" else dataset.message_ids


def _read_counts(driver) -> dict[str, int]:
    """AeonG's expand counters and ``history.fetch`` span count so far."""
    engine = driver.backend.engine
    stats = engine.operators.stats
    spans = engine.observability.registry.histogram("span.history.fetch.seconds")
    return {
        "expand_candidates": stats.expand_candidates,
        "expand_pairs": stats.expand_pairs,
        "history_fetch_spans": spans.count,
    }


def test_fig5b_timepoint_latency(benchmark, ldbc_dataset, loaded):
    results: dict[str, dict[str, float]] = {}
    counts: dict[str, dict[str, float]] = {}

    def run():
        for system in ("aeong", "tgql", "clockg"):
            driver = loaded(system, FACTOR)
            per_query = {}
            for name, (_func, kind) in IS_QUERIES.items():
                targets = _targets(ldbc_dataset, kind)
                driver.run_is_queries(name, targets, 2)  # warm caches
                before = _read_counts(driver) if system == "aeong" else None
                run = driver.run_is_queries(name, targets, REPS[system])
                per_query[name] = run.latency.mean_us
                if before is not None:
                    after = _read_counts(driver)
                    counts[name] = {
                        key: (after[key] - before[key]) / REPS[system]
                        for key in after
                    }
            results[system] = per_query
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    names = list(IS_QUERIES)
    lines = ["Figure 5(b): time-point query latency (mean us)"]
    lines.append(f"{'system':<8}" + "".join(name.rjust(12) for name in names))
    for system, per_query in results.items():
        lines.append(
            f"{system:<8}"
            + "".join(f"{per_query[name]:>12,.0f}" for name in names)
        )
    speedup = sum(results["clockg"][n] for n in names) / max(
        1.0, sum(results["aeong"][n] for n in names)
    )
    lines.append(f"AeonG vs Clock-G mean speedup: {speedup:.1f}x (paper: 5.7x)")
    lines.append("AeonG per query: expand candidates / pairs, history.fetch spans")
    for key in ("expand_candidates", "expand_pairs", "history_fetch_spans"):
        lines.append(
            f"{key:<20}" + "".join(f"{counts[name][key]:>12.2f}" for name in names)
        )
    print("\n" + write_report("fig5b_timepoint", lines))

    for name in names:
        assert results["aeong"][name] < results["clockg"][name], name
    assert speedup > 2.0
    benchmark.extra_info["latency_us"] = results
    benchmark.extra_info["aeong_reads_per_query"] = counts
