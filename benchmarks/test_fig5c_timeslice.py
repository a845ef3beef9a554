"""Figure 5(c) — time-slice query latency per IS query type.

Same setup as Figure 5(b) with ``TT BETWEEN`` conditions (slices
covering 10% of the time span).  Asserted shapes: AeonG beats Clock-G
on every query type (paper: 4.9x on average), and AeonG's slice
queries are somewhat slower than its point queries (the paper's
observation: "time-slice queries involve more historical data and we
need to reconstruct a bigger set of graph objects").
"""

from __future__ import annotations

import time

from repro.workloads.queries import IS_QUERIES, run_query
from benchmarks.conftest import write_report

FACTOR = 2
REPS = {"aeong": 20, "tgql": 20, "clockg": 6}
SLICE_WIDTH = 0.1


def _targets(dataset, kind):
    return dataset.person_ids if kind == "person" else dataset.message_ids


def _point_and_slice_us(driver, dataset, name, kind, reps):
    """Mean latency of one IS query at an instant and over the slice
    that starts there, for the same targets and instants.  Drawing both
    sides independently compares old-instant points against recent
    slices, or the reverse, and the ratio of two 20-sample means then
    swings with the draw.  An untimed pass first leaves the caches warm
    for both sides, so neither profits from the other."""
    backend = driver.backend
    draws = []
    for _ in range(reps):
        target = driver.rng.choice(_targets(dataset, kind))
        e1, e2 = driver.uniform_slice(SLICE_WIDTH)
        t1, t2 = sorted((backend.to_query_time(e1), backend.to_query_time(e2)))
        draws.append((target, t1, t2))
    for target, t1, t2 in draws:
        run_query(name, backend, target, t1)
        run_query(name, backend, target, t1, t2)
    point = slice_ = 0.0
    for target, t1, t2 in draws:
        began = time.perf_counter()
        run_query(name, backend, target, t1)
        middle = time.perf_counter()
        run_query(name, backend, target, t1, t2)
        point += middle - began
        slice_ += time.perf_counter() - middle
    return point / reps * 1e6, slice_ / reps * 1e6


def test_fig5c_timeslice_latency(benchmark, ldbc_dataset, loaded):
    results: dict[str, dict[str, float]] = {}
    point_vs_slice = {}

    def run():
        for system in ("aeong", "tgql", "clockg"):
            driver = loaded(system, FACTOR)
            per_query = {}
            for name, (_func, kind) in IS_QUERIES.items():
                targets = _targets(ldbc_dataset, kind)
                driver.run_is_queries(name, targets, 2, time_slice=True)
                run = driver.run_is_queries(
                    name, targets, REPS[system], time_slice=True,
                    slice_width=SLICE_WIDTH,
                )
                per_query[name] = run.latency.mean_us
            results[system] = per_query
        # Point-vs-slice comparison on AeonG (same targets and instants).
        driver = loaded("aeong", FACTOR)
        for name, (_func, kind) in IS_QUERIES.items():
            point_vs_slice[name] = _point_and_slice_us(
                driver, ldbc_dataset, name, kind, REPS["aeong"]
            )
        return results

    benchmark.pedantic(run, rounds=1, iterations=1)

    names = list(IS_QUERIES)
    lines = ["Figure 5(c): time-slice query latency (mean us)"]
    lines.append(f"{'system':<8}" + "".join(name.rjust(12) for name in names))
    for system, per_query in results.items():
        lines.append(
            f"{system:<8}"
            + "".join(f"{per_query[name]:>12,.0f}" for name in names)
        )
    speedup = sum(results["clockg"][n] for n in names) / max(
        1.0, sum(results["aeong"][n] for n in names)
    )
    lines.append(f"AeonG vs Clock-G mean speedup: {speedup:.1f}x (paper: 4.9x)")
    point_total = sum(point_vs_slice[n][0] for n in names)
    slice_total = sum(point_vs_slice[n][1] for n in names)
    lines.append(
        f"AeonG slice/point latency ratio: {slice_total / point_total:.2f} "
        "(same targets and instants; paper: slightly above 1)"
    )
    print("\n" + write_report("fig5c_timeslice", lines))

    for name in names:
        assert results["aeong"][name] < results["clockg"][name], name
    assert speedup > 2.0
    # Slices do at least as much work as points overall.
    assert slice_total > point_total * 0.8
    benchmark.extra_info["latency_us"] = results
