"""Shared fixtures and reporting helpers for the benchmark suite.

Every module regenerates one table or figure of the paper at reduced
scale (see DESIGN.md section 4 for the experiment index).  Each bench

- loads the workload into the systems under comparison,
- measures what the paper measures (storage bytes or query latency),
- *asserts the paper's qualitative shape* (who wins, growth trends),
- and writes a human-readable artifact into ``benchmarks/results/``.

Scale factors are chosen so the full suite runs in a few minutes of
pure Python; absolute numbers are not comparable to the paper's C++
testbed, shapes are.
"""

from __future__ import annotations

import gc
from pathlib import Path

import pytest

from repro.workloads import bildbc, ldbc

RESULTS_DIR = Path(__file__).parent / "results"

#: Bi-LDBC base unit: the paper's 1M operations scale down to this.
BASE_OPS = 1200

#: Clock-G's snapshot cadence scales with the stream like the paper's
#: N=250k does against 1M-op streams (one snapshot per quarter unit).
CLOCKG_SNAPSHOT_INTERVAL = BASE_OPS // 4


def write_report(name: str, lines: list[str]) -> str:
    """Persist one experiment's table; returns the rendered text."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = "\n".join(lines) + "\n"
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    return text


@pytest.fixture(scope="session")
def ldbc_dataset():
    """The LDBC-like base graph shared by the Figure 5 benches."""
    return ldbc.generate(persons=40, seed=42)


@pytest.fixture(scope="session")
def bildbc_streams(ldbc_dataset):
    """Bi-LDBC op streams at 1x..4x the base unit (paper: 1M..4M)."""
    streams = {}
    for factor in (1, 2, 3, 4):
        streams[factor] = bildbc.generate_operations(
            ldbc_dataset, BASE_OPS * factor, seed=100 + factor
        )
    return streams


def backend_factories():
    """The three compared systems with paper-equivalent settings."""
    from repro.baselines import AeonGBackend, ClockGBackend, TGQLBackend

    return {
        "aeong": lambda: AeonGBackend(
            anchor_interval=10, gc_interval_transactions=400
        ),
        "tgql": lambda: TGQLBackend(),
        "clockg": lambda: ClockGBackend(
            snapshot_interval=CLOCKG_SNAPSHOT_INTERVAL
        ),
    }


@pytest.fixture(scope="session")
def loaded(ldbc_dataset, bildbc_streams):
    """Memoized (system, stream-factor) -> loaded driver.

    The Figure 5 benches share these loads; loading dominates bench
    wall-clock otherwise.
    """
    factories = backend_factories()
    cache: dict[tuple[str, int], object] = {}

    def get(name: str, factor: int):
        key = (name, factor)
        if key not in cache:
            cache[key] = load_backend(
                factories[name], ldbc_dataset, bildbc_streams[factor]
            )
        return cache[key]

    return get


def load_backend(factory, dataset, stream, seed=7):
    """Build, load and flush one backend; returns its driver."""
    from repro.workloads.driver import WorkloadDriver

    backend = factory()
    driver = WorkloadDriver(backend, seed=seed)
    driver.apply(dataset.ops)
    if stream is not None:
        driver.apply(stream.ops)
    driver.finish_load()
    # As aeonbench does after warm-up: what the load allocated is not
    # rescanned by the cyclic collector.  A gen-2 collection over these
    # heaps takes 50-650 ms, and one landing in a 20-sample timed window
    # used to inflate a single figure cell 10-50x.
    gc.collect()
    gc.freeze()
    return driver
