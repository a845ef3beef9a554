"""Shared fixtures for the test suite."""

from __future__ import annotations

from typing import Iterator

import pytest

from repro import AeonG
from repro.baselines import AeonGBackend, ClockGBackend, TGQLBackend
from repro.workloads import bildbc, ldbc
from repro.workloads.driver import WorkloadDriver


@pytest.fixture
def db() -> Iterator[AeonG]:
    """A temporal engine with manual garbage collection, closed after
    the test (with any background task the test started)."""
    engine = AeonG(anchor_interval=4, gc_interval_transactions=0)
    yield engine
    engine.close()


@pytest.fixture
def db_no_temporal() -> Iterator[AeonG]:
    """The vanilla configuration (TGDB-noT), closed after the test."""
    engine = AeonG(temporal=False, gc_interval_transactions=0)
    yield engine
    engine.close()


@pytest.fixture(scope="session")
def small_ldbc():
    """A small LDBC dataset + Bi-LDBC stream shared across tests."""
    dataset = ldbc.generate(persons=25, seed=3)
    stream = bildbc.generate_operations(dataset, 200, seed=4)
    return dataset, stream


@pytest.fixture(scope="session")
def loaded_backends(small_ldbc):
    """All three systems loaded with the same data (read-only tests)."""
    dataset, stream = small_ldbc
    backends = [
        AeonGBackend(gc_interval_transactions=150),
        TGQLBackend(),
        ClockGBackend(snapshot_interval=80),
    ]
    for backend in backends:
        driver = WorkloadDriver(backend, seed=7)
        driver.apply(dataset.ops)
        driver.apply(stream.ops)
        driver.finish_load()
    return dataset, stream, backends
