"""Smoke test of aeonbench (``pytest benchmarks/aeonbench``; tier-1's
``testpaths`` does not reach here).

Runs every workload at ``--smoke`` scale, untraced and traced, and
checks what a later PR relies on: the names, the units, the answers,
the arithmetic of the layer breakdown, and that the counts repeat.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.aeonbench import spec
from benchmarks.aeonbench.__main__ import RECORD

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = [name for name, _why in spec.WORKLOADS]


def run(workload: str, trace: int, seed: int = 7):
    """``(record, driver's result)`` of one ``--smoke`` run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    lines = done.stdout.strip().splitlines()
    assert done.returncode == 0, done.stdout
    assert lines[-2].startswith(RECORD)
    return json.loads(lines[-2][len(RECORD):]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def results():
    began = time.perf_counter()
    out = {(w, t): run(w, t) for w in WORKLOADS for t in (0, 1)}
    out["elapsed"] = time.perf_counter() - began
    return out


def test_benchmark_json_is_the_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_smoke_scale_is_quick(results):
    assert results["elapsed"] < 30


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_named_finite_with_unit(results, workload):
    tables = {
        0: [row[:2] for row in spec.END_TO_END if workload in row[4]],
        1: [row[:2] for row in spec.PER_LAYER],
    }
    for trace, table in tables.items():
        record, result = results[workload, trace]
        assert list(record["metrics"]) == [name for name, _unit in table]
        for name, unit in table:
            metric = record["metrics"][name]
            assert metric["unit"] == unit
            assert math.isfinite(metric["value"]), name
        # What the driver reads: exactly BENCHMARK.json's names, none 0.
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        wanted = list(spec.DRIVER) if trace == 0 else list(record["metrics"])
        assert list(result["metrics"]) == wanted
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
            assert record["metrics"]["failed_share"]["value"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_answers_check_out(results, workload):
    for trace in (0, 1):
        record, result = results[workload, trace]
        assert result["correct"] and result["failed"] == 0
        # The timed ops plus the answers asked again.
        timed = sum(record["samples"].values()) * (2 - (trace == 0))
        assert result["attempted"] > timed >= 500


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layers_reconcile_with_wall(results, workload):
    metrics = results[workload, 1][0]["metrics"]
    value = {name: m["value"] for name, m in metrics.items()}
    mean = value["trace.op_mean_us"]
    layers = sum(
        v for name, v in value.items()
        if name.endswith("_us") and name not in spec.OFF_PATH
        and name != "trace.op_mean_us"
        and not (name.startswith("client.") and "_p" in name)
    )
    total = layers + value["trace.unattributed_share"] * mean
    assert total == pytest.approx(mean, rel=0.10)
    assert 0 <= value["trace.unattributed_share"] < 0.25


def test_parse_calls_per_statement_is_reported(results):
    for workload in ("hot_query", "served_mix"):
        metrics = results[workload, 1][0]["metrics"]
        assert metrics["query.parse_calls_per_stmt"]["value"] >= 1
    cold = results["cold_history", 1][0]["metrics"]
    assert cold["query.parse_calls_per_stmt"]["value"] == 0


def test_one_client_counts_repeat_exactly(results):
    exact = {
        0: ["store_bytes_per_op"],
        1: ["core.history_store.fetches", "kvstore.seeks", "common.serde.decodes"],
    }
    for trace, names in exact.items():
        first, _result = results["cold_history", trace]
        again, _result = run("cold_history", trace)
        assert first["sha256"] == again["sha256"]
        for name in names:
            assert first["metrics"][name] == again["metrics"][name], name


def result_file(path, seed, ops_per_s_values, failed_share=0.0):
    runs = [
        {"workload": "hot_query", "seed": seed, "trace": 0, "sha256": "s",
         "correct": True, "metrics": {
             "ops_per_s": {"value": value, "unit": "1/s"},
             "failed_share": {"value": failed_share, "unit": "1/op"}}}
        for value in ops_per_s_values
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    from benchmarks.aeonbench.__main__ import main

    steady = [1000.0, 1001.0, 1002.0, 1003.0, 1004.0]
    base = result_file(tmp_path / "a.json", 1, steady)
    same = result_file(tmp_path / "b.json", 1, [v * 0.95 for v in steady])
    slow = result_file(tmp_path / "c.json", 1, [v * 0.85 for v in steady], 0.01)
    wide = result_file(tmp_path / "d.json", 1, [700.0, 800.0, 1000.0, 1200.0, 1300.0])
    other_seed = result_file(tmp_path / "e.json", 2, steady)

    def verdicts(b):
        code = main(["compare", base, b])
        lines = capsys.readouterr().out.splitlines()[1:]
        return code, {line.split()[1]: line.split()[7] for line in lines}

    assert verdicts(same) == (0, {"ops_per_s": "unchanged", "failed_share": "unchanged"})
    assert verdicts(slow) == (1, {"ops_per_s": "regressed", "failed_share": "regressed"})
    assert verdicts(wide)[1]["ops_per_s"] == "unresolved"
    assert main(["compare", base, other_seed]) == 2


def test_wrapper_records_a_run_that_printed_no_result():
    from benchmarks.aeonbench.__main__ import run_once

    record = run_once("no_such_workload", 1, 0, [])
    assert record["correct"] is False and record["returncode"] == 2
