"""``python -m benchmarks.aeonbench run|compare|spread``.

``run --seed N [N2 ...] [--repeat K] [--traced] [--smoke] [--out FILE]``
    all four workloads, one ``run.py`` process each (so that peak RSS
    and caches are per workload), ``K`` times over for every seed given
    (a repeat reruns the *same* seed: identical inputs, so what differs
    is the machine); prints every metric and writes one result file.
``compare A.json[,A2.json...] B.json[,B2.json...]``
    per workload and end-to-end metric: both medians, the ratio B/A
    with its base, and ``regressed`` / ``unchanged`` / ``unresolved``.
    Refuses sides that did not run the same inputs the same number of
    times (seed and SHA-256 of each run are in the files).
``spread FILE...``
    per workload and end-to-end metric: median and interquartile
    spread as a share of it, against the bounds in ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

from . import spec

HERE = Path(__file__).resolve().parent
RECORD = "aeonbench "


def run_once(workload: str, seed: int, trace: int, extra: list[str]) -> dict:
    """One ``run.py`` process; returns the record it printed, or one
    that says how it failed, so that the other workloads still run."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), *extra,
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    records = [line for line in lines if line.startswith(RECORD)]
    sys.stdout.write("".join(line + "\n" for line in lines if line not in records))
    if len(records) != 1:
        print(f"{workload} seed {seed}: run.py exited with {done.returncode} "
              "and printed no result")
        return {"workload": workload, "seed": seed, "trace": trace,
                "correct": False, "returncode": done.returncode, "metrics": {}}
    return json.loads(records[0][len(RECORD):])


def command_run(args) -> int:
    extra = ["--smoke"] if args.smoke else ["--seconds", str(args.seconds)]
    runs = []
    for _repeat in range(args.repeat):
        for seed in args.seed:
            for workload, _why in spec.WORKLOADS:
                for trace in (0, 1) if args.traced else (0,):
                    runs.append(run_once(workload, seed, trace, extra))
                    if args.out:
                        Path(args.out).write_text(
                            json.dumps({"runs": runs}, indent=1) + "\n"
                        )
    return 0 if all(run["correct"] for run in runs) else 1


def load(paths: list[str]) -> tuple[dict, Counter]:
    """``(workload, metric) -> [values]`` over the untraced runs of the
    files, and how often each ``(workload, seed, sha256)`` was run."""
    values: dict = {}
    inputs: Counter = Counter()
    for path in paths:
        for run in json.loads(Path(path).read_text())["runs"]:
            if run["trace"] != 0 or not run["metrics"]:
                continue
            inputs[run["workload"], run["seed"], run["sha256"]] += 1
            for name, metric in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(
                    metric["value"]
                )
    return values, inputs


def spread_of(values: list[float]):
    """Interquartile distance as a share of the median; ``None`` below
    four values, where quartiles say nothing, or for a median of 0."""
    if len(values) < 4 or not statistics.median(values):
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def show(share) -> str:
    return "   n/a" if share is None else f"{share:6.3f}"


def rows(values: dict):
    """``(workload, name, unit, better, bound, values)`` in spec order."""
    for workload, _why in spec.WORKLOADS:
        for name, unit, better, bound, on in spec.END_TO_END:
            got = values.get((workload, name))
            if workload in on and got:
                yield workload, name, unit, better, bound, got


def command_spread(args) -> int:
    """Exit 1 if a spread is wider than ``compare``'s bound, 2 if one
    is wider than the bound ``BENCHMARK.json`` gives the driver."""
    values, inputs = load(args.files)
    seeds = sorted({seed for _workload, seed, _sha in inputs})
    print(f"# spread over {', '.join(args.files)}; seeds {seeds}")
    wide = refused = 0
    print(f"{'workload':13s} {'metric':22s} {'n':>3s} {'median':>14s} "
          f"{'spread':>6s} {'bound':>6s}")
    for workload, name, unit, _better, bound, got in rows(values):
        share = spread_of(got)
        flag = ""
        if None not in (share, bound) and name != "setup_s" and share > bound / 3:
            flag = " > bound/3" if share <= bound else " > bound"
            wide += share > bound
            if share > spec.DRIVER.get(name, 1.0):
                flag += f", > the driver's {spec.DRIVER[name]}"
                refused += 1
        limit = "  none" if bound is None else f"{bound:6.3f}"
        print(f"{workload:13s} {name:22s} {len(got):3d} "
              f"{statistics.median(got):14.4f} {show(share)} {limit} "
              f"{unit}{flag}")
    return 2 if refused else 1 if wide else 0


def command_compare(args) -> int:
    (base, base_inputs), (other, other_inputs) = (
        load(side.split(",")) for side in (args.a, args.b)
    )
    if base_inputs != other_inputs:
        odd = sorted((base_inputs - other_inputs) + (other_inputs - base_inputs))
        print(f"the two sides did not run the same inputs equally often: {odd}")
        return 2
    regressed = 0
    print(f"{'workload':13s} {'metric':22s} {'A':>14s} {'B':>14s} "
          f"{'B/A':>7s} {'spreadA':>7s} {'spreadB':>7s} verdict")
    for workload, name, _unit, better, bound, a in rows(base):
        b = other[workload, name]
        med_a, med_b = statistics.median(a), statistics.median(b)
        ratio = med_b / med_a if med_a else None
        if not bound or not med_a:
            # No increase allowed (failed_share), or nothing to divide by.
            worse = med_b - med_a
        else:
            worse = ratio - 1 if better == "lower" else 1 - ratio
        spreads = [spread_of(a), spread_of(b)]
        if bound is None:
            verdict = "unbounded"
        elif any(s is not None and s > bound for s in spreads):
            verdict = "unresolved"
        elif worse > bound:
            verdict = "regressed"
            regressed += 1
        else:
            verdict = "unchanged"
        print(f"{workload:13s} {name:22s} {med_a:14.4f} {med_b:14.4f} "
              f"{show(ratio):>7s} {show(spreads[0]):>7s} {show(spreads[1]):>7s} "
              f"{verdict} (base A={med_a:.4g}, bound {bound})")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="aeonbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--seed", type=int, nargs="+", required=True)
    run.add_argument("--repeat", type=int, default=1)
    run.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    run.add_argument("--traced", action="store_true")
    run.add_argument("--smoke", action="store_true")
    run.add_argument("--out")
    run.set_defaults(func=command_run)
    compare = sub.add_parser("compare")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(func=command_compare)
    spread = sub.add_parser("spread")
    spread.add_argument("files", nargs="+")
    spread.set_defaults(func=command_spread)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
