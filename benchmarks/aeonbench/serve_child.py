"""The process that hosts engine and server for ``served_mix``.

``aeong serve`` cannot be used: indexes are not persisted and there is
no index DDL on the wire.  So this child opens a durable engine in the
default ``flush`` mode, loads the seeded hot dataset through the Python
API, creates the indexes, starts ``ServerThread(engine)`` and prints
one JSON line with the port, the clock and the commit log the parent's
answer model is built from.  It then obeys one-word commands on stdin,
answering each with one JSON line:

``trace``     install the tracer (first call) and drop recorded spans
``counters``  the engine and server counters
``spans``     the span summary since ``trace``
``report``    storage bytes, ops applied, peak RSS
``quit``      drain the server, close the engine, dump spans, exit
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

from repro import AeonG
from repro.server import ServerThread

from . import inputs as gen
from .trace import Tracer, install
from .workloads import engine_counters, load_hot, peak_rss_mb


def main(argv: list[str]) -> int:
    directory, seed, scale = Path(argv[0]), int(argv[1]), float(argv[2])
    trace_path = argv[3]
    inputs = gen.hot_dataset(seed, scale)
    engine = AeonG.open(directory)
    _loader, model = load_hot(engine, inputs)
    loaded_commits = engine.metrics()["write_path"]["records_written"]
    thread = ServerThread(engine)
    _host, port = thread.start()
    tracer = None

    def reply(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    persons = set(inputs.persons)
    gc.collect()
    gc.freeze()  # as run.py does for the embedded workloads
    reply(
        {
            "port": port,
            "now": engine.now(),
            "log": {k: v for k, v in model.log.items() if k in persons},
        }
    )
    try:
        for line in sys.stdin:
            word = line.strip()
            if word == "trace":
                if tracer is None:
                    tracer = Tracer()
                    install(tracer)
                tracer.spans.clear()
                reply({})
            elif word == "counters":
                reply(engine_counters(engine, thread.server))
            elif word == "spans":
                reply(tracer.summary() if tracer is not None else {})
            elif word == "report":
                engine.collect_garbage()
                commits = engine.metrics()["write_path"]["records_written"]
                reply(
                    {
                        "store_bytes": engine.storage_report().total_bytes,
                        "applied": len(inputs.ops) + commits - loaded_commits,
                        "peak_rss_mb": peak_rss_mb(),
                    }
                )
            elif word == "quit":
                break
    finally:
        thread.stop()
        engine.close()
    if tracer is not None:
        tracer.dump(trace_path)
    reply({})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
