"""Compile each statement once: the per-engine statement → plan cache.

Every way a statement reaches a plan — ``engine.execute``, ``EXPLAIN``,
``PROFILE``, ``engine.explain`` and the server's ``prepare`` and
replica write check — goes through one :class:`PlanCache`
(``engine.compile``).  This module imports nothing of the query layer
until a statement misses, so an engine driven only through the direct
API never pays for loading the parser and planner.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict

#: A leading EXPLAIN / PROFILE keyword; the rest of the text is the
#: statement it applies to.
PROFILE_PREFIX = re.compile(r"^\s*(EXPLAIN|PROFILE)\b", re.IGNORECASE)


class PlanCache:
    """One engine's statement → ``Plan`` cache: a fixed-size LRU.

    The key is the statement text (any ``EXPLAIN``/``PROFILE`` prefix
    and surrounding whitespace stripped) plus the index registry's
    epoch, because an index changes which scan a plan picks.  A miss
    parses and plans through ``repro.query.executor``'s ``parse`` /
    ``plan_query``; a statement that fails to parse or plan is not
    cached, so it fails again on every call.  Plans are read-only, so
    concurrent executions share them.  The engine clears the cache when
    it adopts new storage.

    Also holds the query layer's counters, ``metrics()["query"]``.
    """

    SIZE = 256

    def __init__(self) -> None:
        self._plans: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: NodeScans that narrowed on a pushed WHERE equality
        self.scans_pushed = 0

    def compile(self, engine, text: str):
        prefixed = PROFILE_PREFIX.match(text)
        statement = (text[prefixed.end():] if prefixed else text).strip()
        key = (statement, engine.storage.indexes.epoch)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
                return plan
            self.misses += 1
        from repro.query import executor

        plan = executor.plan_query(executor.parse(statement), engine)
        with self._lock:
            self._plans[key] = plan
            if len(self._plans) > self.SIZE:
                self._plans.popitem(last=False)
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def count_pushed_scan(self) -> None:
        with self._lock:
            self.scans_pushed += 1

    def metrics(self) -> dict[str, int]:
        return {
            "plan_cache_hits": self.hits,
            "plan_cache_misses": self.misses,
            "plan_cache_entries": len(self._plans),
            "scans_pushed": self.scans_pushed,
        }
