"""Unified observability: metrics registry, trace spans, slow-query log.

This module is the one place the engine's measurement plumbing lives
(see ``docs/OBSERVABILITY.md`` for the full metrics catalog and span
taxonomy):

:class:`MetricsRegistry`
    Counters, gauges, and histograms (bounded ring-buffer reservoirs —
    deterministic, no sampling randomness) plus *section providers*:
    callbacks like ``AeonG.metrics`` whose dictionaries are merged into
    every export.  Two exporters: :meth:`MetricsRegistry.as_dict`
    (JSON-ready) and :meth:`MetricsRegistry.prometheus_text` (the
    Prometheus text exposition format, flattened section names).
:class:`Tracer`
    Lightweight context-manager spans with per-thread nesting, an
    injectable clock (deterministic tests), and a bounded ring of
    finished spans.  Span durations also feed per-name histograms in
    the registry.  When observability is disabled, :meth:`Tracer.span`
    returns a shared no-op singleton — no allocation, two attribute
    loads — so instrumented hot paths (``engine.commit``, ``kv.flush``,
    ``history.fetch``) cost nothing measurable.
:class:`SlowQueryLog`
    A ring buffer of statements slower than a threshold, recorded at
    the statement boundary in the query executor.
:class:`Observability`
    The per-engine facade bundling the pieces above; constructed from
    an :class:`ObservabilityConfig` by ``AeonG.__init__``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: observations a histogram keeps for its percentiles
HISTOGRAM_RESERVOIR = 128
#: entries the slow-query log keeps
SLOW_QUERY_CAPACITY = 128


@dataclass
class ObservabilityConfig:
    """Tuning for the engine's observability layer.

    ``enabled=False`` turns every span and statement recording into a
    guarded no-op fast path (the registry still exists, so explicit
    ``PROFILE`` statements and ``metrics()`` keep working).  ``clock``
    is injectable so tests can assert deterministic durations.
    """

    enabled: bool = True
    clock: Callable[[], float] = time.perf_counter
    max_spans: int = 512
    slow_query_threshold: float = 0.25


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value that can go up and down (or is computed on read)."""

    __slots__ = ("name", "_value", "_fn")

    def __init__(self, name: str, fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        if self._fn is not None:
            return self._fn()
        return self._value


class Histogram:
    """A distribution with exact count/sum/min/max and quantiles from a
    bounded ring-buffer reservoir (the last ``reservoir`` observations —
    deterministic, unlike random sampling, and O(1) per observe)."""

    __slots__ = ("name", "count", "total", "min", "max", "_ring", "_pos")

    def __init__(self, name: str, reservoir: int = 128) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._ring: list = [None] * max(1, reservoir)
        self._pos = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        ring = self._ring
        ring[self._pos] = value
        self._pos = (self._pos + 1) % len(ring)

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile (0..1) over the reservoir window."""
        values = sorted(v for v in self._ring if v is not None)
        if not values:
            return None
        index = min(len(values) - 1, int(q * len(values)))
        return values[index]

    def summary(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


def _sanitize(name: str) -> str:
    """A Prometheus-legal metric-name fragment."""
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _flatten(prefix: str, value: Any, out: list[tuple[str, float]]) -> None:
    """Recursively flatten a metrics dict into (name, number) samples.

    Booleans export as 0/1; strings and ``None`` are skipped (they are
    human diagnostics, not time series)."""
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}_{_sanitize(str(key))}", item, out)
    elif isinstance(value, bool):
        out.append((prefix, 1.0 if value else 0.0))
    elif isinstance(value, (int, float)):
        out.append((prefix, float(value)))


class MetricsRegistry:
    """The engine's single metrics surface.

    Native instruments are created with :meth:`counter`, :meth:`gauge`,
    and :meth:`histogram` (get-or-create by name, so call sites need no
    registration ceremony).  Existing per-subsystem reports — the
    ``read_path`` / ``resilience`` / ``integrity`` / ... sections of
    ``AeonG.metrics()`` — plug in as *providers*: callbacks returning a
    dict of sections, merged into every export.
    """

    def __init__(self, default_reservoir: int = HISTOGRAM_RESERVOIR) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._providers: list[Callable[[], dict]] = []
        self._default_reservoir = default_reservoir

    # -- instruments ------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str, fn: Optional[Callable[[], float]] = None) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name, fn)
        return gauge

    def histogram(self, name: str, reservoir: Optional[int] = None) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(
                name, reservoir or self._default_reservoir
            )
        return histogram

    def register_provider(self, fn: Callable[[], dict]) -> None:
        """Merge ``fn()`` (a dict of metric sections) into every export."""
        self._providers.append(fn)

    # -- exporters --------------------------------------------------------

    def sections(self) -> dict[str, Any]:
        """Every provider's sections, merged (later providers win)."""
        merged: dict[str, Any] = {}
        for provider in self._providers:
            report = provider()
            if isinstance(report, dict):
                merged.update(report)
        return merged

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot of everything the registry knows."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
            "sections": self.sections(),
        }

    def prometheus_text(self, prefix: str = "aeong") -> str:
        """The Prometheus text exposition format.

        Section dicts flatten to ``{prefix}_{section}_{field}``;
        histograms export as summaries (``_count`` / ``_sum`` plus
        ``quantile`` labels over the reservoir window).
        """
        lines: list[str] = []
        for name, counter in sorted(self._counters.items()):
            metric = f"{prefix}_{_sanitize(name)}"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {counter.value}")
        for name, gauge in sorted(self._gauges.items()):
            metric = f"{prefix}_{_sanitize(name)}"
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {gauge.value}")
        for name, histogram in sorted(self._histograms.items()):
            metric = f"{prefix}_{_sanitize(name)}"
            lines.append(f"# TYPE {metric} summary")
            lines.append(f"{metric}_count {histogram.count}")
            lines.append(f"{metric}_sum {histogram.total}")
            for q in (0.5, 0.9, 0.99):
                value = histogram.quantile(q)
                if value is not None:
                    lines.append(f'{metric}{{quantile="{q}"}} {value}')
        samples: list[tuple[str, float]] = []
        _flatten(prefix, self.sections(), samples)
        for name, value in samples:
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {value}")
        return "\n".join(lines) + "\n"


class SpanRecord:
    """One finished span: name, nesting, timing, outcome."""

    __slots__ = ("name", "parent", "depth", "thread", "start", "end", "error")

    def __init__(self, name, parent, depth, thread, start, end, error) -> None:
        self.name = name
        self.parent = parent
        self.depth = depth
        self.thread = thread
        self.start = start
        self.end = end
        self.error = error

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " !" if self.error else ""
        return f"<span {self.name} d={self.depth} {self.duration:.6f}s{flag}>"


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled.

    One module-level instance serves every call site, so the disabled
    fast path allocates nothing (asserted by the benchmark smoke)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


NULL_SPAN = _NullSpan()


class _SpanHandle:
    """A live span; records itself on ``__exit__`` (also on the
    exception path, so injected faults cannot corrupt the nesting)."""

    __slots__ = ("_tracer", "name", "parent", "depth", "start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self._tracer
        local = tracer._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        self.parent = stack[-1] if stack else None
        self.depth = len(stack)
        stack.append(self.name)
        self.start = tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        tracer = self._tracer
        end = tracer.clock()
        tracer._local.stack.pop()
        tracer._record(
            SpanRecord(
                self.name,
                self.parent,
                self.depth,
                threading.get_ident(),
                self.start,
                end,
                exc_type is not None,
            )
        )
        return False


class Tracer:
    """Context-manager trace spans with per-thread nesting.

    Finished spans land in a bounded ring (:attr:`finished`) and feed a
    per-name duration histogram in the registry.  The clock is
    injectable for deterministic tests.  While :attr:`enabled` is
    False, :meth:`span` returns the shared :data:`NULL_SPAN` no-op.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_spans: int = 512,
        registry: Optional[MetricsRegistry] = None,
        enabled: bool = True,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self.registry = registry
        self.finished: deque[SpanRecord] = deque(maxlen=max_spans)
        self._local = threading.local()
        self.spans_recorded = 0
        # Registry instruments, resolved on a name's first record (so
        # the exports list only what was recorded, as before)
        self._spans: Optional[Counter] = None
        self._histograms: dict[str, Histogram] = {}

    def span(self, name: str):
        """A context manager timing one named region."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanHandle(self, name)

    def depth(self) -> int:
        """Current nesting depth on the calling thread (0 = no span
        open — the well-formedness invariant tests assert)."""
        stack = getattr(self._local, "stack", None)
        return len(stack) if stack else 0

    def spans(self, name: Optional[str] = None) -> list[SpanRecord]:
        """Finished spans, optionally filtered by name."""
        if name is None:
            return list(self.finished)
        return [record for record in self.finished if record.name == name]

    def _record(self, record: SpanRecord) -> None:
        self.finished.append(record)
        self.spans_recorded += 1
        registry = self.registry
        if registry is not None:
            histogram = self._histograms.get(record.name)
            if histogram is None:
                self._spans = registry.counter("spans")
                histogram = self._histograms[record.name] = registry.histogram(
                    f"span.{record.name}.seconds"
                )
            self._spans.value += 1
            histogram.observe(record.end - record.start)


@dataclass
class SlowQuery:
    """One slow-query log entry."""

    statement: str
    duration: float
    rows: int


class SlowQueryLog:
    """Ring buffer of the slowest recent statements."""

    def __init__(
        self, threshold: float = 0.25, capacity: int = SLOW_QUERY_CAPACITY
    ) -> None:
        self.threshold = threshold
        self.entries: deque[SlowQuery] = deque(maxlen=capacity)

    def record(self, statement: str, duration: float, rows: int) -> bool:
        if duration < self.threshold:
            return False
        self.entries.append(SlowQuery(statement[:500], duration, rows))
        return True

    def __len__(self) -> int:
        return len(self.entries)


class Observability:
    """Per-engine bundle: registry + tracer + slow-query log.

    ``AeonG`` constructs one from the ``observability=`` parameter
    (an :class:`ObservabilityConfig` or None for defaults), threads the
    tracer through the storage stack, and registers ``metrics()`` as a
    registry provider — making the registry the single export surface
    (``engine.metrics_text()``, ``aeong metrics DIR``).
    """

    def __init__(self, config: Optional[ObservabilityConfig] = None) -> None:
        self.config = config if config is not None else ObservabilityConfig()
        self.enabled = self.config.enabled
        self.clock = self.config.clock
        self.registry = MetricsRegistry()
        self.tracer = Tracer(
            clock=self.config.clock,
            max_spans=self.config.max_spans,
            registry=self.registry,
            enabled=self.enabled,
        )
        self.slow_queries = SlowQueryLog(self.config.slow_query_threshold)
        # resolved on the first statement, like the tracer's instruments
        self._statements: Optional[Counter] = None
        self._statement_seconds: Optional[Histogram] = None

    def record_statement(self, statement: str, duration: float, rows: int) -> None:
        """Statement-boundary accounting (called by the executor)."""
        if not self.enabled:
            return
        seconds = self._statement_seconds
        if seconds is None:
            self._statements = self.registry.counter("statements")
            seconds = self._statement_seconds = self.registry.histogram(
                "statement.seconds"
            )
        self._statements.value += 1
        seconds.observe(duration)
        if self.slow_queries.record(statement, duration, rows):
            self.registry.counter("slow_queries").inc()

    def self_metrics(self) -> dict[str, Any]:
        """The ``metrics()["observability"]`` section."""
        return {
            "enabled": self.enabled,
            "spans_recorded": self.tracer.spans_recorded,
            "spans_buffered": len(self.tracer.finished),
            "statements": self.registry.counter("statements").value,
            "slow_queries": len(self.slow_queries),
            "slow_query_threshold": self.slow_queries.threshold,
        }
