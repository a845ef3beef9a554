"""One maintenance thread runs ``Migrate()`` "periodically ...
asynchronously to user transactions", and the engine's other
background work: a lazily started daemon (``aeong-maintenance``) runs
the watchdog, GC epochs and any task a satellite adds (the integrity
scrubber's passes), each when requested (commit, and a replica's
apply, ask for an epoch every ``gc_interval`` commits; recovery's
replay runs that epoch on itself, :meth:`Maintenance.run_due`) or
periodic and due; overdue periodic tasks go first, so GC requests
cannot starve the rest.  A failed periodic run retries with doubling
delay, capped.  A request waits
only while the one before it is unfinished: at most two intervals of
commits wait unmigrated.  The thread exits when idle."""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

THREAD_NAME = "aeong-maintenance"


class Task:
    """One kind of work with its own cadence and counters."""

    def __init__(self, work: Callable[..., Any]) -> None:
        self.work = work
        self.args: tuple = ()
        #: seconds between periodic runs; None = only on request
        self.interval: Optional[float] = None
        self.max_backoff = self.delay = self.next_at = 0.0
        #: events towards the next request, requests, requests covered
        self.ticks = self.requested = self.completed = 0
        #: ``request_errors``: the failed runs that served a request
        self.runs = self.errors = self.request_errors = 0
        self.last_error: Optional[str] = None


class Maintenance:
    """Owns the maintenance thread and its tasks: the watchdog and GC
    epochs, then those added with :meth:`add`, in that priority."""

    def __init__(self, watchdog, gc) -> None:
        self._tasks: dict[str, Task] = {}
        self._cond = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._running: Optional[Task] = None
        self._stopped = False
        #: requests that waited for the previous requested run
        self.backlog_waits = 0
        self.watchdog = self.add("watchdog", watchdog)
        self.gc = self.add("gc", gc)

    @property
    def alive(self) -> bool:
        return self._thread is not None

    def add(self, name: str, work: Callable[..., Any]) -> Task:
        """A new task running ``work``, after every task added before
        it; one task per ``name`` (:class:`ValueError` otherwise)."""
        with self._cond:
            if name in self._tasks:
                raise ValueError(f"maintenance task {name!r} already exists")
            task = self._tasks[name] = Task(work)
        return task

    def task_metrics(self, task: Task) -> dict[str, Any]:
        """``task``'s background state, for its owner's metrics section."""
        return {
            "background_running": task.interval is not None and self.alive,
            "background_errors": task.errors,
            "background_last_error": task.last_error,
            "deferred_errors": task.request_errors,
        }

    def schedule(self, task: Task, interval: float, max_backoff=None, *args) -> None:
        """Run ``task(*args)`` every ``interval`` seconds from now on
        (no-op if it already is, once stopped, or for ``interval <= 0``)."""
        with self._cond:
            if self._stopped or task.interval is not None or interval <= 0:
                return
            task.interval = task.delay = interval
            task.max_backoff = interval if max_backoff is None else max_backoff
            task.args = args
            task.next_at = time.monotonic() + interval
            self._wake()

    def unschedule(self, task: Task) -> bool:
        """End ``task``'s periodic runs, waiting out one in progress;
        False if it was not periodic.  Wakes the thread, so once the
        last periodic task is stopped it exits at once, not after the
        cancelled interval."""
        with self._cond:
            was_periodic, task.interval = task.interval is not None, None
            self._cond.notify_all()
            self._wait_while(lambda: self._running is task)
        return was_periodic

    def request(self, task: Task, every: int = 1) -> None:
        """Count one event, and on every ``every``-th ask for one run of
        ``task``; waits only while the run requested before is
        unfinished."""
        with self._cond:
            task.ticks += 1
            if self._stopped or task.ticks < every:
                return
            task.ticks = 0
            task.requested += 1
            previous = task.requested - 1
            self._wake()
            if task.completed < previous:
                self.backlog_waits += 1
                self._wait_while(lambda: task.completed < previous)

    def run_due(self, task: Task, every: int) -> None:
        """Count one event as :meth:`request` does, but run every
        ``every``-th on the caller, recording a failure as a thread run
        would; for a caller that owns the engine alone."""
        with self._cond:
            task.ticks += 1
            if task.ticks < every:
                return
            task.ticks = 0
            covers = task.completed
        self._run(task, covers)

    def settle(self) -> None:
        """Wait until every run requested before this call has finished."""
        with self._cond:
            owed = [(t, t.requested) for t in self._tasks.values()]
            self._wait_while(lambda: any(t.completed < n for t, n in owed))

    def stop(self) -> None:
        """Stop the thread after its current run (idempotent); then, if
        GC was periodic or an epoch is still requested, run one final
        epoch on the caller."""
        with self._cond:
            if self._stopped:
                return
            self._stopped = True
            thread = self._thread
            self._cond.notify_all()
        if thread is not None and thread is not threading.current_thread():
            thread.join()
        if self.gc.interval is not None or self.gc.requested > self.gc.completed:
            self._run(self.gc, self.gc.requested)

    def _wake(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name=THREAD_NAME, daemon=True
            )
            self._thread.start()
        self._cond.notify_all()

    def _wait_while(self, blocked: Callable[[], bool]) -> None:
        """Wait while ``blocked()`` and another thread can change it."""
        me = threading.current_thread()
        while blocked() and self._thread not in (None, me):
            self._cond.wait()

    def _loop(self) -> None:
        me = threading.current_thread()
        try:
            while True:
                with self._cond:
                    while True:
                        now = time.monotonic()
                        tasks = self._tasks.values()
                        ready = [t for t in tasks if t.interval and now >= t.next_at]
                        ready += [t for t in tasks if t.requested > t.completed]
                        periodic = [t.next_at for t in tasks if t.interval]
                        if self._stopped or ready or not periodic:
                            break
                        self._cond.wait(min(periodic) - now)
                    if self._stopped or not ready:
                        self._thread = None  # exit where decided: a request restarts
                        self._cond.notify_all()
                        return
                    task = self._running = ready[0]
                    covers = task.requested
                self._run(task, covers)
        finally:
            with self._cond:
                if self._thread is me:  # a BaseException escaped a task
                    self._thread = self._running = None
                    self._cond.notify_all()

    def _run(self, task: Task, covers: int) -> None:
        """Run ``task`` once, covering the first ``covers`` requests."""
        failed = None
        try:
            task.work(*task.args)
        except Exception as exc:  # noqa: BLE001 — record, back off, retry
            failed = repr(exc)
        with self._cond:
            task.runs += 1
            if failed is None:
                task.delay = task.interval or 0.0
            else:
                task.errors += 1
                task.request_errors += covers > task.completed
                task.last_error = failed
                task.delay = min(task.delay * 2, task.max_backoff)
            task.completed = max(task.completed, covers)
            task.next_at = time.monotonic() + task.delay
            self._running = None
            self._cond.notify_all()
