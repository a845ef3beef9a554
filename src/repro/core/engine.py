"""The AeonG engine facade: hybrid storage + temporal query surface.

``AeonG`` assembles the pieces exactly as Figure 2 of the paper draws
them: the MVCC property-graph store is the *current data storage
engine*, a key-value store is the *historical data storage engine*, and
the two are connected only through the garbage collector's migration
hook.  Constructing with ``temporal=False`` yields the vanilla system
(TGDB-noT in the paper's Figure 6(b) experiment): garbage collection
simply discards expired versions and temporal queries are rejected.

Typical use::

    db = AeonG()
    with db.transaction() as txn:
        jack = db.create_vertex(txn, labels=["Person"], properties={"name": "Jack"})
        card = db.create_vertex(txn, labels=["CreditCard"], properties={"balance": 270})
        db.create_edge(txn, jack, card, "OWNS")
    t_before = db.now()
    with db.transaction() as txn:
        db.set_vertex_property(txn, card, "balance", 200)
    with db.transaction() as txn:
        old = next(db.vertices_as_of(txn, t_before, label="CreditCard"))
        assert old.properties["balance"] == 270
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.core.anchors import AnchorPolicy
from repro.core.history_store import HistoricalStore
from repro.core.migration import Migrator
from repro.core.operators import TemporalOperators
from repro.core.stats import StorageReport
from repro.core.temporal import (
    GraphModel,
    Interval,
    TemporalCondition,
    VT_END_PROPERTY,
    VT_START_PROPERTY,
    check_property_writable,
    check_valid_time_value,
    valid_time_of,
)
from repro.errors import (
    ConstraintViolation,
    DegradedModeError,
    QueryError,
    SerializationConflict,
    StorageError,
    TemporalError,
    TransactionError,
)
from repro.graph.storage import GraphStorage
from repro.graph.views import EdgeView, VertexView
from repro.integrity import IntegrityReport, Scrubber
from repro.kvstore import KVStore
from repro.mvcc.gc import GarbageCollector
from repro.mvcc.transaction import Transaction
from repro.observability import Observability, ObservabilityConfig
from repro.query.cache import PlanCache
from repro.replication import ReplicationConfig, ReplicationState
from repro.resilience import ResilienceConfig, ResilienceController, RetryPolicy


class AeonG:
    """An embedded temporal graph database.

    Parameters
    ----------
    temporal:
        When False, historical versions are discarded at garbage
        collection (the vanilla / TGDB-noT configuration).
    anchor_interval:
        The paper's ``u``: number of migrated delta records between two
        anchors of one object (0 disables anchors; default 10, the
        value the paper recommends for TPC-DS).
    gc_interval_transactions:
        Run one garbage-collection epoch automatically after this many
        commits ("the migration is invoked periodically"); 0 disables
        automatic collection — call :meth:`collect_garbage` manually.
    model:
        Which temporal dimensions the graph carries (section 2.1).
    enforce_vt_constraints:
        Check section 2.3's valid-time constraint — an edge's valid
        time must lie within both endpoints' — on edge creation and
        valid-time updates.
    kv:
        Inject a pre-configured key-value store (e.g. with a WAL).
    reconstruction_cache_size:
        Maximum objects whose reconstructed version lists the history
        store caches (epoch-invalidated LRU; 0 disables caching and
        every temporal read replays its anchor+delta chain).
    durability_dir:
        Enable the logical write-ahead log under this directory: every
        committed transaction is durably journaled, :meth:`checkpoint`
        snapshots + truncates, and :meth:`AeonG.open` recovers.  Only
        pass this for a *fresh* directory — use :meth:`open` for an
        existing one (it replays the log first).
    durability_mode:
        ``"fsync"`` syncs every WAL append and checkpoint file to the
        device before acknowledging; ``"flush"`` (default) stops at the
        OS buffer — fast, surviving process death but not power loss.
    group_commit:
        Route commits through the asynchronous group-commit writer
        (:mod:`repro.core.write_path`): concurrent committers share one
        WAL frame and one fsync per batch, and the engine lock is never
        held across durability I/O.  ``False`` restores the legacy
        synchronous one-commit-one-fsync path (the benchmark baseline).
        Only meaningful with ``durability_dir``.
    migration_workers:
        Worker threads for the migration epoch's delta *encoding* fan
        out (``merge_transaction_deltas`` per transaction); 0 (default)
        encodes serially on the GC thread.  Install order is always
        commit-timestamp order regardless of worker count.
    resilience:
        A :class:`~repro.resilience.ResilienceConfig` tuning conflict
        retry, transaction deadlines (``max_transaction_age`` and the
        watchdog), admission control
        (``max_concurrent_transactions``), and the history-store
        circuit breaker / degraded-read policy.  ``None`` applies the
        defaults (no admission limit, no engine-wide deadline, breaker
        armed with a 5-failure threshold).
    observability:
        An :class:`~repro.observability.ObservabilityConfig` tuning the
        metrics registry, trace spans, and slow-query log (see
        ``docs/OBSERVABILITY.md``).  ``None`` enables the defaults;
        ``ObservabilityConfig(enabled=False)`` turns spans and
        statement recording into no-ops.
    """

    def __init__(
        self,
        temporal: bool = True,
        anchor_interval: int = 10,
        gc_interval_transactions: int = 512,
        model: GraphModel = GraphModel.BITEMPORAL,
        enforce_vt_constraints: bool = False,
        kv: Optional[KVStore] = None,
        reconstruction_cache_size: int = 4096,
        durability_dir=None,
        durability_mode: str = "flush",
        group_commit: bool = True,
        migration_workers: int = 0,
        resilience: Optional[ResilienceConfig] = None,
        observability: Optional[ObservabilityConfig] = None,
        replication: Optional[ReplicationConfig] = None,
    ) -> None:
        from repro.faults import StorageIO

        self.temporal = temporal
        self.model = model
        self.enforce_vt_constraints = enforce_vt_constraints
        self.durability_mode = durability_mode
        self.group_commit = group_commit
        self._storage_io = StorageIO(durability_mode)
        self.resilience = ResilienceController(resilience)
        self.storage = GraphStorage()
        self.manager = self.storage.manager
        self.observability = (
            observability
            if isinstance(observability, Observability)
            else Observability(observability)
        )
        self.history = HistoricalStore(
            kv, reconstruction_cache_size=reconstruction_cache_size
        )
        self.history.resilience = self.resilience
        self.history.tracer = self.observability.tracer
        self.history.kv.tracer = self.observability.tracer
        self.anchor_policy = AnchorPolicy(anchor_interval)
        self.migrator = Migrator(
            self.storage,
            self.history,
            self.anchor_policy,
            workers=migration_workers,
        )
        self.gc = GarbageCollector(
            self.manager,
            migrate_hook=self._migrate_guarded if temporal else None,
            reclaim_object_hook=self._reclaim_record,
        )
        self.operators = TemporalOperators(self.storage, self.history)
        #: statement text -> plan (see :meth:`compile`)
        self.plans = PlanCache()
        self.scrubber = Scrubber(
            self.history,
            storage=self.storage,
            anchor_interval=anchor_interval,
            resilience=self.resilience,
        )
        self.migrator.on_migrated = self.scrubber.note_migrated
        self._gc_interval = gc_interval_transactions
        self._commits_since_gc = 0
        self._gc_lock = threading.Lock()
        self._gc_thread: Optional[threading.Thread] = None
        self._gc_stop: Optional[threading.Event] = None
        self._scrub_thread: Optional[threading.Thread] = None
        self._scrub_stop: Optional[threading.Event] = None
        self._scrub_bg_errors = 0
        self._scrub_bg_last_error: Optional[str] = None
        self._gc_bg_errors = 0
        self._gc_bg_last_error: Optional[str] = None
        self._gc_deferred_errors = 0
        self._watchdog_thread: Optional[threading.Thread] = None
        self._watchdog_stop: Optional[threading.Event] = None
        self._closed = False
        # Serializes the closed-state transition against transaction
        # starts and the commit+WAL critical section, so a shutdown
        # racing an in-flight commit can neither strand a zombie
        # transaction nor close the WAL under an acknowledged append.
        self._close_lock = threading.Lock()
        self._wal = None
        #: The async group-commit writer (None when durability is off
        #: or ``group_commit=False`` — commits then append inline).
        self._wal_writer = None
        self._durability_dir = None
        #: RecoveryReport from :meth:`open`, None for a fresh engine.
        self.last_recovery = None
        #: Replication role/epoch/fence/peer state (every engine has
        #: one; a standalone node is a primary with no replicas).
        self.replication = ReplicationState(replication)
        self.replication.engine = self
        #: Highest commit timestamp known to have been truncated out of
        #: the WAL — a replica fetching at or below this must resync.
        self._wal_truncation_fence = 0
        # Every metrics() section flows through the registry, so the
        # Prometheus/JSON exporters cover the whole engine.
        self.observability.registry.register_provider(self.metrics)
        if durability_dir is not None:
            from repro.core.durability import EngineWal

            self.attach_wal(
                durability_dir,
                EngineWal(durability_dir, durability_mode=durability_mode),
            )

    # -- transactions -------------------------------------------------------

    def begin(self, timeout: Optional[float] = None) -> Transaction:
        """Start a snapshot-isolation transaction.

        ``timeout`` (seconds) sets a deadline for *this* transaction;
        without one, the engine's ``max_transaction_age`` (if
        configured) applies.  A transaction past its deadline is
        aborted by the watchdog so it cannot pin the GC watermark, and
        the owner's next operation raises
        :class:`~repro.errors.TransactionTimeout`.

        With admission control configured
        (``max_concurrent_transactions``), ``begin`` waits in a FIFO
        queue for a free slot and raises
        :class:`~repro.errors.OverloadError` past the queue deadline.
        """
        if self._closed:
            raise StorageError("engine is closed")
        ctrl = self.resilience
        gate = ctrl.gate
        if gate is not None:
            gate.acquire()
        try:
            # Re-check under the close lock: close() may have landed
            # while we waited in the admission queue.  Without this, a
            # begin racing close() would strand a transaction no
            # watchdog will ever sweep (and pin its admission slot).
            with self._close_lock:
                if self._closed:
                    raise StorageError("engine is closed")
                if self.replication.is_replica:
                    # Replica snapshots must not consume timestamps:
                    # the oracle tracks the primary's commits only, and
                    # a consumed tick would collide with the next
                    # replicated record's forced commit timestamp.
                    txn = self.manager.begin_readonly()
                else:
                    txn = self.manager.begin()
        except BaseException:
            if gate is not None:
                gate.release()
            raise
        if gate is not None:
            txn.on_commit(lambda _ts: gate.release())
            txn.on_abort(gate.release)
        age = timeout if timeout is not None else ctrl.config.max_transaction_age
        if age is not None:
            txn.deadline = ctrl.clock() + age
            self._ensure_watchdog()
        return txn

    def commit(self, txn: Transaction) -> int:
        """Commit; returns the commit timestamp (= the new TT.st).

        With the group-commit writer attached (``group_commit=True``
        and durability enabled), the close lock covers only the MVCC
        commit and the *enqueue* of the journal record — never the WAL
        append or fsync.  Durability I/O happens on the writer thread,
        shared across whatever batch of commits has accumulated, and
        this call blocks outside the lock on its batch ticket until the
        shared fsync lands — concurrent readers and committers proceed
        while a slow device syncs, yet the acknowledgement-after-
        durable contract is unchanged.
        """
        with self.observability.tracer.span("engine.commit"):
            ticket = None
            # The close lock makes commit-vs-close atomic: either the
            # commit (including its WAL submission) completes before
            # the WAL closes, or the transaction is cleanly aborted —
            # never an acknowledged commit whose journal record was
            # lost.  Enqueueing under the lock also makes queue order
            # identical to commit-timestamp order.
            with self._close_lock:
                if self._closed:
                    if txn.is_active:
                        self.manager.abort(txn)
                    raise StorageError(
                        "engine is closed; transaction aborted, not committed"
                    )
                commit_ts = self.manager.commit(txn)
                if txn.journal:
                    if self._wal_writer is not None:
                        ticket = self._wal_writer.submit(
                            commit_ts, list(txn.journal)
                        )
                    else:
                        # Legacy synchronous path: append + fsync inline
                        # (and publish to replication ourselves — with a
                        # writer, the writer does both post-fsync).
                        if self._wal is not None:
                            self._wal.append(commit_ts, txn.journal)
                        self.replication.note_commit(
                            commit_ts, list(txn.journal)
                        )
            if ticket is not None:
                # Block for the batch's shared append+fsync *outside*
                # the close lock; writer-side failures (including
                # injected crashes) re-raise here, before any ack.
                with self.observability.tracer.span("engine.commit.durable_wait"):
                    ticket.wait()
        repl = self.replication
        if (
            txn.journal
            and repl.role == "primary"
            and repl.config.sync_commit
            and repl.replicas
        ):
            # Semi-synchronous replication: hold the acknowledgement
            # until a replica has applied this commit.  On timeout the
            # transaction IS durably committed locally — the caller
            # must treat the outcome as unconfirmed, not failed, which
            # is why ReplicationTimeout is never retryable.
            with self.observability.tracer.span("repl.sync_wait"):
                if not repl.wait_replicated(
                    commit_ts, repl.config.sync_timeout
                ):
                    from repro.errors import ReplicationTimeout

                    raise ReplicationTimeout(
                        f"commit {commit_ts} is durable on the primary but "
                        f"no replica acknowledged applying it within "
                        f"{repl.config.sync_timeout}s"
                    )
        with self._gc_lock:
            self._commits_since_gc += 1
            due = (
                self._gc_interval > 0
                and self._commits_since_gc >= self._gc_interval
            )
            if due:
                self._commits_since_gc = 0
        if due:
            try:
                self.collect_garbage()
            except StorageError as exc:
                # The transaction is already durably committed; a
                # failed *epoch* must not read as a failed commit.  The
                # epoch's transactions were requeued (no history loss)
                # and the breaker counted the failure — record and
                # move on.
                self._gc_deferred_errors += 1
                self._gc_bg_last_error = repr(exc)
        return commit_ts

    def abort(self, txn: Transaction) -> None:
        """Roll back all of the transaction's changes."""
        self.manager.abort(txn)

    @contextmanager
    def transaction(self, timeout: Optional[float] = None):
        """``with db.transaction() as txn`` — commit on success,
        roll back on exception.

        Retry-friendly: if the commit itself fails (e.g. a
        :class:`~repro.errors.SerializationConflict`), the transaction
        is cleanly aborted before the original exception propagates —
        never left active to pin the GC watermark, and never
        double-aborted.
        """
        txn = self.begin(timeout=timeout)
        try:
            yield txn
        except BaseException:
            if txn.is_active:
                self.abort(txn)
            raise
        else:
            if txn.is_active:
                try:
                    self.commit(txn)
                except BaseException:
                    if txn.is_active:
                        try:
                            self.abort(txn)
                        except TransactionError:
                            pass  # never mask the commit failure
                    raise

    def run_transaction(
        self,
        fn,
        policy: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
    ):
        """Run ``fn(txn)`` in a transaction, retrying serialization
        conflicts; returns ``fn``'s result.

        The closure is re-executed from a fresh snapshot after each
        :class:`~repro.errors.SerializationConflict` (whether raised
        from a write or from the commit), waiting per ``policy`` —
        capped exponential backoff with jitter,
        ``ResilienceConfig.retry`` by default.  ``fn`` must therefore
        be safe to re-run; all other exceptions roll back and propagate
        immediately.  Once ``policy.max_attempts`` attempts are
        exhausted the last conflict is re-raised.
        """
        ctrl = self.resilience
        if policy is None:
            policy = ctrl.config.retry
        attempt = 0
        retried = False
        while True:
            attempt += 1
            txn = self.begin(timeout=timeout)
            try:
                result = fn(txn)
                if txn.is_active:
                    self.commit(txn)
                return result
            except SerializationConflict:
                if txn.is_active:
                    self.abort(txn)
                ctrl.note_conflict_retry()
                if not retried:
                    retried = True
                    ctrl.note_transaction_retried()
                if attempt >= policy.max_attempts:
                    ctrl.note_retries_exhausted()
                    raise
                policy.backoff(attempt)
            except BaseException:
                if txn.is_active:
                    self.abort(txn)
                raise

    # -- deadlines / watchdog ----------------------------------------------

    def sweep_expired(self) -> int:
        """Abort every active transaction past its deadline; returns
        the number aborted.

        This is the watchdog's work function — exposed so tests (and
        deployments with their own schedulers) can run it
        deterministically.  An aborted transaction stops pinning
        ``oldest_active_start_ts()``, so the next GC epoch can reclaim
        and migrate everything it was holding back.
        """
        now = self.resilience.clock()
        aborted = 0
        for txn in self.manager.expired_transactions(now):
            txn.expired = True
            try:
                self.manager.abort(txn)
            except TransactionError:
                txn.expired = False  # lost the race with commit/abort
                continue
            aborted += 1
        if aborted:
            self.resilience.note_watchdog_aborts(aborted)
        return aborted

    def _ensure_watchdog(self) -> None:
        """Start the deadline-watchdog daemon (idempotent).

        ``ResilienceConfig.watchdog_interval == 0`` disables the
        thread; deadlines are then enforced only by explicit
        :meth:`sweep_expired` calls.
        """
        interval = self.resilience.config.watchdog_interval
        if interval <= 0 or self._closed:
            return
        if self._watchdog_thread is not None and self._watchdog_thread.is_alive():
            return
        self._watchdog_stop = threading.Event()
        stop = self._watchdog_stop

        def loop() -> None:
            while not stop.wait(interval):
                try:
                    self.sweep_expired()
                except Exception:  # noqa: BLE001 — the watchdog must survive
                    pass

        self._watchdog_thread = threading.Thread(target=loop, daemon=True)
        self._watchdog_thread.start()

    def _stop_watchdog(self) -> None:
        if self._watchdog_thread is None:
            return
        self._watchdog_stop.set()
        self._watchdog_thread.join()
        self._watchdog_thread = None
        self._watchdog_stop = None

    def now(self) -> int:
        """The next commit timestamp the engine would assign; queries
        `as of now()` see everything committed so far."""
        return self.manager.oracle.peek()

    # -- garbage collection / migration -----------------------------------------

    def collect_garbage(self) -> int:
        """Run one GC epoch (with migration when temporal support is
        on); returns the number of undo deltas reclaimed."""
        return self.gc.collect()

    def prune_history(self, before_ts: int) -> int:
        """Retention: permanently drop historical versions that ended
        at or before ``before_ts``.

        Returns the number of history records removed.  Versions still
        current at ``before_ts`` (and everything newer) remain fully
        queryable.  With durability enabled, run :meth:`checkpoint`
        afterwards — otherwise a WAL replay would resurrect the pruned
        history.
        """
        self._require_temporal()
        return self.history.prune(before_ts)

    def start_background_gc(
        self,
        interval_seconds: float = 0.05,
        max_backoff_seconds: float = 1.0,
    ) -> None:
        """Run garbage collection periodically on a daemon thread.

        This is the paper's deployment model: migration happens
        asynchronously to user transactions ("is lightweight to the
        original databases").  Synchronous commit-count triggering is
        disabled while the thread runs.

        A failing epoch (e.g. an I/O error from the history store) no
        longer kills the thread silently: the exception is counted and
        recorded (see ``metrics()["gc"]``) and the loop retries with
        exponentially growing delay, capped at ``max_backoff_seconds``,
        resetting to the base cadence after the next clean epoch.
        """
        if self._gc_thread is not None:
            return
        self._gc_stop = threading.Event()
        self._gc_interval = 0

        def loop() -> None:
            delay = interval_seconds
            while not self._gc_stop.wait(delay):
                try:
                    self.gc.collect()
                    delay = interval_seconds
                except Exception as exc:  # noqa: BLE001 — record, back off, retry
                    self._gc_bg_errors += 1
                    self._gc_bg_last_error = repr(exc)
                    delay = min(delay * 2, max_backoff_seconds)

        self._gc_thread = threading.Thread(target=loop, daemon=True)
        self._gc_thread.start()

    def stop_background_gc(self) -> None:
        """Stop the background collector and run one final epoch
        (skipped when the engine is already closed)."""
        if self._gc_thread is None:
            return
        self._gc_stop.set()
        self._gc_thread.join()
        self._gc_thread = None
        if not self._closed:
            self.gc.collect()

    # -- integrity scrubbing ------------------------------------------------

    def scrub(self, budget: Optional[int] = None) -> IntegrityReport:
        """One incremental integrity pass over the history store.

        Checks up to ``budget`` objects (freshly migrated ones first,
        then resuming a round-robin cursor), repairing and quarantining
        as needed; see :mod:`repro.integrity` and
        ``metrics()["integrity"]``.
        """
        return self.scrubber.scrub(budget)

    def scrub_full(self) -> IntegrityReport:
        """Verify (and repair) every object in the history store."""
        return self.scrubber.scrub_full()

    def start_background_scrub(
        self,
        interval_seconds: float = 0.1,
        budget: Optional[int] = None,
        max_backoff_seconds: float = 2.0,
    ) -> None:
        """Run the integrity scrubber periodically on a daemon thread.

        Same shape as :meth:`start_background_gc`: budgeted passes at a
        fixed cadence, exceptions recorded and retried with capped
        exponential backoff rather than killing the thread.
        """
        if self._scrub_thread is not None:
            return
        self._scrub_stop = threading.Event()

        def loop() -> None:
            delay = interval_seconds
            while not self._scrub_stop.wait(delay):
                try:
                    self.scrubber.scrub(budget)
                    delay = interval_seconds
                except Exception as exc:  # noqa: BLE001 — record, back off, retry
                    self._scrub_bg_errors += 1
                    self._scrub_bg_last_error = repr(exc)
                    delay = min(delay * 2, max_backoff_seconds)

        self._scrub_thread = threading.Thread(target=loop, daemon=True)
        self._scrub_thread.start()

    def stop_background_scrub(self) -> None:
        """Stop the background scrubber thread (no final pass — scrub
        state is resumable, the next pass picks up where this left off)."""
        if self._scrub_thread is None:
            return
        self._scrub_stop.set()
        self._scrub_thread.join()
        self._scrub_thread = None

    def _reclaim_record(self, record) -> None:
        self.storage.drop_record(record)
        self.migrator.forget_object(record.kind, record.gid)

    def _migrate_guarded(self, transactions) -> int:
        """``Migrate(CT)`` behind the history-store circuit breaker.

        While the breaker is open, raises
        :class:`~repro.errors.DegradedModeError` — the GC treats that
        as "pause": it requeues the epoch's transactions and reports a
        clean zero-work epoch.  Storage failures feed the breaker; once
        the reset timeout elapses the next epoch runs as the half-open
        probe, and its success restores full migration.
        """
        ctrl = self.resilience
        if not ctrl.breaker.allow():
            ctrl.note_migration_paused()
            raise DegradedModeError(
                "migration paused: history-store circuit breaker is open"
            )
        try:
            with self.observability.tracer.span("gc.migrate"):
                staged = self.migrator.migrate(transactions)
        except StorageError:
            ctrl.history_failed()
            raise
        ctrl.history_ok()
        return staged

    # -- writes (current store) ------------------------------------------------

    def create_vertex(
        self,
        txn: Transaction,
        labels: tuple[str, ...] | list[str] = (),
        properties: Optional[dict[str, Any]] = None,
        valid_time: Optional[tuple[int, int]] = None,
    ) -> int:
        """Insert a vertex; optional ``valid_time=(start, end)``."""
        properties = dict(properties or {})
        for name in properties:
            check_property_writable(name)
        if valid_time is not None:
            self._require_vt_model()
            check_valid_time_value(*valid_time)
            properties[VT_START_PROPERTY] = valid_time[0]
            properties[VT_END_PROPERTY] = valid_time[1]
        gid = self.storage.create_vertex(txn, labels, properties)
        txn.journal.append(("cv", gid, list(labels), properties))
        return gid

    def create_edge(
        self,
        txn: Transaction,
        from_gid: int,
        to_gid: int,
        edge_type: str,
        properties: Optional[dict[str, Any]] = None,
        valid_time: Optional[tuple[int, int]] = None,
    ) -> int:
        """Insert an edge; optional ``valid_time=(start, end)``."""
        properties = dict(properties or {})
        for name in properties:
            check_property_writable(name)
        if valid_time is not None:
            self._require_vt_model()
            check_valid_time_value(*valid_time)
            if self.enforce_vt_constraints:
                self._check_edge_vt(txn, from_gid, to_gid, Interval(*valid_time))
            properties[VT_START_PROPERTY] = valid_time[0]
            properties[VT_END_PROPERTY] = valid_time[1]
        gid = self.storage.create_edge(
            txn, from_gid, to_gid, edge_type, properties
        )
        txn.journal.append(
            ("ce", gid, from_gid, to_gid, edge_type, properties)
        )
        return gid

    def set_vertex_property(self, txn: Transaction, gid: int, name: str, value: Any) -> None:
        """Set (``value=None`` removes) a vertex property."""
        check_property_writable(name)
        self.storage.set_vertex_property(txn, gid, name, value)
        txn.journal.append(("svp", gid, name, value))

    def set_edge_property(self, txn: Transaction, gid: int, name: str, value: Any) -> None:
        """Set (``value=None`` removes) an edge property."""
        check_property_writable(name)
        self.storage.set_edge_property(txn, gid, name, value)
        txn.journal.append(("sep", gid, name, value))

    def add_label(self, txn: Transaction, gid: int, label: str) -> bool:
        added = self.storage.add_label(txn, gid, label)
        if added:
            txn.journal.append(("al", gid, label))
        return added

    def remove_label(self, txn: Transaction, gid: int, label: str) -> bool:
        removed = self.storage.remove_label(txn, gid, label)
        if removed:
            txn.journal.append(("rl", gid, label))
        return removed

    def delete_vertex(self, txn: Transaction, gid: int, detach: bool = True) -> None:
        self.storage.delete_vertex(txn, gid, detach=detach)
        txn.journal.append(("dv", gid, detach))

    def delete_edge(self, txn: Transaction, gid: int) -> None:
        self.storage.delete_edge(txn, gid)
        txn.journal.append(("de", gid))

    def set_valid_time(
        self,
        txn: Transaction,
        object_kind: str,
        gid: int,
        vt_start: int,
        vt_end: int,
    ) -> None:
        """Update an object's valid time (user-maintained timeline)."""
        self._require_vt_model()
        check_valid_time_value(vt_start, vt_end)
        if object_kind == "vertex":
            self.storage.set_vertex_property(txn, gid, VT_START_PROPERTY, vt_start)
            self.storage.set_vertex_property(txn, gid, VT_END_PROPERTY, vt_end)
            txn.journal.append(("svp", gid, VT_START_PROPERTY, vt_start))
            txn.journal.append(("svp", gid, VT_END_PROPERTY, vt_end))
        elif object_kind == "edge":
            if self.enforce_vt_constraints:
                edge = self.storage.get_edge(txn, gid)
                if edge is not None:
                    self._check_edge_vt(
                        txn, edge.from_gid, edge.to_gid, Interval(vt_start, vt_end)
                    )
            self.storage.set_edge_property(txn, gid, VT_START_PROPERTY, vt_start)
            self.storage.set_edge_property(txn, gid, VT_END_PROPERTY, vt_end)
            txn.journal.append(("sep", gid, VT_START_PROPERTY, vt_start))
            txn.journal.append(("sep", gid, VT_END_PROPERTY, vt_end))
        else:
            raise ValueError(f"unknown object kind {object_kind!r}")

    def _require_vt_model(self) -> None:
        if self.model == GraphModel.TRANSACTION_TIME:
            raise TemporalError(
                "valid time is not part of the transaction-time graph model"
            )

    def _check_edge_vt(
        self, txn: Transaction, from_gid: int, to_gid: int, vt: Interval
    ) -> None:
        """Constraint (2) of section 2.3: each endpoint's valid time must
        contain the edge's."""
        for gid in (from_gid, to_gid):
            vertex = self.storage.get_vertex(txn, gid)
            if vertex is None:
                continue  # existence is checked by create_edge itself
            vertex_vt = valid_time_of(vertex.properties)
            if vertex_vt is not None and not vertex_vt.contains(vt):
                raise ConstraintViolation(
                    f"edge valid time {vt} not contained in vertex {gid}'s "
                    f"valid time {vertex_vt}"
                )

    # -- non-temporal reads ----------------------------------------------------

    def get_vertex(self, txn: Transaction, gid: int) -> Optional[VertexView]:
        return self.storage.get_vertex(txn, gid)

    def get_edge(self, txn: Transaction, gid: int) -> Optional[EdgeView]:
        return self.storage.get_edge(txn, gid)

    def iter_vertices(self, txn: Transaction) -> Iterator[VertexView]:
        return self.storage.iter_vertices(txn)

    def iter_edges(self, txn: Transaction) -> Iterator[EdgeView]:
        return self.storage.iter_edges(txn)

    # -- temporal reads (transaction-time queries) ---------------------------------

    def _require_temporal(self) -> None:
        if not self.temporal:
            raise TemporalError(
                "this engine was built with temporal=False (TGDB-noT)"
            )

    def vertices_as_of(
        self,
        txn: Transaction,
        t: int,
        label: Optional[str] = None,
        prop: Optional[str] = None,
        value: Any = None,
    ) -> Iterator[VertexView]:
        """``TT SNAPSHOT t`` scan."""
        self._require_temporal()
        cond = TemporalCondition.as_of(t)
        return self.operators.scan_vertices(txn, cond, label, prop, value)

    def vertices_between(
        self,
        txn: Transaction,
        t1: int,
        t2: int,
        label: Optional[str] = None,
        prop: Optional[str] = None,
        value: Any = None,
    ) -> Iterator[VertexView]:
        """``TT BETWEEN t1 AND t2`` scan."""
        self._require_temporal()
        cond = TemporalCondition.between(t1, t2)
        return self.operators.scan_vertices(txn, cond, label, prop, value)

    def vertex_versions(
        self, txn: Transaction, gid: int, cond: TemporalCondition
    ) -> Iterator[VertexView]:
        """Versions of one vertex satisfying ``cond``."""
        self._require_temporal()
        return self.operators.vertex_versions(txn, gid, cond)

    def edge_versions(
        self, txn: Transaction, gid: int, cond: TemporalCondition
    ) -> Iterator[EdgeView]:
        """Versions of one edge satisfying ``cond``."""
        self._require_temporal()
        return self.operators.edge_versions(txn, gid, cond)

    def expand(
        self,
        txn: Transaction,
        vertex: VertexView,
        cond: TemporalCondition,
        direction: str = "out",
        edge_types: Optional[set[str]] = None,
    ) -> Iterator[tuple[EdgeView, VertexView]]:
        """Temporal expand from one vertex version (Algorithm 3)."""
        self._require_temporal()
        return self.operators.expand(txn, vertex, cond, direction, edge_types)

    def diff_vertex(
        self, txn: Transaction, gid: int, t1: int, t2: int
    ) -> Optional[dict[str, Any]]:
        """What changed on a vertex between two instants.

        Returns ``None`` when the vertex exists at neither instant;
        otherwise a dict with ``added`` / ``removed`` / ``changed``
        property maps (changed maps to ``(old, new)`` tuples),
        ``labels_added`` / ``labels_removed``, and ``existence`` —
        ``"created"``, ``"deleted"`` or ``"unchanged"`` over the span.
        A typical audit primitive: "what did this account change
        between the two statements?"
        """
        self._require_temporal()
        before = next(
            iter(self.operators.vertex_versions(txn, gid, TemporalCondition.as_of(t1))),
            None,
        )
        after = next(
            iter(self.operators.vertex_versions(txn, gid, TemporalCondition.as_of(t2))),
            None,
        )
        if before is None and after is None:
            return None
        old_props = before.properties if before is not None else {}
        new_props = after.properties if after is not None else {}
        old_labels = before.labels if before is not None else set()
        new_labels = after.labels if after is not None else set()
        if before is None:
            existence = "created"
        elif after is None:
            existence = "deleted"
        else:
            existence = "unchanged"
        return {
            "existence": existence,
            "added": {
                name: value
                for name, value in new_props.items()
                if name not in old_props
            },
            "removed": {
                name: value
                for name, value in old_props.items()
                if name not in new_props
            },
            "changed": {
                name: (old_props[name], value)
                for name, value in new_props.items()
                if name in old_props and old_props[name] != value
            },
            "labels_added": sorted(new_labels - old_labels),
            "labels_removed": sorted(old_labels - new_labels),
        }

    def metrics(self) -> dict[str, Any]:
        """Operational counters across every component (monitoring).

        Safe to call at any time, including on a closed engine and
        concurrently with :meth:`close`: nullable components (WAL,
        background threads) are read once into locals, so a close
        racing between the None-check and the attribute access cannot
        raise.
        """
        from repro import backup as backup_module

        kv_stats = self.history.kv.stats
        wal = self._wal
        writer = self._wal_writer
        gc_thread = self._gc_thread
        scrub_thread = self._scrub_thread
        if writer is not None:
            write_path = writer.metrics()
        else:
            write_path = {
                "enabled": False,
                "commits_submitted": 0,
                "batches_written": 0,
                "records_written": 0,
                "max_batch": 0,
                "avg_batch": 0.0,
                "queue_depth": 0,
                "queue_limit": 0,
                "backpressure_waits": 0,
                "batch_errors": 0,
            }
        records = wal.records_appended if wal is not None else 0
        fsyncs = wal.fsyncs if wal is not None else 0
        write_path.update(
            {
                "frames_appended": (
                    wal.frames_appended if wal is not None else 0
                ),
                "fsyncs": fsyncs,
                "fsyncs_per_commit": (
                    round(fsyncs / records, 4) if records else 0.0
                ),
            }
        )
        return {
            "transactions": {
                "active": self.manager.active_count,
                "pending_gc": len(self.manager.committed_pending_gc),
                "next_timestamp": self.manager.oracle.peek(),
            },
            "gc": {
                "runs": self.gc.runs,
                "deltas_reclaimed": self.gc.deltas_reclaimed,
                "epochs_paused": self.gc.epochs_paused,
                "background_running": gc_thread is not None
                and gc_thread.is_alive(),
                "background_errors": self._gc_bg_errors,
                "background_last_error": self._gc_bg_last_error,
                "deferred_errors": self._gc_deferred_errors,
            },
            "migration": {
                "epochs": self.migrator.migrations,
                "parallel_epochs": self.migrator.parallel_epochs,
                "workers": self.migrator.workers,
                "failed_epochs": self.migrator.failed_epochs,
                "transactions_migrated": self.migrator.transactions_migrated,
                "records_written": self.history.records_written,
                "anchors_written": self.history.anchors_written,
            },
            "resilience": self.resilience.metrics(),
            "integrity": {
                **self.scrubber.metrics(),
                "background_running": scrub_thread is not None
                and scrub_thread.is_alive(),
                "background_errors": self._scrub_bg_errors,
                "background_last_error": self._scrub_bg_last_error,
            },
            "history_kv": {
                "puts": kv_stats.puts,
                "gets": kv_stats.gets,
                "seeks": kv_stats.seeks,
                "range_scans": kv_stats.range_scans,
                "flushes": kv_stats.flushes,
                "compactions": kv_stats.compactions,
                "batch_writes": kv_stats.batch_writes,
                "bytes": self.history.storage_bytes(),
            },
            "read_path": self.history.read_path_metrics(),
            "operators": self.operators.stats.as_dict(),
            "query": self.plans.metrics(),
            "observability": self.observability.self_metrics(),
            "caches": {
                "objects": len(self.history._object_cache),
                "mentions": len(self.history._mention_cache),
            },
            "current_store": {
                "vertices": self.storage.vertex_count(),
                "edges": self.storage.edge_count(),
                "bytes": self.storage.approximate_bytes(),
            },
            "wal": {
                "enabled": wal is not None,
                "records": (wal.records_appended if wal is not None else 0),
                "durability_mode": self.durability_mode,
            },
            "write_path": write_path,
            "replication": self.replication.metrics(),
            "backup": backup_module.backup_metrics(),
            "restore": backup_module.restore_metrics(),
            "resync": self.replication.resync_metrics(
                self.observability.registry
            ),
            "recovery": (
                self.last_recovery.as_dict()
                if self.last_recovery is not None
                else None
            ),
        }

    # -- query language -----------------------------------------------------------

    def execute(
        self,
        query: str,
        parameters: Optional[dict[str, Any]] = None,
        txn: Optional[Transaction] = None,
    ) -> list[dict[str, Any]]:
        """Run one query in the Cypher-ish surface language.

        Without an explicit ``txn`` the query runs in its own
        transaction (committed on success).
        """
        from repro.query.executor import execute_query, statement_prefix

        if txn is not None:
            return execute_query(self, txn, query, parameters)
        if statement_prefix(query) == "EXPLAIN":
            # EXPLAIN only plans — no transaction, no commit timestamp.
            return execute_query(self, None, query, parameters)
        # An implicit transaction is re-runnable by construction (the
        # whole statement re-executes from a fresh snapshot), so route
        # it through the conflict-retry loop.
        return self.run_transaction(
            lambda own: execute_query(self, own, query, parameters)
        )

    def compile(self, query: str):
        """The :class:`~repro.query.planner.Plan` for a statement.

        Served from the engine's bounded plan cache: only the first
        call for a statement text (per index set) parses and plans.
        An ``EXPLAIN``/``PROFILE`` prefix is ignored.  :meth:`execute`,
        ``PROFILE``, ``EXPLAIN`` and the server's ``prepare`` all plan
        through here.
        """
        return self.plans.compile(self, query)

    @property
    def last_read_degraded(self) -> bool:
        """Whether this thread's latest statement fell back to
        current-only results because the history store is degraded
        (``degraded_reads="current-only"``).  Cleared at the start of
        each :meth:`execute` call."""
        return self.resilience.last_read_degraded

    # -- durability (write-ahead log) --------------------------------------------

    def attach_wal(self, directory, wal) -> None:
        """Start journaling committed transactions to ``wal``.

        With ``group_commit=True`` this also starts the async
        group-commit writer thread; commits from here on are batched.
        """
        from pathlib import Path

        self._durability_dir = Path(directory)
        self._wal = wal
        if self.group_commit:
            from repro.core.write_path import GroupCommitWriter

            self._wal_writer = GroupCommitWriter(
                wal,
                replication=self.replication,
                tracer=self.observability.tracer,
                queue_limit=self.resilience.config.wal_queue_limit,
            )

    def detach_wal(self) -> None:
        """Stop journaling and close the WAL, keeping the engine open.

        The resync bootstrap's first step: the replica's stale log is
        about to be replaced wholesale, so no commit may append to it
        past this point.  ``_durability_dir`` is kept — the directory
        is still this engine's home."""
        with self._close_lock:
            wal = self._wal
            writer = self._wal_writer
            self._wal = None
            self._wal_writer = None
        if writer is not None:
            writer.stop()  # drains: every submitted record is persisted
        if wal is not None:
            wal.close()

    # -- replication (apply path + WAL shipping support) --------------------

    def apply_replicated(self, commit_ts: int, ops: list[tuple]) -> bool:
        """Apply one shipped WAL record at its original commit timestamp.

        The replica's write path: a replay transaction
        (:meth:`TransactionManager.begin_replay`) re-executes the
        primary's logical operations and commits at the *forced*
        ``commit_ts``, so the replica's transaction-time history is
        bit-for-bit the primary's.  **Idempotent**: a record at or
        below the applied watermark (``oracle.peek() - 1``) is a no-op
        returning False — re-shipping an overlapping range (resumed
        stream, checkpoint-fence overlap) cannot double-apply.  The
        record is also journaled to this node's own WAL, so a replica
        restart recovers its applied prefix locally.
        """
        with self._close_lock:
            if self._closed:
                raise StorageError("engine is closed")
            if commit_ts < self.manager.oracle.peek():
                return False
            with self.observability.tracer.span("repl.apply"):
                txn = self.manager.begin_replay()
                try:
                    from repro.core.durability import _apply_op

                    for op in ops:
                        _apply_op(self, txn, op)
                except BaseException:
                    if txn.is_active:
                        self.manager.abort(txn)
                    raise
                txn.journal = [tuple(op) for op in ops]
                self.manager.commit(txn, commit_ts=commit_ts)
                if self._wal is not None and txn.journal:
                    self._wal.append(commit_ts, txn.journal)
                self.replication.note_commit(commit_ts, list(txn.journal))
        self.replication.note_applied()
        return True

    def adopt_snapshot_state(self, donor: "AeonG") -> None:
        """Replace this engine's graph, history, and clock state with
        ``donor``'s — the replica-resync bootstrap.

        ``donor`` is a freshly opened engine (typically
        :meth:`AeonG.open` over a just-restored snapshot) that is
        *consumed*: its storage, transaction manager, history store,
        migrator, operators, scrubber, and WAL now belong to this
        engine, and the donor shell is marked closed so a stray
        ``close()`` on it cannot close the adopted components.  The
        adopting engine keeps its own identity — resilience controller,
        observability registry, replication state (role/epoch/peers),
        background threads — so the serving layer's references and the
        registered metrics provider stay valid across the swap.

        Callers must have detached/discarded this engine's previous
        WAL (see :meth:`detach_wal`) before adopting a durable donor.
        """
        if donor is self:
            raise StorageError("an engine cannot adopt itself")
        with self._close_lock:
            if self._closed:
                raise StorageError("engine is closed")
            old_wal = self._wal
            old_writer = self._wal_writer
            self._wal_writer = None
            # The donor's writer targets the donor's replication state;
            # stop it (its queue is empty — the donor never served
            # commits) and run a fresh one bound to this engine.
            donor_writer = donor._wal_writer
            donor._wal_writer = None
            if donor_writer is not None:
                donor_writer.stop()
            self.storage = donor.storage
            self.manager = donor.manager
            self.history = donor.history
            self.anchor_policy = donor.anchor_policy
            self.migrator = donor.migrator
            self.operators = donor.operators
            self.scrubber = donor.scrubber
            # Cached plans were keyed by the old storage's index epoch.
            self.plans.clear()
            # Rewire the adopted components onto this engine's
            # cross-cutting services, exactly as ``__init__`` does.
            self.history.resilience = self.resilience
            self.history.tracer = self.observability.tracer
            self.history.kv.tracer = self.observability.tracer
            self.scrubber.resilience = self.resilience
            self.migrator.on_migrated = self.scrubber.note_migrated
            from repro.mvcc.gc import GarbageCollector

            self.gc = GarbageCollector(
                self.manager,
                migrate_hook=(
                    self._migrate_guarded if self.temporal else None
                ),
                reclaim_object_hook=self._reclaim_record,
            )
            self._wal = donor._wal
            if donor._durability_dir is not None:
                self._durability_dir = donor._durability_dir
            self._wal_truncation_fence = donor._wal_truncation_fence
            self.last_recovery = donor.last_recovery
            self._commits_since_gc = 0
            # Neutralize the donor shell: its components live here now.
            donor._wal = None
            donor._closed = True
            if self._wal is not None and self.group_commit:
                from repro.core.write_path import GroupCommitWriter

                self._wal_writer = GroupCommitWriter(
                    self._wal,
                    replication=self.replication,
                    tracer=self.observability.tracer,
                    queue_limit=self.resilience.config.wal_queue_limit,
                )
        if old_writer is not None:
            old_writer.stop()
        if old_wal is not None:
            old_wal.close()
        self.replication.reset_after_bootstrap()
        self.replication.note_applied()

    def wal_records_from(self, from_ts: int):
        """WAL records with ``commit_ts >= from_ts`` for the shipping
        stream's catch-up path; ``None`` when no WAL is attached."""
        wal = self._wal
        if wal is None:
            return None
        return wal.records_from(from_ts)

    def wal_truncation_fence(self) -> int:
        """Highest commit timestamp truncated out of the WAL (0 when
        every record ever journaled is still scannable)."""
        return self._wal_truncation_fence

    def checkpoint(self) -> None:
        """Snapshot the engine and truncate the WAL (bounds recovery).

        Requires durability to be enabled and quiescence (like
        :meth:`save`).  The install is crash-safe at every step:

        1. the snapshot is written to ``checkpoint.tmp`` (each file
           atomically; ``meta.bin`` last);
        2. the current ``checkpoint`` is retired to ``checkpoint.old``;
        3. ``checkpoint.tmp`` is atomically renamed to ``checkpoint``;
        4. ``checkpoint.old`` is removed;
        5. the WAL is truncated.

        A crash before (3) recovers from the old checkpoint (directly
        or via the ``checkpoint.old`` fallback) plus the intact WAL; a
        crash after (3) recovers from the new checkpoint, and any WAL
        records it already contains are skipped by the replay fence —
        so no window loses or double-applies a committed transaction.
        """
        import shutil

        from repro.core.durability import (
            CHECKPOINT_DIRNAME,
            CHECKPOINT_OLD_DIRNAME,
            CHECKPOINT_TMP_DIRNAME,
        )
        from repro.core.persistence import save_engine
        from repro.faults import FAILPOINTS

        if self._wal is None or self._durability_dir is None:
            raise StorageError("checkpoint requires durability_dir")
        writer = self._wal_writer
        if writer is not None:
            # Quiesce the async write path: every acknowledged commit
            # must be in the WAL before the snapshot that supersedes it.
            writer.flush()
        primary = self._durability_dir / CHECKPOINT_DIRNAME
        tmp = self._durability_dir / CHECKPOINT_TMP_DIRNAME
        old = self._durability_dir / CHECKPOINT_OLD_DIRNAME
        for stale in (tmp, old):
            if stale.exists():
                shutil.rmtree(stale)
        save_engine(self, tmp, storage_io=self._storage_io)
        if primary.exists():
            self._storage_io.rename(primary, old, "checkpoint.retire")
        self._storage_io.rename(tmp, primary, "checkpoint.install")
        FAILPOINTS.check("checkpoint.cleanup")
        if old.exists():
            shutil.rmtree(old)
        # WAL truncation is fenced by replication: records a registered
        # replica has not acknowledged must survive the checkpoint, or
        # the replica could never catch up without a full resync.
        retain_ts = self.replication.wal_retain_ts()
        if retain_ts is None:
            self._wal_truncation_fence = max(
                self._wal_truncation_fence, self.manager.oracle.peek() - 1
            )
            self._wal.truncate()
        else:
            _dropped, fence = self._wal.truncate_keep_from(retain_ts)
            if fence:
                self._wal_truncation_fence = max(
                    self._wal_truncation_fence, fence
                )

    @classmethod
    def open(cls, directory, **engine_kwargs) -> "AeonG":
        """Open (or create) a durable engine rooted at ``directory``:
        load the newest checkpoint, replay the write-ahead log with the
        original commit timestamps and gids, continue journaling.

        Accepts ``durability_mode="fsync"|"flush"`` and
        ``strict_recovery=True`` (raise :class:`CorruptionError` on
        interior WAL damage instead of flagging it).  The resulting
        engine's ``last_recovery`` is a
        :class:`~repro.core.durability.RecoveryReport`.
        """
        from repro.core.durability import open_engine

        return open_engine(directory, **engine_kwargs)

    def close(self) -> None:
        """Stop background work and close the WAL (idempotent).

        Ordering matters: the background GC thread is stopped *first*
        (its final epoch still runs against the open engine), then the
        watchdog, then the WAL.  After ``close()`` returns, further
        :meth:`begin` calls raise :class:`~repro.errors.StorageError`
        and a second ``close()`` is a no-op.
        """
        if self._closed:
            return
        self.stop_background_scrub()
        self.stop_background_gc()
        self._stop_watchdog()
        # Flip the flag and detach the WAL under the close lock: an
        # in-flight commit either finishes its submission first (we
        # wait for the lock) or observes the closed flag and aborts
        # cleanly.  The writer is stopped *before* the WAL closes —
        # stop() drains the queue, so every record a committer is still
        # waiting on gets durably written and acknowledged.
        with self._close_lock:
            self._closed = True
            wal = self._wal
            writer = self._wal_writer
            self._wal = None
            self._wal_writer = None
        if writer is not None:
            writer.stop()
        if wal is not None:
            wal.close()
        self.migrator.close()

    # -- persistence ----------------------------------------------------------------

    def save(self, directory) -> None:
        """Snapshot the whole engine (current store + history + clocks)
        to a directory.  Requires quiescence; see
        :mod:`repro.core.persistence`."""
        from repro.core.persistence import save_engine

        save_engine(self, directory)

    @classmethod
    def load(cls, directory, **engine_kwargs) -> "AeonG":
        """Rebuild an engine saved with :meth:`save`.  Indexes are not
        persisted — recreate them after loading."""
        from repro.core.persistence import load_engine

        return load_engine(directory, **engine_kwargs)

    def metrics_text(self) -> str:
        """Every metric in the Prometheus text exposition format.

        The registry flattens :meth:`metrics` sections into
        ``aeong_<section>_<field>`` samples and appends the native
        counters and span/statement histograms; also served by the
        ``aeong metrics DIR`` CLI subcommand.
        """
        return self.observability.registry.prometheus_text()

    def explain_tree(self, query: str) -> list[str]:
        """The operator tree for a statement, rendered as the indented
        ``EXPLAIN`` lines (see ``docs/OBSERVABILITY.md``), without
        executing anything.  :meth:`explain` keeps the original flat
        one-operator-per-line format."""
        from repro.query.profiler import explain_tree

        return explain_tree(self, query)

    def profile(self, query: str, parameters=None, txn: Optional[Transaction] = None):
        """Execute a statement with per-operator instrumentation.

        Returns a :class:`~repro.query.profiler.ProfileResult` —
        ``result.table()`` is what a ``PROFILE <stmt>`` statement
        returns through :meth:`execute`, and ``result.tree()`` is the
        annotated operator tree.  Without an explicit ``txn`` the
        statement runs in its own transaction (committed on success,
        conflict-retried like :meth:`execute`).
        """
        from repro.query.profiler import execute_profiled

        if txn is not None:
            return execute_profiled(self, txn, query, parameters)
        return self.run_transaction(
            lambda own: execute_profiled(self, own, query, parameters)
        )

    def explain(self, query: str) -> list[str]:
        """The physical plan for a statement, one operator per line.

        Plans against the current schema (indexes change scan choices),
        without executing anything.
        """
        plan = self.compile(query)
        lines = plan.describe()
        if plan.tt is not None:
            kind = "SNAPSHOT" if plan.tt.kind == "snapshot" else "BETWEEN"
            lines.append(f"Temporal(TT {kind})")
        if plan.returns is not None:
            modifiers = []
            if plan.returns.distinct:
                modifiers.append("DISTINCT")
            if plan.returns.order_by:
                modifiers.append("ORDER BY")
            if plan.returns.limit is not None:
                modifiers.append("LIMIT")
            suffix = f" [{', '.join(modifiers)}]" if modifiers else ""
            lines.append(f"Produce({len(plan.returns.items)} columns){suffix}")
        return lines

    # -- indexes -------------------------------------------------------------------

    def create_label_index(self, label: str) -> None:
        self.storage.create_label_index(label)

    def create_label_property_index(self, label: str, prop: str) -> None:
        self.storage.create_label_property_index(label, prop)

    def create_unique_constraint(self, label: str, prop: str) -> None:
        """Enforce uniqueness of ``prop`` among ``:label`` vertices.

        Like indexes, constraints are in-memory schema: recreate them
        after :meth:`load`/:meth:`open`.
        """
        self.storage.create_unique_constraint(label, prop)

    def drop_unique_constraint(self, label: str, prop: str) -> None:
        self.storage.drop_unique_constraint(label, prop)

    # -- accounting ---------------------------------------------------------------

    def storage_report(self) -> StorageReport:
        """Byte-accurate storage breakdown (used by the benchmarks)."""
        return StorageReport(
            current_bytes=self.storage.approximate_bytes(),
            history_bytes=self.history.storage_bytes(),
            vertex_count=self.storage.vertex_count(),
            edge_count=self.storage.edge_count(),
            history_records=self.history.records_written,
            anchors=self.history.anchors_written,
        )
