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

from repro.core.history_store import HistoricalStore
from repro.core.maintenance import Maintenance
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
from repro.core.write_path import GroupCommitWriter
from repro.core.write_path import metrics as write_path_metrics
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
        value the paper recommends for TPC-DS).  The records are
        counted in the history store, so the cadence continues across
        a reopen and a replica resync.
    gc_interval_transactions:
        Request one garbage-collection epoch, run off the committer by
        :mod:`~repro.core.maintenance`, after this many commits; 0
        disables automatic collection (call :meth:`collect_garbage`).
    model:
        Which temporal dimensions the graph carries (section 2.1).
    enforce_vt_constraints:
        Check section 2.3's valid-time constraint — an edge's valid
        time must lie within both endpoints' — on edge creation and
        valid-time updates.
    kv:
        Inject the history store's key-value store (e.g. one a test
        already holds, to read its stats or data directly).
    reconstruction_cache_size:
        Maximum objects the history store keeps in memory: each one's
        record lists, scan mentions and reconstructed version list, in
        one epoch-checked LRU.  It bounds every per-object read
        structure; 0 keeps nothing between reads (every temporal read
        loads its records from the KV store and replays its
        anchor+delta chain).
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
        resilience: Optional[ResilienceConfig] = None,
        observability: Optional[ObservabilityConfig] = None,
        replication: Optional[ReplicationConfig] = None,
    ) -> None:
        from repro.faults import StorageIO

        self.temporal = temporal
        self.model = model
        self.enforce_vt_constraints = enforce_vt_constraints
        self.durability_mode = durability_mode
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
        if anchor_interval < 0:
            raise ValueError("anchor interval must be >= 0 (0 disables)")
        self.anchor_interval = anchor_interval
        self.migrator = Migrator(self.storage, self.history, anchor_interval)
        self.operators = TemporalOperators(self.storage, self.history)
        #: statement text -> plan (see :meth:`compile`)
        self.plans = PlanCache()
        self._wire_components()
        self._gc_interval = gc_interval_transactions
        #: The one background thread: watchdog, GC epochs, and the
        #: tasks satellites add (an attached scrubber's passes).
        self.maintenance = Maintenance(self.sweep_expired, self.collect_garbage)
        self._closed = False
        # Serializes the closed-state transition against transaction
        # starts and the commit+WAL critical section, so a shutdown
        # racing an in-flight commit can neither strand a zombie
        # transaction nor close the WAL under an acknowledged append.
        self._close_lock = threading.Lock()
        #: The group-commit writer over the attached WAL; None when
        #: durability is off (commits then only publish to replication).
        self._wal_writer = None
        self._durability_dir = None
        #: RecoveryReport from :meth:`open`, None for a fresh engine.
        self.last_recovery = None
        #: Highest commit timestamp known to have been truncated out of
        #: the WAL — a replica fetching at or below this must resync.
        self._wal_truncation_fence = 0
        # metrics() is the registry's sections: the core's first, then
        # those each satellite registers when it attaches.
        self.observability.registry.register_provider(
            lambda: _core_sections(self)
        )
        #: Replication role/epoch/fence/peer state (every engine has
        #: one; a standalone node is a primary with no replicas).
        self.replication = ReplicationState(replication)
        self.replication.attach(self)
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
            # (watchdog_interval == 0: only sweep_expired() enforces it)
            m = self.maintenance
            m.schedule(m.watchdog, ctrl.config.watchdog_interval)
        return txn

    def commit(self, txn: Transaction) -> int:
        """Commit; returns the commit timestamp (= the new TT.st).

        On a durable engine the close lock covers only the MVCC commit
        and the *enqueue* of the journal record on the group-commit
        writer (:mod:`repro.core.write_path`) — never the WAL append or
        fsync.  Outside the lock this call waits on its ticket: if no
        other committer is writing, it leads — appends and syncs the
        pending batch itself, alone when uncontended; otherwise it
        sleeps until a leader's shared fsync covers it.  Concurrent
        readers and committers proceed while a slow device syncs, and
        the commit is acknowledged only once durable.
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
                        # No WAL: nothing to make durable, publish now.
                        self.replication.note_commit(
                            commit_ts, list(txn.journal)
                        )
            if ticket is not None:
                # Lead or await the batch's shared append+fsync
                # *outside* the close lock; write failures (including
                # injected crashes) re-raise here, before any ack.
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
        self._gc_tick()
        return commit_ts

    def _gc_tick(self, inline: bool = False) -> None:
        """Count one commit towards the GC cadence: every
        ``gc_interval_transactions`` commits, one epoch.  It runs on the
        maintenance thread, and this waits only if the epoch requested
        one interval ago is still running; ``inline`` runs it on the
        caller (recovery's replay, which owns the engine alone)."""
        if self._gc_interval > 0:
            m = self.maintenance
            (m.run_due if inline else m.request)(m.gc, self._gc_interval)

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
        """Also run a GC epoch every ``interval_seconds`` on the
        maintenance thread; a failed epoch is recorded (see
        ``metrics()["gc"]``) and retried with doubling delay, capped
        at ``max_backoff_seconds``, until a clean one."""
        m = self.maintenance
        m.schedule(m.gc, interval_seconds, max_backoff_seconds)

    def stop_background_gc(self) -> None:
        """Stop the periodic epochs and run one final epoch (skipped
        when the engine is already closed)."""
        if self.maintenance.unschedule(self.maintenance.gc) and not self._closed:
            self.gc.collect()

    def _wire_components(self) -> None:
        """Wire the storage components to this engine's services and
        build their collector (at construction and after a resync)."""
        self.history.resilience = self.resilience
        self.history.tracer = self.history.kv.tracer = self.observability.tracer
        self.gc = GarbageCollector(
            self.manager,
            migrate_hook=self._migrate_guarded if self.temporal else None,
            reclaim_object_hook=self.storage.drop_record,
        )

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
        """Every section registered on the metrics registry: the core's
        (:func:`_core_sections`), then those satellites add when they
        attach (``replication``/``resync``, a scrubber's ``integrity``,
        a server's ``server``/``backup``/``restore``).  Safe at any
        time, even racing :meth:`close`; it first waits out the GC
        epochs requested before the call (at most two)."""
        return self.observability.registry.sections()

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

    @property
    def _wal(self):
        """The attached :class:`~repro.core.durability.EngineWal`, or
        None — always the one the commit path's writer appends to."""
        writer = self._wal_writer
        return writer.wal if writer is not None else None

    def attach_wal(self, directory, wal) -> None:
        """Start journaling committed transactions to ``wal``: from here
        on every commit is group-committed to it by a
        :class:`~repro.core.write_path.GroupCommitWriter` (committers
        lead their own batches; no thread is started)."""
        from pathlib import Path

        self._durability_dir = Path(directory)
        self._wal_writer = self._writer_for(wal)

    def _writer_for(self, wal):
        return GroupCommitWriter(
            wal,
            replication=self.replication,
            tracer=self.observability.tracer,
            queue_limit=self.resilience.config.wal_queue_limit,
        )

    @staticmethod
    def _retire_wal(writer) -> None:
        """Drain ``writer`` — every submitted commit is persisted and
        acknowledged — then close its WAL."""
        if writer is not None:
            writer.stop()
            writer.wal.close()

    def detach_wal(self) -> None:
        """Stop journaling and close the WAL, keeping the engine open.

        The resync bootstrap's first step: the replica's stale log is
        about to be replaced wholesale, so no commit may append to it
        past this point.  ``_durability_dir`` is kept — the directory
        is still this engine's home."""
        with self._close_lock:
            writer = self._wal_writer
            self._wal_writer = None
        self._retire_wal(writer)

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
                from repro.core.durability import apply_record

                txn = apply_record(self, commit_ts, ops, journal=True)
                if self._wal_writer is not None:
                    self._wal_writer.submit(commit_ts, txn.journal).wait()
                else:
                    self.replication.note_commit(commit_ts, list(txn.journal))
        self.replication.note_applied()
        # The live cadence, outside the close lock as in commit(): a
        # replica reclaims, and reads through anchors, like its primary.
        self._gc_tick()
        return True

    def adopt_snapshot_state(self, donor: "AeonG") -> None:
        """Replace this engine's graph, history, and clock state with
        ``donor``'s — the replica-resync bootstrap.

        ``donor`` is a freshly opened engine (typically
        :meth:`AeonG.open` over a just-restored snapshot) that is
        *consumed*: its storage, transaction manager, history store,
        migrator, operators, and WAL now belong to this engine, and the
        donor shell is marked closed so a stray ``close()`` on it
        cannot close the adopted components.  The adopting engine keeps
        its own identity — resilience controller, observability
        registry, replication state (role/epoch/peers), maintenance
        thread, the migrator's ``on_migrated`` hook, and the lifetime
        counts of its ``gc`` and ``migration`` sections — so the serving
        layer's references, registered metrics providers and attached
        satellites (a scrubber) stay valid across the swap, and no
        exported counter goes backwards.

        Callers must have detached/discarded this engine's previous
        WAL (see :meth:`detach_wal`) before adopting a durable donor.
        """
        if donor is self:
            raise StorageError("an engine cannot adopt itself")
        with self._close_lock:
            if self._closed:
                raise StorageError("engine is closed")
            old_writer = self._wal_writer
            old_gc, old_migrator = self.gc, self.migrator
            donor.migrator.on_migrated = self.migrator.on_migrated
            self.storage = donor.storage
            self.manager = donor.manager
            self.history = donor.history
            self.migrator = donor.migrator
            self.migrator.carry_counts(old_migrator)
            self.operators = donor.operators
            # Cached plans were keyed by the old storage's index epoch.
            self.plans.clear()
            self._wire_components()
            # The gc and migration sections are exported as gauges: they
            # continue this engine's counts, plus the donor's own epochs.
            self.gc.carry_counts(old_gc, donor.gc)
            # The donor's writer publishes to the donor's replication
            # state (and never served a commit); write the donor's WAL
            # through a writer bound to this engine instead.
            donor_wal = donor._wal
            self._wal_writer = (
                self._writer_for(donor_wal) if donor_wal is not None else None
            )
            if donor._durability_dir is not None:
                self._durability_dir = donor._durability_dir
            self._wal_truncation_fence = donor._wal_truncation_fence
            self.last_recovery = donor.last_recovery
            # Neutralize the donor shell: its components live here now.
            donor._wal_writer = None
            donor._closed = True
        donor.maintenance.stop()
        self._retire_wal(old_writer)
        self.replication.reset_after_bootstrap()
        self.replication.note_applied()

    def wal_records_from(self, from_ts: int, limit: Optional[int] = None):
        """At most ``limit`` WAL records with ``commit_ts >= from_ts``
        for the shipping stream's catch-up path; ``None`` when no WAL
        is attached."""
        wal = self._wal
        if wal is None:
            return None
        return wal.records_from(from_ts, limit)

    def wal_truncation_fence(self) -> int:
        """Highest commit timestamp truncated out of the WAL (0 when
        every record ever journaled is still scannable)."""
        return self._wal_truncation_fence

    def checkpoint(self) -> None:
        """Snapshot the engine and truncate the WAL (bounds recovery).

        Requires durability to be enabled and quiescence (like
        :meth:`save`).  The snapshot is installed crash-safely by
        :func:`~repro.core.durability.install_checkpoint`, then the WAL
        is truncated.  A crash before the install recovers from the old
        checkpoint plus the intact WAL; a crash after it recovers from
        the new checkpoint, and any WAL records it already contains are
        skipped by the replay fence — so no window loses or
        double-applies a committed transaction.
        """
        from repro.core.durability import install_checkpoint

        writer = self._wal_writer
        if writer is None or self._durability_dir is None:
            raise StorageError("checkpoint requires durability_dir")
        # Quiesce the write path: every acknowledged commit must be in
        # the WAL before the snapshot that supersedes it.
        writer.flush()
        install_checkpoint(self, self._durability_dir, self._storage_io)
        # WAL truncation is fenced by replication: records a registered
        # replica has not acknowledged must survive the checkpoint, or
        # the replica could never catch up without a full resync.
        retain_ts = self.replication.wal_retain_ts()
        if retain_ts is None:
            self._wal_truncation_fence = max(
                self._wal_truncation_fence, self.manager.oracle.peek() - 1
            )
            writer.wal.truncate()
        else:
            _dropped, fence = writer.wal.truncate_keep_from(retain_ts)
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

        Ordering matters: the maintenance thread is stopped *first*
        (a requested or periodic GC epoch still runs, against the open
        engine), then the WAL.  After ``close()`` returns, further
        :meth:`begin` calls raise :class:`~repro.errors.StorageError`
        and a second ``close()`` is a no-op.
        """
        if self._closed:
            return
        self.maintenance.stop()
        # Flip the flag and detach the WAL under the close lock: an
        # in-flight commit either finishes its submission first (we
        # wait for the lock) or observes the closed flag and aborts
        # cleanly.  The writer is drained *before* the WAL closes, so
        # every record a committer is still waiting on gets durably
        # written and acknowledged.
        with self._close_lock:
            self._closed = True
            writer = self._wal_writer
            self._wal_writer = None
        self._retire_wal(writer)

    # -- persistence ----------------------------------------------------------------

    def save(self, directory) -> None:
        """Install a snapshot of the whole engine (current store +
        history + clocks) as ``directory``'s checkpoint, which
        :meth:`open` reads.  Requires quiescence.  A directory whose
        ``engine.wal`` holds records belongs to a live engine, which
        must :meth:`checkpoint` instead: :class:`StorageError`."""
        from pathlib import Path

        from repro.core.durability import WAL_FILENAME, install_checkpoint

        wal = Path(directory) / WAL_FILENAME
        if wal.exists() and wal.stat().st_size:
            raise StorageError(
                f"{wal} is a live engine's log: checkpoint() that engine"
            )
        install_checkpoint(self, directory, self._storage_io)

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
        executing anything.  Plans against the current schema (indexes
        change scan choices)."""
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

    # -- indexes -------------------------------------------------------------------

    def create_label_index(self, label: str) -> None:
        self.storage.create_label_index(label)

    def create_label_property_index(self, label: str, prop: str) -> None:
        self.storage.create_label_property_index(label, prop)

    def create_unique_constraint(self, label: str, prop: str) -> None:
        """Enforce uniqueness of ``prop`` among ``:label`` vertices.

        Like indexes, constraints are in-memory schema: recreate them
        after :meth:`open`.
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


def _core_sections(engine: AeonG) -> dict[str, Any]:
    """The metrics sections of the core components, each built by the
    component that owns it, after the requested GC epochs settle."""
    maintenance = engine.maintenance
    maintenance.settle()
    history = engine.history
    recovery = engine.last_recovery
    return {
        "transactions": engine.manager.metrics(),
        "gc": {**engine.gc.metrics(), **maintenance.task_metrics(maintenance.gc)},
        "maintenance": {"backlog_waits": maintenance.backlog_waits},
        "migration": engine.migrator.metrics(),
        "resilience": engine.resilience.metrics(),
        "history_kv": history.kv_metrics(),
        "read_path": history.read_path_metrics(),
        "operators": engine.operators.stats.as_dict(),
        "query": engine.plans.metrics(),
        "observability": engine.observability.self_metrics(),
        "current_store": engine.storage.metrics(),
        **write_path_metrics(engine._wal_writer, engine.durability_mode),
        "recovery": recovery.as_dict() if recovery is not None else None,
    }
