"""A Hypertext-Abstract-Machine-style graph store (Section 5 substrate).

The paper's prototype runs GraphLog queries on top of the HAM [DS86]: "a
general-purpose, transaction-based, multiuser server for a hypertext storage
system".  This module provides the equivalent in-process substrate:

- a versioned graph: every committed transaction produces a new version;
- transactions with begin/commit/abort: a commit applies the operations a
  transaction buffered to the version current then;
- history: a past version is reconstructed by replaying the retained log
  from its base — the last ``HISTORY_WINDOW`` or more versions, durable
  store or not; an older one raises :class:`StoreError`;
- query integration: evaluate GraphLog graphical queries and regular path
  queries directly against the committed graph.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
import uuid
from collections import Counter, defaultdict

from repro.errors import StoreError, TransactionError
from repro.graphs.multigraph import LabeledMultigraph
from repro.graphs.bridge import _edge_fact
from repro.ham.delta import compute_delta, domain_refs, fact_counts, fold_domain_refs

logger = logging.getLogger(__name__)

#: Records the commit log keeps behind the current version: once it holds
#: twice this many, the older ones fold into the ``graph_at`` base in one
#: batch (see :meth:`HAMStore._retain_locked` for what holds them longer).
HISTORY_WINDOW = 256


def new_epoch():
    """Mint a fresh replication epoch identifier.

    An epoch names one *history line*: as long as the epoch is unchanged,
    equal version numbers denote equal committed histories.  Anything that
    rewrites history under existing version numbers — recovery truncating a
    torn WAL tail, a replica being re-seeded, a promotion — must run under
    a fresh epoch so replicas re-bootstrap instead of trusting version
    arithmetic (see :mod:`repro.replication`).
    """
    return uuid.uuid4().hex[:16]


class _Op:
    """One replayable operation of the commit log.  :meth:`apply` raises
    :class:`StoreError` for a missing node or edge: a commit, a replicated
    apply and WAL replay all refuse a record on exactly that."""

    __slots__ = ("kind", "args")

    ADD_NODE = "add_node"
    SET_NODE_LABEL = "set_node_label"
    REMOVE_NODE = "remove_node"
    ADD_EDGE = "add_edge"
    REMOVE_EDGE = "remove_edge"

    def __init__(self, kind, *args):
        self.kind = kind
        self.args = args

    def apply(self, graph):
        node = self.args[0]
        if self.kind in (self.SET_NODE_LABEL, self.REMOVE_NODE) and not graph.has_node(node):
            raise StoreError(f"node {node!r} not found")
        if self.kind == self.ADD_NODE:
            graph.add_node(node, self.args[1])
        elif self.kind == self.SET_NODE_LABEL:
            graph.set_node_label(node, self.args[1])
        elif self.kind == self.REMOVE_NODE:
            graph.remove_node(node)
        elif self.kind == self.ADD_EDGE:
            source, target, label = self.args
            graph.add_edge(source, target, label)
        elif self.kind == self.REMOVE_EDGE:
            source, target, label = self.args
            edge = _edge_to_remove(graph, source, target, label)
            if edge is None:
                raise StoreError(
                    f"edge {source!r} -[{label!r}]-> {target!r} not found"
                )
            graph.remove_edge(edge)
        else:  # pragma: no cover - closed set
            raise StoreError(f"unknown operation {self.kind!r}")

    def __repr__(self):
        return f"_Op({self.kind}, {self.args!r})"


def _edge_to_remove(graph, source, target, label):
    """The edge a ``remove_edge(source, target, label)`` operation names.

    The oldest copy carrying exactly *label* — else the oldest copy that
    encodes the same *fact* (``"link"`` and ``EdgeLabel("link")`` are one
    tuple of ``link``), so an edge loaded from a fact file can be removed by
    the string the wire carries.  A pure function of the graph's edge order:
    WAL replay and a replica pick the same copy the primary did.
    """
    candidates = [e for e in graph.out_edges(source) if e.target == target]
    for edge in candidates:
        if edge.label == label:
            return edge
    fact = _edge_fact(source, target, label)
    for edge in candidates:
        if _edge_fact(source, target, edge.label) == fact:
            return edge
    return None


def derive_version(base, records=()):
    """The graph *records* make of *base*: a new graph, *base* untouched.

    Every place a version comes from its predecessor — a staged commit or
    replicated apply, WAL replay at recovery, the log's trim and
    ``graph_at`` — derives it here.  The result shares *base*'s
    edges and every adjacency list the replayed operations do not write to
    (see :meth:`LabeledMultigraph.copy`), so deriving costs the C-level
    index copies plus the operations, not a rebuild of the graph.
    """
    graph = base.copy()
    for record in records:
        for op in record.operations:
            op.apply(graph)
    return graph


class TransactionRecord:
    """A committed transaction: its id, session, operations, the store
    version its commit produced, and the typed fact-level :class:`Delta`
    the commit made (see :mod:`repro.ham.delta`).  The delta is derived
    from the operations wherever a version is staged or replayed; a record
    decoded from the WAL or the wire carries none until then."""

    __slots__ = ("txn_id", "session_id", "operations", "version", "delta")

    def __init__(self, txn_id, session_id, operations, version=None, delta=None):
        self.txn_id = txn_id
        self.session_id = session_id
        self.operations = tuple(operations)
        self.version = version
        self.delta = delta

    def __repr__(self):
        return f"TransactionRecord(#{self.txn_id}, {len(self.operations)} ops)"


class Transaction:
    """A buffered unit of work: the operations it records, and nothing else.

    No operation is applied before :meth:`commit`, which stages them all on
    the version current then (:meth:`HAMStore._stage_locked`).  So a
    transaction does not read its own writes, and an operation the graph
    cannot take (a missing node or edge) fails the commit with
    :class:`TransactionError`, not the call that recorded it.  A commit that
    fails leaves the transaction aborted: its session can begin another.
    """

    def __init__(self, session):
        self._session = session
        self._ops = []
        self.state = "active"  # active | committed | aborted

    # ------------------------------------------------------------- edits

    def _record(self, op):
        if self.state != "active":
            raise TransactionError(f"transaction is {self.state}")
        self._ops.append(op)

    def add_node(self, node, label=None):
        self._record(_Op(_Op.ADD_NODE, node, label))
        return node

    def set_node_label(self, node, label):
        self._record(_Op(_Op.SET_NODE_LABEL, node, label))

    def remove_node(self, node):
        self._record(_Op(_Op.REMOVE_NODE, node))

    def add_edge(self, source, target, label):
        self._record(_Op(_Op.ADD_EDGE, source, target, label))

    def remove_edge(self, source, target, label):
        self._record(_Op(_Op.REMOVE_EDGE, source, target, label))

    # ------------------------------------------------------------ control

    def commit(self):
        if self.state != "active":
            raise TransactionError(f"cannot commit a {self.state} transaction")
        self.state = "aborted"  # unless the store takes the operations
        self._session._commit(self._ops)
        self.state = "committed"

    def abort(self):
        if self.state != "active":
            raise TransactionError(f"cannot abort a {self.state} transaction")
        self.state = "aborted"
        self._ops = []

    def __enter__(self):
        return self

    def __exit__(self, exc_type, _exc, _tb):
        if self.state == "active":
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False


class Session:
    """One client of the store (the HAM is multiuser)."""

    _ids = itertools.count(1)

    def __init__(self, store):
        self._store = store
        self.session_id = next(Session._ids)
        self._active = None

    def transaction(self):
        if self._active is not None and self._active.state == "active":
            raise TransactionError("session already has an active transaction")
        self._active = Transaction(self)
        return self._active

    def _commit(self, ops):
        self._store._apply_commit(self.session_id, ops)
        self._active = None


class HAMStore:
    """The versioned, transactional graph store."""

    def __init__(self):
        self.graph = LabeledMultigraph()
        self._log = []  # list of TransactionRecord (the retained tail)
        self._next_txn_id = 1
        self._last_txn_id = 0
        self._subscribers = []
        self._subscriber_failures = 0
        #: Optional phase-histogram sink (``observe_phase(name, seconds)``,
        #: e.g. a service's MetricsRegistry): receives ``commit.stage`` and
        #: ``commit.dispatch`` once per commit or replicated apply.
        self.metrics = None
        # Per-predicate delta churn: total inserted+deleted rows and the
        # number of commits touching each predicate, accumulated at commit
        # time from the typed Delta (see predicate_stats()).
        self._churn_rows = defaultdict(int)
        self._churn_commits = defaultdict(int)
        self._version = 0
        #: Section 2 fact → the graph items encoding it (see
        #: :func:`~repro.ham.delta.fact_counts`): a commit's delta is the
        #: facts whose count crosses zero.
        self._facts = Counter()
        #: predicate → its distinct committed facts (``predicate_stats``).
        self._predicate_facts = Counter()
        #: value → occurrences across the committed facts: the active
        #: domain is its key set.  The one place it is kept — each installed
        #: record's delta carries what it moved (``entered`` / ``left``).
        self._refs = Counter()
        self._lock = threading.Lock()
        # Signaled (under self._lock) whenever the committed version moves:
        # min-version reads and replication long-polls wait on it.
        self._version_cond = threading.Condition(self._lock)
        # Commit hooks run one record at a time, in install order: a record
        # takes a ticket under the store lock when it is installed, and
        # waits on this condition for its turn (see _dispatch_subscribers).
        self._tickets = 0
        self._turn = 0
        self._turn_cond = threading.Condition()
        # The last version whose hooks have all run, and the thread running
        # hooks now (None between records) — see wait_dispatched.
        self._dispatched = 0
        self._dispatcher = None
        # Replicas reject client writes; replication applies through
        # apply_replicated(), which bypasses this guard.
        self._read_only = False
        # The retained window: self._log holds exactly the records of
        # versions _base_version + 1 .. _version, in order, so the record of
        # version v sits at offset v - _base_version - 1 (records_since and
        # graph_at slice by it); _base_graph is the graph at exactly
        # _base_version, the replay base for graph_at().
        self._base_version = 0
        self._base_graph = LabeledMultigraph()
        # Optional repro.persist.DurabilityManager; when attached, commits
        # are WAL-logged inside the commit critical section (see
        # attach_durability).
        self._durability = None
        # The replication epoch: names this store's history line.  Durable
        # stores overwrite it from the data dir at recovery (repro.persist
        # keeps it stable across clean restarts, rotates it when recovery
        # truncates); replicas adopt the primary's epoch at bootstrap.
        self._epoch = new_epoch()

    def subscribe(self, callback):
        """Register a commit hook invoked with each committed
        :class:`TransactionRecord` (carrying its resulting ``version``).

        The delivery contract, for local commits and replicated applies
        alike: every record reaches every hook registered when it was
        installed **exactly once, in version order**, on the thread that
        committed it, after the graph and version have been updated — and
        ``commit()`` returns only after its own record's hooks ran.  A
        commit whose predecessor's hooks are still running waits for them,
        so **a hook must not commit** (it would wait for itself); it may
        read the store.  Aborted transactions never reach a hook.  A hook
        that raises is logged and counted (``stats()["subscriber_
        failures"]``) without aborting the later hooks or later commits.
        """
        with self._lock:
            self._subscribers.append(callback)
        return callback

    #: Decorator-friendly alias: ``@store.on_commit``.
    on_commit = subscribe

    def unsubscribe(self, callback):
        with self._lock:
            self._subscribers.remove(callback)

    # ---------------------------------------------------------- durability

    def attach_durability(self, manager):
        """Bind a :class:`~repro.persist.DurabilityManager` to this store.

        From here on every commit calls ``manager.log_commit(record)``
        inside the commit critical section, *before* the in-memory graph
        and version are updated — so the WAL is version-ordered, a failed
        append aborts the commit with store state untouched, and with
        ``fsync="always"`` a returned ``commit()`` is durable.  Use
        :meth:`DurabilityManager.recover` rather than calling this
        directly; it restores state first, then attaches.
        """
        if self._durability is not None:
            raise StoreError("store already has a durability manager attached")
        self._durability = manager

    def detach_durability(self):
        self._durability = None

    # ------------------------------------------------------------ sessions

    def session(self):
        return Session(self)

    def _stage_locked(self, operations, staged=None):
        """``(staged, delta, changes)`` of :func:`compute_delta` on *staged*,
        by default a new version derived from the current graph — the one
        staging path of a commit, a replicated apply and :meth:`replay`,
        timed as ``commit.stage``.  Under ``self._lock``: two commits staged
        from one base would each drop the other's edit.  Raises
        :class:`StoreError` for an operation the graph cannot take."""
        started = time.perf_counter()
        if staged is None:
            staged = derive_version(self.graph)
        delta, changes = compute_delta(staged, operations, self._facts)
        self._observe("commit.stage", started)
        return staged, delta, changes

    def _apply_commit(self, session_id, ops):
        # Staging applies the operations for the first time, to a version
        # derived from the current graph (last-committer-wins at the
        # operation level): one the graph cannot take aborts the commit
        # before anything is logged, installed or dispatched.
        if self._read_only:
            raise StoreError(
                "store is read-only (replica); writes must go to the primary"
            )
        with self._lock:
            try:
                staged, delta, changes = self._stage_locked(ops)
            except StoreError as exc:
                raise TransactionError(f"commit refused: {exc}") from exc
            record = TransactionRecord(
                self._next_txn_id,
                session_id,
                ops,
                version=self._version + 1,
                delta=delta,
            )
            if self._durability is not None:
                # WAL-append (and, under fsync=always, fsync) before any
                # in-memory state changes: a failed append aborts the commit
                # with the store untouched, and the log stays version-ordered
                # because appends happen under the commit lock.
                try:
                    self._durability.log_commit(record)
                except Exception as exc:
                    raise TransactionError(
                        f"commit aborted: WAL append failed: {exc}"
                    ) from exc
            turn, subscribers = self._install_locked(record, staged, changes)
        self._dispatch_subscribers(turn, subscribers, record)
        if self._durability is not None:
            self._durability.maybe_checkpoint()
        return record

    def _advance_locked(self, record, staged, changes):
        """Publish *staged* — the version derived from the current graph,
        which stays as it was for the readers still holding it — as
        *record*'s; advance the counters and the log (trimming it, see
        :meth:`_retain_locked`), and fold *changes* into the fact counts and
        the delta into the per-predicate counts and value refcount (setting
        its ``entered`` / ``left``).  What a commit and :meth:`replay`
        share; the caller holds ``self._lock``."""
        self.graph = staged
        self._version = record.version
        self._next_txn_id = max(self._next_txn_id, record.txn_id + 1)
        self._last_txn_id = record.txn_id
        self._log.append(record)
        if len(self._log) >= 2 * HISTORY_WINDOW:
            self._retain_locked()
        facts = self._facts
        for fact, change in changes.items():
            count = facts[fact] + change
            if count:
                facts[fact] = count
            else:
                del facts[fact]
        delta = record.delta
        delta.entered, delta.left = fold_domain_refs(self._refs, delta)
        counts = self._predicate_facts
        for predicate, rows in delta.insertions.items():
            counts[predicate] += len(rows)
        for predicate, rows in delta.deletions.items():
            counts[predicate] -= len(rows)
            if not counts[predicate]:
                del counts[predicate]

    def _retain_locked(self):
        """Fold the log's records up to the low-water mark into the
        ``graph_at`` base, when that drops at least ``HISTORY_WINDOW`` of
        them (so a trim's one derive is amortised over as many commits).

        The mark keeps the newest ``HISTORY_WINDOW`` records, and never
        passes the last dispatched version: a running hook reads
        ``graph_at(record.version - 1)``.  A reader behind the mark takes its
        fallback: the image rebuilds, a subscription refreshes, a durable
        source reads the WAL, a replica re-bootstraps.  Never rotates the
        epoch."""
        mark = min(self._version - HISTORY_WINDOW, self._dispatched)
        drop = mark - self._base_version
        if drop >= HISTORY_WINDOW:
            self._base_graph = derive_version(self._base_graph, self._log[:drop])
            del self._log[:drop]
            self._base_version = mark

    def _install_locked(self, record, staged, changes):
        """Make one committed record current (caller holds ``self._lock``).

        :meth:`_advance_locked`, then churn accounting and waking version
        waiters; returns ``(turn, subscribers)`` — the record's place in the
        dispatch order and the hooks to run once the lock is released.
        Shared by the local commit path and the replication apply path so a
        replicated commit is indistinguishable from a local one to every
        downstream consumer.
        """
        self._advance_locked(record, staged, changes)
        delta = record.delta
        for predicate in delta.touched_predicates():
            self._churn_commits[predicate] += 1
        for rows_by_predicate in (delta.insertions, delta.deletions):
            for predicate, rows in rows_by_predicate.items():
                self._churn_rows[predicate] += len(rows)
        self._version_cond.notify_all()
        # Snapshot under the lock: subscribe() may run concurrently, and
        # iterating the live list while it mutates skips or doubles
        # callbacks.
        turn = self._tickets
        self._tickets += 1
        return turn, tuple(self._subscribers)

    def _dispatch_subscribers(self, turn, subscribers, record):
        """Run *record*'s hooks when its *turn* comes (tickets are taken in
        install order, which is version order), on the calling thread — the
        committing request's ambient trace context stays with its own
        record.  ``commit.dispatch`` times the hooks, not the wait."""
        with self._turn_cond:
            while self._turn != turn:
                self._turn_cond.wait()
            self._dispatcher = threading.get_ident()
        started = time.perf_counter()
        try:
            for callback in subscribers:
                try:
                    callback(record)
                except Exception:  # noqa: BLE001 — one failing hook must not starve the rest
                    with self._lock:
                        self._subscriber_failures += 1
                    logger.exception(
                        "commit subscriber %r failed for version %d",
                        callback,
                        record.version,
                    )
        finally:
            with self._turn_cond:
                self._turn = turn + 1
                self._dispatched = record.version
                self._dispatcher = None
                self._turn_cond.notify_all()
        self._observe("commit.dispatch", started)

    def wait_dispatched(self, version, timeout=None):
        """Block until every hook has run for every record up to *version*.

        Returns ``True`` once they have; ``False`` when *timeout* (seconds)
        elapses first, and at once on the thread running hooks right now (a
        hook would wait for its own record).  A reader of state the hooks
        keep current — a maintained result-cache entry — waits here rather
        than recomputing what an in-flight dispatch is about to publish.
        """
        with self._turn_cond:
            if self._dispatcher == threading.get_ident():
                return self._dispatched >= version
            return self._turn_cond.wait_for(lambda: self._dispatched >= version, timeout)

    def _observe(self, phase, started):
        if self.metrics is not None:
            self.metrics.observe_phase(phase, time.perf_counter() - started)

    # ----------------------------------------------------------- replication

    def set_read_only(self, read_only=True):
        """Reject client commits (replicas set this; see
        :mod:`repro.replication`).  :meth:`apply_replicated` still works —
        it *is* the replication write path."""
        self._read_only = bool(read_only)

    @property
    def read_only(self):
        return self._read_only

    @property
    def epoch(self):
        """The replication epoch identifier for the current history line.

        Two stores with the same epoch and the same version hold the same
        committed history; across different epochs, version numbers are not
        comparable at all.  See :func:`new_epoch`.
        """
        return self._epoch

    def set_epoch(self, epoch):
        """Adopt *epoch* as this store's history-line identifier.

        Used by :mod:`repro.persist` (installing the durable epoch at
        recovery) and by promotion (minting a fresh epoch when a replica
        becomes a writable primary).
        """
        if not epoch:
            raise StoreError("epoch must be a non-empty string")
        self._epoch = str(epoch)

    def apply_replicated(self, record):
        """Apply one replicated :class:`TransactionRecord` (as decoded from
        the primary's WAL stream) to this store; return the record installed.

        Staged as a local commit is (:meth:`_stage_locked`): a new record
        carrying the delta its operations make here is installed, *record*
        itself is not written to.  Subscribers are notified per record.
        Records must arrive in version order; anything else raises
        :class:`StoreError` (the applier re-bootstraps on divergence rather
        than guessing).
        """
        with self._lock:
            if record.version != self._version + 1:
                raise StoreError(
                    f"replicated record out of order: store at version "
                    f"{self._version}, record carries {record.version}"
                )
            try:
                staged, delta, changes = self._stage_locked(record.operations)
            except StoreError as exc:
                raise StoreError(
                    f"cannot apply replicated version {record.version}: {exc}"
                ) from exc
            record = TransactionRecord(
                record.txn_id, record.session_id, record.operations, record.version, delta
            )
            turn, subscribers = self._install_locked(record, staged, changes)
        self._dispatch_subscribers(turn, subscribers, record)
        return record

    def replace_state(self, graph, version, last_txn_id, epoch=None):
        """Discard the current state and install *graph* at *version*.

        Serves recovery (:mod:`repro.persist` installs the checkpoint here,
        then the WAL tail through :meth:`replay`), a replica's first
        bootstrap and its re-bootstraps after a primary divergence.  *graph*
        becomes its own :meth:`graph_at` base.

        Subscribers are *not* notified — callers must reset version-scoped
        caches themselves (a version can regress here, which would
        otherwise let stale cache entries stamped with a future version
        serve wrong answers once the version climbs back).  The store
        adopts *epoch* when given (the durable epoch, the primary's history
        line); otherwise it mints a fresh one, because whatever history the
        old epoch named no longer exists here.
        """
        with self._lock:
            if self._durability is not None:
                raise StoreError("cannot replace state on a durable store")
            self.graph = self._base_graph = graph
            self._version = self._base_version = version
            self._next_txn_id = max(self._next_txn_id, last_txn_id + 1)
            self._last_txn_id = last_txn_id
            self._log = []
            self._facts = fact_counts(graph)
            self._predicate_facts = Counter(predicate for predicate, _row in self._facts)
            self._refs = domain_refs(self._facts)
            self._epoch = str(epoch) if epoch else new_epoch()
            self._set_dispatched(version)
            self._version_cond.notify_all()

    def replay(self, records):
        """Install *records* (versions ``version + 1 ..``, as WAL recovery
        decodes them, before anything reads the store) the way a commit
        installs its own, with no WAL append, no hooks and no churn counts;
        all are staged on one derived copy.  Stops at the first record the
        graph cannot take (a :class:`StoreError`), leaving the store at the
        one before it; returns how many records it installed."""
        records = list(records)
        with self._lock:
            if self._durability is not None:
                raise StoreError("cannot replay records onto a durable store")
            first = self._version + 1
            versions = [record.version for record in records]
            if versions != list(range(first, first + len(records))):
                # records_since / graph_at slice the log by offset from the base.
                raise StoreError(
                    f"replayed records must be versions {first}..{first + len(records) - 1} "
                    f"in order, got {versions}"
                )
            start = self.graph
            staged = derive_version(start)
            installed = 0
            for record in records:
                try:
                    _staged, record.delta, changes = self._stage_locked(
                        record.operations, staged
                    )
                except StoreError as exc:
                    logger.warning("replay stops at version %d: %r", record.version, exc)
                    # The refused record's earlier operations already applied.
                    self.graph = derive_version(start, records[:installed])
                    break
                # No hooks run here, so each record is dispatched as it is
                # installed: a trim may pass it.
                self._set_dispatched(record.version - 1)
                self._advance_locked(record, staged, changes)
                installed += 1
            self._set_dispatched(self._version)
            self._version_cond.notify_all()
        return installed

    def _set_dispatched(self, version):
        """State installed without records (recovery, re-bootstrap) has no
        hooks to wait for."""
        with self._turn_cond:
            self._dispatched = version
            self._turn_cond.notify_all()

    def wait_for_version(self, version, timeout=None):
        """Block until the committed version reaches *version*.

        Returns ``True`` once ``self.version >= version``; ``False`` when
        *timeout* (seconds) elapses first.  Used by min-version reads
        (read-your-writes through the router) and the primary's replication
        long-poll.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._version_cond:
            while self._version < version:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._version_cond.wait(remaining)
            return True

    def records_since(self, from_version):
        """The retained commit records with ``version > from_version``.

        Returns ``None`` when *from_version* predates the in-memory base
        (the caller must fall back to the durable WAL segments); the
        replication source uses this as its no-disk fast path.
        """
        with self._lock:
            if from_version < self._base_version:
                return None
            return self._log[from_version - self._base_version :]

    # ------------------------------------------------------------ history

    @property
    def version(self):
        """The committed version number (0 = empty store).

        Strictly monotonic: bumped exactly once per committed transaction,
        never by aborted ones.  Concurrent readers pair it with the graph
        via :meth:`snapshot_versioned`.
        """
        return self._version

    def snapshot_versioned(self):
        """``(version, graph)`` read atomically with respect to commits.

        The returned graph is the live committed instance — a commit
        publishes a new version derived from it and never writes to it (nor
        to the edge lists the two share), so the reference stays internally
        consistent; treat it as read-only.
        """
        with self._lock:
            return self._version, self.graph

    def _durable_snapshot(self):
        """``(version, graph, last_txn_id)`` read atomically — the state a
        checkpoint captures (see :mod:`repro.persist`)."""
        with self._lock:
            return self._version, self.graph, self._last_txn_id

    def history(self):
        """The retained tail of committed records (oldest first).

        Once the log has trimmed itself (see :meth:`_retain_locked`) or
        recovery started from a checkpoint, this no longer starts at version
        1; the WAL holds the full history.
        """
        return list(self._log)

    def graph_at(self, version):
        """Reconstruct the graph as of a retained *version*: the base at
        ``_base_version`` with the log's records up to *version* replayed on
        it (the log is contiguous from ``_base_version + 1``, so they are
        selected by their offset from it).  A version below the base raises
        :class:`StoreError`, durable store or not.
        """
        if version < 0 or version > self.version:
            raise StoreError(f"no such version {version}; current is {self.version}")
        with self._lock:
            base_version = self._base_version
            if version < base_version:
                raise StoreError(
                    f"version {version} predates the retained history "
                    f"(base version {base_version})"
                )
            base = self._base_graph
            records = self._log[: version - base_version]
        return derive_version(base, records)

    def predicate_stats(self, top=None):
        """Per-predicate statistics: distinct committed facts and delta
        churn (rows inserted+deleted, commits touching).

        Returns ``{predicate: {"facts", "churn_rows", "churn_commits"}}``,
        restricted to the *top* highest-churn predicates when given.
        """
        with self._lock:
            facts = dict(self._predicate_facts)
            churn_rows = dict(self._churn_rows)
            churn_commits = dict(self._churn_commits)
        predicates = set(facts) | set(churn_rows)
        if top is not None:
            ranked = sorted(
                predicates,
                key=lambda p: (churn_rows.get(p, 0), facts.get(p, 0)),
                reverse=True,
            )
            predicates = ranked[: max(0, int(top))]
        return {
            predicate: {
                "facts": facts.get(predicate, 0),
                "churn_rows": churn_rows.get(predicate, 0),
                "churn_commits": churn_commits.get(predicate, 0),
            }
            for predicate in predicates
        }

    def stats(self, top_predicates=10):
        """A JSON-ready summary of the store (and durable state, if any)."""
        with self._lock:
            stats = {
                "version": self._version,
                "epoch": self._epoch,
                "nodes": self.graph.node_count(),
                "edges": self.graph.edge_count(),
                "retained_records": len(self._log),
                "base_version": self._base_version,
                "subscriber_failures": self._subscriber_failures,
            }
            durability = self._durability
        # Computed after releasing the lock: predicate_stats() re-acquires
        # it, and the store lock is not reentrant.
        stats["predicates"] = self.predicate_stats(top=top_predicates)
        if durability is not None:
            stats["durability"] = durability.stats()
        return stats

    # ------------------------------------------------------------- loading

    def load_graph(self, graph):
        """Commit an entire graph as one transaction (bulk load)."""
        session = self.session()
        with session.transaction() as txn:
            for node in graph.nodes:
                txn.add_node(node, graph.node_label(node))
            for edge in graph.edges:
                txn.add_edge(edge.source, edge.target, edge.label)
        return self.version

    def load_database(self, database, schema=None):
        """Bulk-load a relational database via the Section 2 encoding."""
        from repro.graphs.bridge import graph_from_database

        return self.load_graph(graph_from_database(database, schema))

    # ------------------------------------------------------------- queries

    def query(self, graphical_query):
        """Evaluate a GraphLog graphical query against the committed graph."""
        from repro.core.engine import GraphLogEngine

        return GraphLogEngine().run(graphical_query, self.graph)

    def answers(self, graphical_query, predicate=None):
        from repro.core.engine import GraphLogEngine

        return GraphLogEngine().answers(graphical_query, self.graph, predicate)

    def rpq(self, regex, source=None):
        """Evaluate a G+ edge query (regular path query)."""
        from repro.rpq.evaluate import RPQEvaluator

        evaluator = RPQEvaluator(self.graph)
        if source is None:
            return evaluator.pairs(regex)
        return evaluator.targets(regex, source)

    def __repr__(self):
        return (
            f"HAMStore(version={self.version}, {self.graph.node_count()} nodes, "
            f"{self.graph.edge_count()} edges)"
        )
