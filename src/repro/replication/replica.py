"""The replica side of replication: bootstrap, tail, apply, repeat.

A :class:`ReplicaApplier` owns one background thread that keeps a local
:class:`~repro.ham.store.HAMStore` converged with a primary:

1. **bootstrap** — fetch the primary's ``repl_bootstrap`` document and
   install it with :meth:`~repro.ham.store.HAMStore.replace_state`, on a
   fresh store and on a re-bootstrap alike.
2. **tail** — long-poll ``repl_tail`` from the applied version and apply
   each record through :meth:`~repro.ham.store.HAMStore.apply_replicated`,
   which stages its operations the way a local commit is staged, deriving
   the record's delta from them, and notifies the same commit subscribers —
   replica caches and views stay coherent exactly the way the primary's do.
3. **diverge → re-bootstrap** — when the primary answers ``reset`` (the
   replica is ahead because the primary lost acknowledged commits in a
   crash, or history was pruned past the replica's position, or a
   different primary now answers at the address) — or when a tail
   response carries an **epoch** other than the one this replica
   bootstrapped under (the primary rewrote history back to an
   equal-or-higher version, which version arithmetic alone cannot see) —
   the applied state is discarded wholesale and re-bootstrapped.  Version
   can *regress* across a re-bootstrap, so registered ``on_rebootstrap``
   callbacks must clear version-stamped caches.

Connection failures back off exponentially with jitter and never kill the
thread; the replica keeps serving (increasingly stale) reads meanwhile,
and ``/healthz`` turns 503 once the lag bound is exceeded.
"""

from __future__ import annotations

import logging
import random
import threading
import time

from repro import obs
from repro.errors import ReproError, StoreError
from repro.io import graph_from_json
from repro.obs import context as trace_context
from repro.obs import logs
from repro.persist.serde import record_from_json

logger = logging.getLogger(__name__)


class ReplicaApplier:
    """Tails one primary and applies its commit stream to a local store."""

    def __init__(
        self,
        store,
        primary_host,
        primary_port,
        wait_ms=2000,
        reconnect_min=0.1,
        reconnect_max=5.0,
        client_timeout=30.0,
        traces=None,
        sampler=None,
        node_id=None,
    ):
        self.store = store
        self.primary_host = primary_host
        self.primary_port = int(primary_port)
        self.wait_ms = wait_ms
        self.reconnect_min = reconnect_min
        self.reconnect_max = reconnect_max
        self.client_timeout = client_timeout
        #: Distributed-tracing wiring (all optional): sampled polls and
        #: bootstraps run under a span tree recorded in *traces* (the
        #: owning service's ring), and every tail/bootstrap request is
        #: stamped with a trace context so the primary's serving spans
        #: link back to this replica's apply loop.
        self.traces = traces
        self.sampler = sampler if sampler is not None else obs.RateSampler(0.0)
        self.node_id = node_id
        store.set_read_only(True)
        self._client = None
        self._thread = None
        self._stop = threading.Event()
        self._ready = threading.Event()
        self._lock = threading.Lock()
        self._connected = False
        self._primary_version = None
        self._primary_epoch = None
        self._records_applied = 0
        self._bootstraps = 0
        self._epoch_rebootstraps = 0
        self._tail_errors = 0
        self._last_error = None
        self._last_poll_monotonic = None
        self._on_rebootstrap = []

    # ------------------------------------------------------------ lifecycle

    @property
    def primary_address(self):
        return f"{self.primary_host}:{self.primary_port}"

    @property
    def running(self):
        return self._thread is not None

    def on_rebootstrap(self, callback):
        """Register a callback fired after every bootstrap that *replaced*
        existing state (version may have regressed; clear version-stamped
        caches here).  Returns *callback* for decorator use."""
        self._on_rebootstrap.append(callback)
        return callback

    def start(self):
        if self._thread is not None:
            raise StoreError("replica applier already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-replica-applier", daemon=True
        )
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        client, self._client = self._client, None
        if client is not None:
            # Closing the socket from here unblocks a long-poll in flight.
            try:
                client.close()
            except OSError:  # pragma: no cover - best-effort unblock
                pass
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def wait_ready(self, timeout=None):
        """Block until the first bootstrap has been applied (or timeout);
        returns ``True`` when the replica is serving real data."""
        return self._ready.wait(timeout)

    # ------------------------------------------------------------ main loop

    def _run(self):
        failures = 0
        while not self._stop.is_set():
            try:
                client = self._ensure_client()
                if not self._ready.is_set():
                    self._bootstrap(client)
                self._poll(client)
                failures = 0
            except (ReproError, OSError) as exc:
                if self._stop.is_set():
                    break
                failures += 1
                with self._lock:
                    self._connected = False
                    self._tail_errors += 1
                    self._last_error = str(exc)
                self._drop_client()
                delay = min(
                    self.reconnect_max, self.reconnect_min * (2 ** min(failures, 10))
                )
                delay *= 0.5 + random.random()  # full jitter: 0.5x .. 1.5x
                logger.warning(
                    "replica lost primary %s (%s); retrying in %.2fs",
                    self.primary_address,
                    exc,
                    delay,
                )
                self._stop.wait(delay)

    def _ensure_client(self):
        if self._client is None:
            from repro.service.client import ServiceClient

            self._client = ServiceClient(
                host=self.primary_host,
                port=self.primary_port,
                timeout=self.client_timeout,
            )
            with self._lock:
                self._connected = True
        return self._client

    def _drop_client(self):
        client, self._client = self._client, None
        if client is not None:
            try:
                client.close()
            except OSError:  # pragma: no cover - best-effort close
                pass

    # ------------------------------------------------------------- tracing

    def _traced_call(self, name, fn, always_record=False):
        """Run one primary RPC attempt under a fresh trace context.

        Every attempt gets a context (so the primary's serving spans link
        back here even when unsampled requests only adopt the trace *id*);
        sampled attempts additionally collect a local span tree, recorded
        into the owning service's trace ring — but idle long-polls (no
        records, no reset) are not recorded, or the ring would be nothing
        but heartbeats.  *fn* returns truthy when the attempt did real work.
        """
        tc = trace_context.TraceContext(
            logs.new_request_id(), None, self.sampler.sample()
        )
        token = trace_context.set_current(tc)
        try:
            if tc.sampled:
                with obs.tracing(
                    name, context=tc, primary=self.primary_address
                ) as tr:
                    result = fn()
                if self.traces is not None and (result or always_record):
                    self.traces.record(
                        obs.trace_entry(
                            tr.root,
                            tc.trace_id,
                            self.node_id,
                            name,
                            version=self.store.version,
                        )
                    )
                return result
            return fn()
        finally:
            trace_context.reset_current(token)

    # ----------------------------------------------------------- bootstrap

    def _bootstrap(self, client):
        return self._traced_call(
            "repl.bootstrap", lambda: self._bootstrap_once(client), always_record=True
        )

    def _bootstrap_once(self, client):
        document = client.call("repl_bootstrap")["result"]
        graph = graph_from_json(document["graph"])
        version = document["version"]
        last_txn_id = document["last_txn_id"]
        epoch = document.get("epoch")
        replaced = self.store.version != 0 or len(self.store.history()) > 0
        self.store.replace_state(graph, version, last_txn_id, epoch=epoch)
        with self._lock:
            self._bootstraps += 1
            self._primary_epoch = epoch
            # Absolute, not max(): across a re-bootstrap the old estimate
            # may belong to an abandoned history line.
            self._primary_version = version
        logger.info(
            "replica bootstrapped at version %d epoch %s from %s (%s)",
            version,
            epoch,
            self.primary_address,
            document.get("source", "?"),
        )
        if replaced:
            for callback in list(self._on_rebootstrap):
                try:
                    callback()
                except Exception:  # noqa: BLE001 — one bad hook must not stop the applier
                    logger.exception("re-bootstrap callback %r failed", callback)
        self._ready.set()

    def _rebootstrap(self, reason):
        logger.warning(
            "replica diverged from primary %s (%s); re-bootstrapping",
            self.primary_address,
            reason,
        )
        self._ready.clear()
        self._bootstrap(self._ensure_client())

    # ---------------------------------------------------------------- tail

    def _poll(self, client):
        return self._traced_call("repl.poll", lambda: self._poll_once(client))

    def _poll_once(self, client):
        response = client.call(
            "repl_tail",
            from_version=self.store.version,
            wait_ms=self.wait_ms,
        )
        body = response["result"]
        epoch = body.get("epoch")
        with self._lock:
            self._connected = True
            self._primary_version = body["version"]
            self._last_poll_monotonic = time.monotonic()
            known_epoch = self._primary_epoch
        if body.get("reset"):
            self._rebootstrap(body.get("reason", "primary signaled reset"))
            return True
        if epoch is not None and known_epoch is not None and epoch != known_epoch:
            # The primary rewrote history (crash truncation, promotion, or a
            # different primary at the address).  Version numbers across
            # epochs are incomparable — even an "in sync" version may hold
            # different data — so the only safe move is a full re-bootstrap.
            with self._lock:
                self._epoch_rebootstraps += 1
            self._rebootstrap(f"primary epoch changed {known_epoch} -> {epoch}")
            return True
        applied = 0
        for payload in body["records"]:
            record = record_from_json(payload)
            self.store.apply_replicated(record)
            applied += 1
        if applied:
            with self._lock:
                self._records_applied += applied
        return applied

    # ---------------------------------------------------------------- stats

    def status(self):
        """A JSON-ready snapshot for ``stats``/``/healthz``/metrics."""
        applied = self.store.version
        with self._lock:
            primary_version = self._primary_version
            lag = None if primary_version is None else max(0, primary_version - applied)
            last_poll = self._last_poll_monotonic
            connected = self._connected
            return {
                "role": "replica",
                "primary": self.primary_address,
                "connected": connected,
                # Explicit alias for health checks: when False, lag_versions
                # is the *last known* lag, not the current one — the primary
                # may have raced ahead (or away) since the last poll.
                "tail_connected": connected,
                "bootstrapped": self._ready.is_set(),
                "applied_version": applied,
                "primary_version": primary_version,
                "primary_epoch": self._primary_epoch,
                "epoch": self.store.epoch,
                "lag_versions": lag,
                "records_applied": self._records_applied,
                "bootstraps": self._bootstraps,
                "epoch_rebootstraps": self._epoch_rebootstraps,
                "tail_errors": self._tail_errors,
                "last_error": self._last_error,
                "seconds_since_poll": (
                    None if last_poll is None else round(time.monotonic() - last_poll, 3)
                ),
            }
