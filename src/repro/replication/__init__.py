"""Read-scale replication: WAL-shipping replicas behind a read/write router.

Three cooperating pieces (see ``docs/REPLICATION.md`` for the full story):

- :class:`~repro.replication.primary.ReplicationSource` — the primary side.
  Serves the ``repl_bootstrap`` wire op (the newest checkpoint, or a live
  snapshot when none exists) and the ``repl_tail`` op (commit records after
  a given store version, long-polling when caught up).  Records come from
  the store's retained in-memory log when possible and from the durable WAL
  segment files otherwise — the commit path is never blocked.
- :class:`~repro.replication.replica.ReplicaApplier` — the replica side.
  Bootstraps, tails, and applies each record through
  :meth:`~repro.ham.store.HAMStore.apply_replicated`, which stages it
  as a local commit is staged and derives its delta from its operations,
  as crash recovery does, so replica state is bit-identical to a
  recovered primary.  Detects primary divergence by **epoch**, not just
  version regression: every bootstrap/tail response is stamped with the
  primary's epoch id (persisted next to the WAL, rotated whenever history
  is rewritten — crash truncation, promotion, state replacement), and any
  epoch change triggers a full re-bootstrap even when the version numbers
  happen to line up.
- :class:`~repro.replication.router.RoutingClient` /
  :class:`~repro.replication.router.RouterServer` — the client side.  Fans
  reads across replicas round-robin with health ejection, sends writes to
  the primary, and threads a read-your-writes *min-version token*: after a
  write, reads carry the committed version, and a replica that cannot catch
  up within its bounded wait answers ``replica_stale`` so the router
  retries elsewhere (ultimately the primary, which is never stale).  When
  the primary's connection dies mid-write, the router probes the replicas
  for one an operator promoted (``repro promote``) and fails writes over to
  it, resetting the token across the epoch boundary.
"""

from repro.replication.primary import ReplicationSource
from repro.replication.replica import ReplicaApplier
from repro.replication.router import RouterServer, RoutingClient

__all__ = [
    "ReplicationSource",
    "ReplicaApplier",
    "RouterServer",
    "RoutingClient",
]
