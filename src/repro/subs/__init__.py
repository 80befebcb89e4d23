"""Live query subscriptions: maintained view deltas streamed to clients.

The paper's central claim is that GraphLog queries are *maintainable*
recursive views over an evolving graph.  This package turns that claim
into a service feature: a client registers a query once (``subscribe``
wire op), receives an initial snapshot, and from then on is pushed one
versioned delta frame per commit that changes its answer — computed by
delete-and-rederive (DRed) maintenance, not by re-evaluation.

Three pieces (see docs/SUBSCRIPTIONS.md):

- a **shared-view registry** keyed by the view program up to a renaming
  of its IDB predicates (an RPQ's is its magic-seeded λ, whose sources
  are seeds of one view): the view is materialized on the first
  subscriber and torn down on the last unsubscribe, so 10k subscribers to
  one query, or to renamed copies of it, cost exactly one maintenance
  pass per commit;
- **per-subscription backpressure**: bounded outbound queues with explicit
  overflow policies — ``resync`` (drop queued deltas, send a fresh
  snapshot instead; deltas are never silently skipped) or ``disconnect``;
- **non-maintainable queries** (aggregation/summarization, and the RPQs
  λ would answer differently) are rejected with a typed ``not_maintainable`` error unless the subscriber
  opts into the documented diff-based fallback (re-evaluate per commit,
  set-diff against the previous answer).
"""

from repro.subs.manager import (
    OVERFLOW_POLICIES,
    Subscription,
    SubscriptionManager,
)

__all__ = [
    "OVERFLOW_POLICIES",
    "Subscription",
    "SubscriptionManager",
]
