"""The concurrent query service: GraphLog as a long-lived server.

The paper's Section 5 prototype is a single-user editor over in-memory
graphs; this subsystem turns the same engine stack into a multiuser serving
layer in the spirit of the HAM's "general-purpose, transaction-based,
multiuser server":

- :mod:`repro.service.protocol` — the JSON-lines wire protocol;
- :mod:`repro.service.prepared` — prepared queries: parse, λ-translate,
  stratify, and safety-check once, cache the compiled plan by fingerprint;
- :mod:`repro.service.cache` — the store-coherent LRU result cache, keyed
  by (plan fingerprint, parameters) with version-stamped entries; a read
  re-stamps an entry whose predicate footprint no commit since touched,
  and invalidates only the rest;
- :mod:`repro.service.metrics` — request counters, cache hit/miss counts,
  latency percentiles, in-flight gauge;
- :mod:`repro.service.server` — the synchronous :class:`QueryService` core
  and the asyncio JSON-lines TCP server around it;
- :mod:`repro.service.client` — a blocking TCP client.
"""

from repro.service.cache import ResultCache
from repro.service.client import ServiceClient
from repro.service.metrics import MetricsRegistry
from repro.service.prepared import PreparedQuery, PreparedQueryCache, fingerprint
from repro.service.server import QueryService, ServiceConfig, ServiceServer

__all__ = [
    "MetricsRegistry",
    "PreparedQuery",
    "PreparedQueryCache",
    "QueryService",
    "ResultCache",
    "ServiceClient",
    "ServiceConfig",
    "ServiceServer",
    "fingerprint",
]
