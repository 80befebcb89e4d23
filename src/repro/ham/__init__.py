"""HAM-style transactional, versioned graph storage (Section 5 substrate),
plus materialized GraphLog views with incremental (DRed) maintenance and the store's relational image, both driven by typed commit
deltas."""

from repro.ham.delta import Delta
from repro.ham.image import StoreImage, StoreImages
from repro.ham.store import HAMStore, Session, Transaction, TransactionRecord, new_epoch
from repro.ham.views import MaterializedView

__all__ = [
    "Delta",
    "HAMStore",
    "MaterializedView",
    "Session",
    "StoreImage",
    "StoreImages",
    "Transaction",
    "TransactionRecord",
    "new_epoch",
]
