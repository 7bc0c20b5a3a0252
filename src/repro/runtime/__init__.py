"""Runtime/session layer: process-lifetime index ownership and serving.

The packages below this one answer "how is one batch executed"
(:mod:`repro.lsh.query`) and "how does an index stay durable"
(:mod:`repro.maintenance`).  This package answers "who owns all of that
for the life of a process": :class:`IndexRuntime` holds an index plus
its attachments (WAL, obs registry) behind one
:meth:`~IndexRuntime.submit` door, :class:`QueryRequest` /
:class:`QueryResponse` are what one caller asked for and got back,
:meth:`IndexRuntime.resolve` is the one place a request meets the
session defaults, :class:`MicroBatcher` coalesces concurrent requests
into one executor batch bit-identically, and
:class:`AdmissionController` sheds overload through the existing
``exhausted_budget`` semantics.

The HTTP front-end lives in :mod:`repro.runtime.server` and is *not*
imported here — it pulls in asyncio plumbing that library users (and
the analysis fixtures) never need; ``repro-knn serve`` imports it
directly.

The layering is one-way: nothing under ``repro.lsh`` / ``core`` /
``evaluation`` / ``gpu`` imports this package
(``tests/test_layering.py``) — an index's ``query_batch`` runs its own
query path — and invariant rule R14
("runtime-centralized") keeps ``attach_*`` wiring here.
"""

from repro.runtime.admission import AdmissionController, AdmissionError
from repro.runtime.batching import (DEADLINE_BUCKET_MS, MicroBatcher,
                                    merge_key, split_stats)
from repro.runtime.session import (IndexRuntime, QueryRequest, QueryResponse,
                                   RuntimeConfig, shed_response)

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "DEADLINE_BUCKET_MS",
    "IndexRuntime",
    "MicroBatcher",
    "QueryRequest",
    "QueryResponse",
    "RuntimeConfig",
    "merge_key",
    "shed_response",
    "split_stats",
]
