"""Runtime/session layer: process-lifetime index ownership and serving.

The packages below this one answer "how is one batch executed"
(:mod:`repro.exec`) and "how does an index stay durable"
(:mod:`repro.maintenance`).  This package answers "who owns all of that
for the life of a process": :class:`IndexRuntime` holds an index plus
its attachments (WAL, compactor, shard pool, obs registry) behind one
:meth:`~IndexRuntime.submit` door, :class:`QueryRequest` /
:class:`QueryResponse` replace the six-kwarg ``query_batch``
signatures, :class:`MicroBatcher` coalesces concurrent requests into
one executor batch bit-identically, and
:class:`AdmissionController` sheds overload through the existing
``exhausted_budget`` semantics.

The HTTP front-end lives in :mod:`repro.runtime.server` and is *not*
imported here — it pulls in asyncio plumbing that library users (and
the analysis fixtures) never need; ``repro-knn serve`` imports it
directly.

Invariant rule R14 ("runtime-centralized") pins the layering: front-end
``query_batch`` methods stay thin adapters that build a
:class:`QueryRequest` and delegate, and ``attach_*`` wiring happens
only here.
"""

from repro.runtime.admission import AdmissionController, AdmissionError
from repro.runtime.batching import (DEADLINE_BUCKET_MS, MicroBatcher,
                                    merge_key, split_stats)
from repro.runtime.session import (IndexRuntime, QueryRequest, QueryResponse,
                                   RuntimeConfig, execute_plan_request,
                                   execute_request, shed_response)

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "DEADLINE_BUCKET_MS",
    "IndexRuntime",
    "MicroBatcher",
    "QueryRequest",
    "QueryResponse",
    "RuntimeConfig",
    "execute_plan_request",
    "execute_request",
    "merge_key",
    "shed_response",
    "split_stats",
]
