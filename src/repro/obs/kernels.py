"""Gated per-kernel timing for the kernel table.

:class:`TimedKernels` wraps the table
:func:`repro.native.load_kernels` returned and times each kernel call
into the ``repro_native_kernel_seconds{kernel=...,backend=...}`` histogram, while
also accumulating the elapsed time into a caller-supplied ``stages``
dict under ``kernel/<name>`` keys so sampled
:class:`~repro.obs.trace.QueryTrace` waterfalls show kernel spans next
to pipeline stages.

The wrapper only exists when observability is on — plans obtain it via
:meth:`repro.obs.Observer.timed_kernels`; with observability off the
raw kernels object is used directly, keeping the ≤2%-when-off contract
(no indirection, no clock reads).  This module owns its own
``time.perf_counter`` reads, which R6 permits inside :mod:`repro.obs`.
"""

from __future__ import annotations

import functools
import time
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.obs import Observer

#: Per-call kernel latency histogram, labeled by ``kernel`` and
#: ``backend`` (the table: ``cext`` or ``numpy``).
NATIVE_KERNEL_SECONDS = "repro_native_kernel_seconds"

#: The kernels :class:`TimedKernels` instruments (matches
#: ``repro.native.KERNEL_NAMES``; duplicated here so :mod:`repro.obs`
#: never imports :mod:`repro.native` — R9 keeps backend resolution in
#: ``native/registry.py`` and this module must stay import-light).
TIMED_KERNEL_NAMES = ("lookup_codes", "dedup_candidates", "rank_topk",
                      "e8_decode", "zm_probe_codes", "bucket_spans",
                      "hierarchy_walk", "bucket_index")


class TimedKernels:
    """Kernel-bundle proxy that times every call.

    Forwards the kernels named in ``TIMED_KERNEL_NAMES`` through a timing
    shim and everything else (``backend``, capability probes) verbatim.
    One instance is created per batch and shares the batch's ``stages``
    dict, so kernel time accumulates across stages and shows up in the
    sampled trace.
    """

    __slots__ = ("_kernels", "_observer", "_stages", "backend")

    def __init__(self, kernels: object, observer: "Observer",
                 stages: Dict[str, float]) -> None:
        self._kernels = kernels
        self._observer = observer
        self._stages = stages
        self.backend = str(getattr(kernels, "backend", "?"))

    def _call(self, name: str, *args: object, **kwargs: object) -> object:
        fn = getattr(self._kernels, name)
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        self._observer.observe_kernel(name, self.backend, elapsed)
        key = "kernel/" + name
        self._stages[key] = self._stages.get(key, 0.0) + elapsed
        return result

    def __getattr__(self, name: str) -> object:
        if name in TIMED_KERNEL_NAMES:
            return functools.partial(self._call, name)
        return getattr(self._kernels, name)
