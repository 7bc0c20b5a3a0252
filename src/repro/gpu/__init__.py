"""Simulated-GPU clock for the parallel Bi-level LSH of Section V.

No GPU is available, so Fig. 4 is a model over real work counts: one real
``query_batch`` answers, and :func:`~repro.gpu.pipeline.price_counts`
charges its per-query candidate counts to the cost models of
:mod:`repro.gpu.device` under the paper's four pipelines.
"""

from repro.gpu.device import CPUModel, DeviceModel
from repro.gpu.pipeline import (MODES, PipelineTiming, price_counts,
                                price_query_batch)

__all__ = ["CPUModel", "DeviceModel", "MODES", "PipelineTiming",
           "price_counts", "price_query_batch"]
