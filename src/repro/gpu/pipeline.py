"""Fig. 4's four pipelines, priced from the work counts of one real batch.

- ``cpu_lshkit``: serial lookups + serial short-list (LSHKIT, one core);
- ``cpu_shortlist``: GPU table lookups, short-list still on the CPU;
- ``gpu``: GPU lookups + per-thread short-list, each 32-query warp
  retiring at the pace of its heaviest query;
- ``gpu_workqueue``: GPU lookups + Fig. 3's work-queue short-list (bounded
  queue, clustered sort + compact per fill round, ``T_P(n) = 40 n / p``).

Every mode answers with the same neighbours (one real ``query_batch``);
they differ only in the price :func:`price_counts` puts on its counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

import numpy as np

from repro.gpu.device import CPUModel, DeviceModel
from repro.utils.validation import as_float_matrix

if TYPE_CHECKING:  # pragma: no cover - import-time types only
    from repro.core.bilevel import BiLevelLSH
    from repro.lsh.index import StandardLSH

MODES = ("cpu_lshkit", "cpu_shortlist", "gpu", "gpu_workqueue")

#: Elements the work queue holds per fill round (Fig. 3's global queue).
QUEUE_CAPACITY = 1 << 18
#: Work-queue constant from the paper's analysis: T_P(n) = 40 n / p.
WORK_QUEUE_CYCLES_PER_ELEMENT = 40.0
#: Table slots one lookup loads (the H = 3 hash functions of Section V-A).
LOOKUP_LOADS = 3


@dataclass
class PipelineTiming:
    """Simulated timing breakdown of one batch query."""

    lookup_seconds: float
    shortlist_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.lookup_seconds + self.shortlist_seconds


def _work_queue_cycles(counts: np.ndarray, k: int, dim: int,
                       device: DeviceModel) -> float:
    """Replay the work queue's fill rounds over per-query counts.

    A round takes each query's running best (``<= k``) plus as many fresh
    candidates as fit, in query order; it pays their distances, one
    clustered radix sort over (query, distance) keys and the take-first-k
    compact (rank + two scatters), all coalesced (1/8 of a global load).
    """
    if k + 1 >= QUEUE_CAPACITY:
        raise ValueError(f"k={k} does not fit the work queue")
    coalesced, alu = device.global_mem_cycles / 8.0, device.alu_cycles
    left = np.array(counts, dtype=np.int64)
    best = np.zeros_like(left)
    cycles = device.parallel_cycles(WORK_QUEUE_CYCLES_PER_ELEMENT * left.sum())
    while left.any():
        budget = QUEUE_CAPACITY
        fresh = n = 0
        for qi in np.flatnonzero(left):
            room = budget - (k + 1)
            if room <= 0:
                break
            take = min(int(left[qi]), room)
            entries = take + int(best[qi])
            left[qi] -= take
            best[qi] = min(entries, k)
            fresh, n, last = fresh + take, n + entries, qi
            budget -= entries
        bits = 32 + max(int(np.ceil(np.log2(last + 2))), 1)
        passes = max(int(np.ceil(bits / 8)), 1)
        depth = np.log2(n + 1) * alu
        cycles += (
            device.parallel_cycles(fresh * (3.0 * dim + dim * coalesced))
            + device.parallel_cycles(passes * n * (4.0 * alu + 3.0 * coalesced))
            + passes * depth
            + device.parallel_cycles(n * (3.0 * alu + 2.0 * coalesced)) + depth
            + 2 * (device.parallel_cycles(n * (2.0 * alu + 2.0 * coalesced))
                   + depth))
    return cycles


def price_counts(counts: np.ndarray, k: int, dim: int, n_tables: int,
                 n_lookups_per_query: int, n_hashes: int,
                 device: Optional[DeviceModel] = None,
                 cpu: Optional[CPUModel] = None) -> Dict[str, PipelineTiming]:
    """Simulated seconds of every mode in :data:`MODES` for a batch whose
    query ``i`` short-lists ``counts[i]`` candidates.

    The hash phase computes ``L * M * D`` multiply-adds per query and pays
    :data:`LOOKUP_LOADS` memory loads per table lookup.  A short-listed
    candidate costs one distance (``3 D`` ops and ``D`` loads) plus a
    ``log2(k + 1)`` heap update; the per-thread heap lives in global memory.
    """
    device = device if device is not None else DeviceModel()
    cpu = cpu if cpu is not None else CPUModel()
    counts = np.asarray(counts, dtype=np.int64)
    q, warp = counts.size, device.warp_size
    hash_ops = 2.0 * n_tables * n_hashes * dim

    def lookup_cycles(load_cycles: float) -> float:
        return q * (hash_ops + n_lookups_per_query * LOOKUP_LOADS * load_cycles)

    serial_lookup = cpu.seconds(lookup_cycles(cpu.mem_cycles))
    parallel_lookup = device.seconds(device.parallel_cycles(
        lookup_cycles(device.global_mem_cycles)))
    heap = np.log2(k + 1)
    serial = cpu.seconds(int(counts.sum()) * (
        3.0 * dim * cpu.alu_cycles + dim * cpu.cached_mem_cycles
        + heap * cpu.alu_cycles + cpu.mem_cycles))
    heaviest = np.pad(counts, (0, -q % warp)).reshape(-1, warp).max(axis=1)
    per_thread = device.seconds(int(heaviest.sum()) * (
        3.0 * dim * device.alu_cycles + dim * device.global_mem_cycles / 8.0
        + heap * device.global_mem_cycles) / max(device.n_cores // warp, 1))
    work_queue = device.seconds(_work_queue_cycles(counts, k, dim, device))
    return {
        "cpu_lshkit": PipelineTiming(serial_lookup, serial),
        "cpu_shortlist": PipelineTiming(parallel_lookup, serial),
        "gpu": PipelineTiming(parallel_lookup, per_thread),
        "gpu_workqueue": PipelineTiming(parallel_lookup, work_queue),
    }


def price_query_batch(index: Union[StandardLSH, BiLevelLSH],
                      queries: np.ndarray, k: int,
                      device: Optional[DeviceModel] = None,
                      cpu: Optional[CPUModel] = None,
                      ) -> Tuple[tuple, Dict[str, PipelineTiming]]:
    """Answer ``queries`` with one real ``index.query_batch`` and price its
    per-query candidate counts under every mode: returns ``((ids,
    distances, stats), {mode: PipelineTiming})``.
    """
    queries = as_float_matrix(queries, name="queries")
    result = index.query_batch(queries, k)
    # A BiLevelLSH keeps its parameters on its config, a StandardLSH on itself.
    params = getattr(index, "config", index)
    timings = price_counts(
        result[2].n_candidates, k, queries.shape[1], params.n_tables,
        params.n_tables * (1 + params.n_probes), params.n_hashes, device, cpu)
    return result, timings
