"""End-to-end query pipelines for the Fig. 4 comparison.

Three configurations of (hash-table lookup, short-list search):

- ``cpu_lshkit``   — serial lookups + serial short-list (the LSHKIT
  single-core baseline);
- ``cpu_shortlist``— parallel cuckoo-table lookups on the GPU, short-list
  still on the CPU (the paper's intermediate configuration);
- ``gpu``          — parallel lookups + per-thread parallel short-list;
- ``gpu_workqueue``— parallel lookups + the work-queue short-list (the
  further 2-5x the paper reports over the per-thread method).

The pipeline stores the single-table Bi-level layout of Section V-A: one
sorted linear array of all (group-prefixed) codes plus one cuckoo hash
table over the compressed unique codes, regardless of the number of
groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from repro import obs
from repro.exec.plan import validate_query_batch
from repro.gpu.cuckoo import CuckooHashTable, compress_code
from repro.gpu.device import CPUModel, DeviceModel
from repro.gpu.shortlist import (
    ShortListResult,
    per_thread_shortlist,
    serial_shortlist,
    work_queue_shortlist,
)
from repro.lsh.table import LSHTable
from repro.utils.validation import as_float_matrix

if TYPE_CHECKING:  # pragma: no cover - import-time types only
    from repro.core.bilevel import BiLevelLSH
    from repro.lsh.index import StandardLSH

    IndexLike = Union[StandardLSH, BiLevelLSH]

MODES = ("cpu_lshkit", "cpu_shortlist", "gpu", "gpu_workqueue")


@dataclass
class PipelineTiming:
    """Simulated timing breakdown of one batch query."""

    lookup_seconds: float
    shortlist_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.lookup_seconds + self.shortlist_seconds


class GPUPipeline:
    """Single-table GPU layout of a (Bi-level) LSH index.

    Parameters
    ----------
    index:
        A fitted :class:`~repro.core.bilevel.BiLevelLSH` or
        :class:`~repro.lsh.index.StandardLSH`; the pipeline reuses its
        hash functions via :meth:`candidate_sets` and re-stores the layout
        GPU-style (the algorithms, not the index structures, are what the
        timing model charges).
    device / cpu:
        Cost models for the two processors.
    """

    def __init__(self, index: "IndexLike",
                 device: Optional[DeviceModel] = None,
                 cpu: Optional[CPUModel] = None):
        self.index = index
        self.device = device if device is not None else DeviceModel()
        self.cpu = cpu if cpu is not None else CPUModel()
        self._cuckoo: CuckooHashTable | None = None
        self._n_codes = 0

    def build_table(self, codes: np.ndarray, seed: int = 0) -> CuckooHashTable:
        """Build the cuckoo index over unique (compressed) codes.

        Mirrors Section V-A: sort all Bi-level codes, compress each unique
        code to a scalar key, and store bucket intervals in a cuckoo table.
        """
        table = LSHTable(codes)
        keys = compress_code(table.bucket_codes)
        # Key collisions after compression merge distinct buckets; keep the
        # first (paper's GPU layout tolerates this as a hash-table detail).
        uniq_keys, first = np.unique(keys, return_index=True)
        self._cuckoo = CuckooHashTable(seed=seed).build(
            uniq_keys, np.arange(uniq_keys.size, dtype=np.int64))
        self._n_codes = codes.shape[0]
        return self._cuckoo

    def _lookup_seconds(self, n_queries: int, n_lookups_per_query: int,
                        n_tables: int, dim: int, n_hashes: int,
                        parallel: bool) -> float:
        """Modeled time for the hash phase: code computation + table access.

        Computing the codes costs ``L * M * D`` multiply-adds per query
        (the dominant hash cost at GIST dimensions); each probe then pays a
        table access (``H`` slots for the cuckoo table).
        """
        if self._cuckoo is None:
            probe_cycles = 3 * (self.cpu.mem_cycles if not parallel
                                else self.device.global_mem_cycles)
        else:
            probe_cycles = (self._cuckoo.lookup_cost_cycles(self.device)
                            if parallel
                            else self._cuckoo.n_functions * self.cpu.mem_cycles)
        hash_ops = 2.0 * n_tables * n_hashes * dim  # multiply + add
        per_query = hash_ops + n_lookups_per_query * probe_cycles
        total = n_queries * per_query
        if parallel:
            return self.device.seconds(self.device.parallel_cycles(total))
        return self.cpu.seconds(total)

    def _lookup_phase(self, queries: np.ndarray, dim: int,
                      mode: str) -> Tuple[List[np.ndarray], float]:
        """Candidate sets through the wrapped index, and the modeled
        hash/table-access seconds for gathering them under ``mode``."""
        index = self.index
        # A BiLevelLSH keeps them on its config, a StandardLSH on itself.
        params = getattr(index, "config", index)
        n_tables = params.n_tables
        n_probes = params.n_probes
        n_hashes = params.n_hashes
        seconds = self._lookup_seconds(
            queries.shape[0], n_tables * (1 + n_probes), n_tables, dim,
            n_hashes, parallel=mode != "cpu_lshkit")
        return index.candidate_sets(queries), seconds

    def _shortlist_phase(self, data: np.ndarray, queries: np.ndarray,
                         candidate_sets: List[np.ndarray], k: int,
                         mode: str) -> ShortListResult:
        """``mode``'s short-list kernel over the gathered candidates."""
        if mode in ("cpu_lshkit", "cpu_shortlist"):
            return serial_shortlist(data, queries, candidate_sets, k,
                                    cpu=self.cpu)
        if mode == "gpu":
            return per_thread_shortlist(data, queries, candidate_sets, k,
                                        device=self.device)
        return work_queue_shortlist(data, queries, candidate_sets, k,
                                    device=self.device)

    def run(self, data: np.ndarray, queries: np.ndarray, k: int,
            mode: str = "gpu_workqueue") -> tuple:
        """Answer ``queries`` under ``mode``; returns (result, timing).

        ``result`` is a :class:`~repro.gpu.shortlist.ShortListResult`;
        ``timing`` a :class:`PipelineTiming` with the lookup/short-list
        split the paper's Fig. 4 compares.
        """
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        data = as_float_matrix(data)
        queries, _, k = validate_query_batch(queries, k, data.shape[1],
                                             allow_nonfinite=False)
        candidate_sets, lookup_seconds = self._lookup_phase(
            queries, data.shape[1], mode)
        result = self._shortlist_phase(data, queries, candidate_sets, k, mode)
        timing = PipelineTiming(lookup_seconds=lookup_seconds,
                                shortlist_seconds=result.seconds)
        ob = obs.active()
        if ob is not None:
            # cpu_* modes are the device-unavailable fallbacks of the
            # paper's pipeline comparison; phase times are the simulated
            # device seconds, not wall clock.
            ob.record_gpu_run(mode,
                              fallback=mode in ("cpu_lshkit", "cpu_shortlist"),
                              phase_seconds={
                                  "lookup": timing.lookup_seconds,
                                  "shortlist": timing.shortlist_seconds,
                              })
        return result, timing

    def compare_modes(self, data: np.ndarray, queries: np.ndarray, k: int,
                      modes: Sequence[str] = MODES) -> Dict[str, PipelineTiming]:
        """Run every mode on the same batch; verify results agree.

        Raises ``AssertionError`` if any mode returns different neighbor
        sets — the three short-list algorithms are exact over the same
        candidates, so their outputs must match.
        """
        timings: Dict[str, PipelineTiming] = {}
        reference_ids = None
        for mode in modes:
            result, timing = self.run(data, queries, k, mode=mode)
            timings[mode] = timing
            ids_sorted = np.sort(result.ids, axis=1)
            if reference_ids is None:
                reference_ids = ids_sorted
            elif not np.array_equal(reference_ids, ids_sorted):
                raise AssertionError(
                    f"mode {mode!r} returned different neighbors")
        return timings
