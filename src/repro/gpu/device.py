"""Cost models for the simulated GPU and the reference CPU.

The models are deliberately simple — work / cores and a per-access
cost — because the paper's Fig. 4 argument only needs the
*relative* throughput of three pipelines:

- a serial CPU (one core, high clock),
- a GPU whose hash-table lookups are parallel but whose short-list search
  is serial, and
- a fully parallel GPU pipeline.

Defaults approximate the paper's hardware (Intel Core i7 3.2 GHz vs NVIDIA
GTX 480: 480 CUDA cores at 1.4 GHz, 32-thread warps, ~400-cycle global
memory latency).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class DeviceModel:
    """A parallel (GPU-like) execution cost model.

    Attributes
    ----------
    n_cores:
        Hardware parallelism ``p``.
    clock_hz:
        Core clock; cycles are converted to seconds with it.
    warp_size:
        Threads executing in lock-step.
    global_mem_cycles / alu_cycles:
        Cost per access / operation.
    """

    name: str = "gtx480"
    n_cores: int = 480
    clock_hz: float = 1.4e9
    warp_size: int = 32
    global_mem_cycles: float = 400.0
    alu_cycles: float = 1.0

    def __post_init__(self):
        check_positive(self.n_cores, "n_cores")
        check_positive(self.clock_hz, "clock_hz")
        check_positive(self.warp_size, "warp_size")

    def parallel_cycles(self, total_work_cycles: float) -> float:
        """Cycles to retire ``total_work_cycles`` of aggregate work."""
        if total_work_cycles < 0:
            raise ValueError("work must be non-negative")
        return total_work_cycles / self.n_cores

    def seconds(self, cycles: float) -> float:
        """Convert cycles to wall-clock seconds at this device's clock."""
        return cycles / self.clock_hz


@dataclass(frozen=True)
class CPUModel:
    """A serial (single-core CPU) execution cost model."""

    name: str = "corei7"
    clock_hz: float = 3.2e9
    mem_cycles: float = 100.0  # cache-missing access on a deep hierarchy
    cached_mem_cycles: float = 4.0
    alu_cycles: float = 1.0

    def __post_init__(self):
        check_positive(self.clock_hz, "clock_hz")

    def seconds(self, cycles: float) -> float:
        return cycles / self.clock_hz
