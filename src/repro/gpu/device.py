"""Cost models for the simulated GPU and the reference CPU.

The models are deliberately simple — work / cores, with multiplicative
penalties for warp divergence and a per-access cost split between global
and shared memory — because the paper's Fig. 4 argument only needs the
*relative* throughput of three pipelines:

- a serial CPU (one core, high clock),
- a GPU whose hash-table lookups are parallel but whose short-list search
  is serial, and
- a fully parallel GPU pipeline.

Defaults approximate the paper's hardware (Intel Core i7 3.2 GHz vs NVIDIA
GTX 480: 480 CUDA cores at 1.4 GHz, 32-thread warps, ~400-cycle global
memory latency vs ~4-cycle shared memory).
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
        Threads executing in lock-step; divergence penalizes a whole warp.
    global_mem_cycles / shared_mem_cycles / alu_cycles:
        Cost per access / operation.
    """

    name: str = "gtx480"
    n_cores: int = 480
    clock_hz: float = 1.4e9
    warp_size: int = 32
    global_mem_cycles: float = 400.0
    shared_mem_cycles: float = 4.0
    alu_cycles: float = 1.0

    def __post_init__(self):
        check_positive(self.n_cores, "n_cores")
        check_positive(self.clock_hz, "clock_hz")
        check_positive(self.warp_size, "warp_size")

    def parallel_cycles(self, total_work_cycles: float,
                        divergence: float = 1.0) -> float:
        """Cycles to retire ``total_work_cycles`` of aggregate work.

        ``divergence >= 1`` scales the cost up to model threads in a warp
        waiting for the slowest lane.
        """
        if total_work_cycles < 0:
            raise ValueError("work must be non-negative")
        if divergence < 1.0:
            raise ValueError("divergence factor must be >= 1")
        return total_work_cycles * divergence / self.n_cores

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
