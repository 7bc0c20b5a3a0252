"""``run_plan`` re-exported for ``benchmarks/e2e/layers.py``, whose traced
solo leg imports it from here; this package goes with ROADMAP item 1(a)."""

from repro.lsh.query import run_plan

__all__ = ["run_plan"]
