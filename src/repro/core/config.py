"""Configuration for :class:`repro.core.bilevel.BiLevelLSH`.

Collecting every knob of the Bi-level pipeline in one frozen dataclass
keeps experiment definitions declarative: each benchmark builds a config,
sweeps one field, and logs the rest verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.utils.validation import check_positive, check_probability


@dataclass(frozen=True)
class BiLevelConfig:
    """All parameters of the Bi-level LSH pipeline.

    Level-1 (partitioning) fields
    -----------------------------
    n_groups:
        Leaf-group count ``g`` of the first-level partitioner (paper uses
        16 in the main experiments, sweeps {1, 8, 16, 32, 64} in Fig. 13a).
    partitioner:
        ``'rptree'`` (the contribution) or ``'kmeans'`` (Fig. 13c baseline).
    tree_rule:
        RP-tree split rule, ``'mean'`` (paper default) or ``'max'``.
    diameter_sweeps:
        Iterations of the approximate-diameter subroutine.
    multi_assign:
        Spill routing: each query consults its ``multi_assign`` most
        plausible first-level groups (1 reproduces the paper exactly;
        higher values trade extra short-list work for a smaller level-1
        routing loss).

    Level-2 (hashing) fields
    ------------------------
    n_hashes:
        Code length ``M`` (paper fixes 8).
    n_tables:
        Table count ``L`` (paper sweeps {10, 20, 30}).
    bucket_width:
        Quantization width ``W``; ignored when ``tune_params`` is set, in
        which case each group gets its own tuned ``W``.
    lattice:
        ``'zm'`` or ``'e8'``.
    n_probes:
        Multi-probe count per table (paper uses 240 when enabled).
    hierarchy:
        Enable the hierarchical LSH table.
    tune_params:
        Tune ``W`` per group with the collision model (Dong et al.),
        replacing ``bucket_width`` entirely.
    scale_widths:
        Lighter per-cell adaptation, compatible with a swept base ``W``:
        multiply ``bucket_width`` by each group's distance scale (its
        median sampled kNN distance relative to the global one).  This is
        how the paper's "different LSH parameters ... optimal for each
        cell" coexists with its explicit ``W`` sweeps.
    target_recall:
        Recall target handed to the tuner.
    tuner_sample_size / tuner_k:
        Sample size and neighborhood size for the collision model.

    max_batch_rows:
        Bounded-memory batch sharding: query batches larger than this are
        split into contiguous shards executed through the same plan by
        :func:`repro.exec.run_plan`, capping peak scratch memory.
        Results are bit-identical to the unsharded run (with an integer
        ``hierarchy_threshold``).  ``None`` (default) disables sharding;
        an explicit ``query_batch(max_batch_rows=...)`` overrides it.
    seed:
        Master seed; all internal randomness derives from it.
    tree_seed:
        Optional separate seed for the first-level partitioner.  The
        paper's repetition protocol re-draws the *LSH projections* while
        the partitioning is preprocessing; fixing ``tree_seed`` across
        repetitions reproduces that protocol (the experiment harness does
        so).  ``None`` derives the tree randomness from ``seed``.
    """

    n_groups: int = 16
    partitioner: str = "rptree"
    tree_rule: str = "mean"
    diameter_sweeps: int = 20
    multi_assign: int = 1
    n_hashes: int = 8
    n_tables: int = 10
    bucket_width: float = 1.0
    lattice: str = "zm"
    n_probes: int = 0
    hierarchy: bool = False
    tune_params: bool = False
    scale_widths: bool = False
    target_recall: float = 0.9
    tuner_sample_size: int = 200
    tuner_k: int = 10
    max_batch_rows: Optional[int] = None
    seed: Optional[int] = None
    tree_seed: Optional[int] = None

    def __post_init__(self):
        if self.max_batch_rows is not None:
            check_positive(self.max_batch_rows, "max_batch_rows")
        check_positive(self.n_groups, "n_groups")
        check_positive(self.multi_assign, "multi_assign")
        check_positive(self.n_hashes, "n_hashes")
        check_positive(self.n_tables, "n_tables")
        check_positive(self.bucket_width, "bucket_width")
        check_positive(self.diameter_sweeps, "diameter_sweeps")
        check_positive(self.tuner_sample_size, "tuner_sample_size")
        check_positive(self.tuner_k, "tuner_k")
        check_probability(self.target_recall, "target_recall")
        if self.n_probes < 0:
            raise ValueError(f"n_probes must be non-negative, got {self.n_probes}")
        if self.partitioner not in ("rptree", "kmeans"):
            raise ValueError(
                f"partitioner must be 'rptree' or 'kmeans', got {self.partitioner!r}")
        if self.tree_rule not in ("mean", "max"):
            raise ValueError(
                f"tree_rule must be 'mean' or 'max', got {self.tree_rule!r}")
        if self.lattice not in ("zm", "e8"):
            raise ValueError(
                f"lattice must be 'zm' or 'e8', got {self.lattice!r}")

    def with_(self, **changes: Any) -> "BiLevelConfig":
        """Return a copy with ``changes`` applied (sweep helper)."""
        return replace(self, **changes)
