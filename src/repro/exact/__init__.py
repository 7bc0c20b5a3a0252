"""Exact KNN baseline: the tree method the paper's introduction cites.

Section I argues that space-partitioning exact methods (SR-tree, cover
tree, Kd-tree) "can be slower than the brute-force approach" once the
dimensionality exceeds ~10 (Weber et al., VLDB 1998) — the motivation for
approximate LSH.  :class:`~repro.exact.kdtree.KDTree` — a median-split
Kd-tree with best-first (bounded priority) search — makes that claim
measurable: it counts its distance evaluations, which is what the
motivation benchmark plots against dimension.
"""

from repro.exact.kdtree import KDTree

__all__ = ["KDTree"]
