"""Locality-sensitive hashing substrate.

Contains the p-stable hash family of Datar et al. (SoCG 2004), the bucketed
hash table, the query-directed multi-probe sequence of Lv et al. (VLDB
2007), the collision model / parameter tuner in the spirit of Dong et al.
(CIKM 2008), and :class:`StandardLSH` — the single-level baseline the paper
compares against.
"""

from repro.lsh.functions import HashFamily, PStableHashFamily
from repro.lsh.table import LSHTable
from repro.lsh.multiprobe import query_directed_probes, perturbation_sets
from repro.lsh.params import CollisionModel, LSHParams, tune_bucket_width
from repro.lsh.index import StandardLSH

__all__ = [
    "HashFamily",
    "PStableHashFamily",
    "LSHTable",
    "query_directed_probes",
    "perturbation_sets",
    "CollisionModel",
    "LSHParams",
    "tune_bucket_width",
    "StandardLSH",
]
