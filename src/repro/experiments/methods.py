"""Named method factories: the six algorithms the paper compares.

The paper's figures compare up to six methods per lattice
(Section VI-B.4d):

====================  =============================================
name                  construction
====================  =============================================
``standard``          single-level LSH
``standard+mp``       single-level LSH + multi-probe
``standard+h``        single-level LSH + bucket hierarchy
``bilevel``           RP-tree first level + per-group LSH
``bilevel+mp``        Bi-level + multi-probe
``bilevel+h``         Bi-level + bucket hierarchy
====================  =============================================

:func:`method_spec` turns a name plus the experiment parameters into a
:class:`~repro.evaluation.runner.MethodSpec` whose factory builds a fresh
index for each run seed.
"""

from __future__ import annotations

from typing import Dict

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.evaluation.runner import MethodSpec
from repro.lsh.index import StandardLSH

METHOD_NAMES = ("standard", "standard+mp", "standard+h",
                "bilevel", "bilevel+mp", "bilevel+h")


def _flags(name: str) -> Dict[str, object]:
    base, _, suffix = name.partition("+")
    if base not in ("standard", "bilevel") or suffix not in ("", "mp", "h"):
        raise ValueError(f"unknown method {name!r}; expected one of {METHOD_NAMES}")
    return {
        "bilevel": base == "bilevel",
        "multiprobe": suffix == "mp",
        "hierarchy": suffix == "h",
    }


def method_spec(name: str, bucket_width: float, lattice: str = "zm",
                n_hashes: int = 8, n_tables: int = 10, n_groups: int = 16,
                n_probes: int = 32, tree_rule: str = "mean",
                partitioner: str = "rptree", tune_params: bool = False,
                tree_seed: int = 9999) -> MethodSpec:
    """Build the :class:`MethodSpec` for one named method.

    ``n_probes`` only applies to the ``+mp`` variants; the paper uses 240
    probes (the ``E8`` kissing number), which the smoke-scale benchmarks
    shrink to keep pure-Python runtimes tolerable.

    ``tree_seed`` is fixed across repetitions: the first-level partition
    is preprocessing, so the paper's "different random projections" re-draw
    only the second-level hash projections.
    """
    flags = _flags(name)
    probes = n_probes if flags["multiprobe"] else 0
    hierarchy = flags["hierarchy"]
    if flags["bilevel"]:
        def factory(seed: int):
            # The paper's second level always adapts parameters per cell;
            # scale_widths keeps that adaptation compatible with a swept W.
            cfg = BiLevelConfig(
                n_groups=n_groups, partitioner=partitioner,
                tree_rule=tree_rule, n_hashes=n_hashes, n_tables=n_tables,
                bucket_width=bucket_width, lattice=lattice, n_probes=probes,
                hierarchy=hierarchy, tune_params=tune_params,
                scale_widths=not tune_params, seed=seed,
                tree_seed=tree_seed)
            return BiLevelLSH(cfg)
    else:
        def factory(seed: int):
            return StandardLSH(
                n_hashes=n_hashes, n_tables=n_tables,
                bucket_width=bucket_width, lattice=lattice,
                n_probes=probes, hierarchy=hierarchy, seed=seed)
    label = f"{name}[{lattice}]"
    return MethodSpec(name=label, factory=factory)
