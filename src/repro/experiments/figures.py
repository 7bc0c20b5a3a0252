"""One driver per figure of the paper's evaluation section.

Every driver takes a :class:`~repro.experiments.workloads.Scale`, builds
the workload, runs the methods the figure compares, prints the data series
the figure plots (selectivity, recall, error ratio, plus the two standard
deviations), and returns the structured results so the benchmark layer and
EXPERIMENTS.md generation can post-process them.

Figure map (paper -> driver):

====== ===============================================================
Fig 4  GPU short-list timing comparison          -> :func:`fig04`
Fig 5  standard vs bilevel, Z^M, L in {10,20,30} -> :func:`fig05`
Fig 6  standard vs bilevel, E8                   -> :func:`fig06`
Fig 7  multiprobe variants, Z^M                  -> :func:`fig07`
Fig 8  multiprobe variants, E8                   -> :func:`fig08`
Fig 9  hierarchical variants, Z^M                -> :func:`fig09`
Fig 10 hierarchical variants, E8                 -> :func:`fig10`
Fig 11 all six methods + query variance, Z^M     -> :func:`fig11`
Fig 12 all six methods + query variance, E8      -> :func:`fig12`
Fig 13 parameter studies (a: groups, b: M,       -> :func:`fig13a`,
        c: RP-tree vs K-means)                      :func:`fig13b`, :func:`fig13c`
====== ===============================================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.evaluation.runner import (ExperimentResult, format_results_table,
                                     sweep_bucket_width)
from repro.experiments.methods import method_spec
from repro.experiments.workloads import Scale, Workload, make_workload


def _sweep(workload: Workload, name: str, lattice: str,
           scale: Scale, **overrides) -> List[ExperimentResult]:
    """Sweep bucket widths for one method on one workload."""
    params = dict(n_hashes=scale.n_hashes, n_tables=scale.n_tables,
                  n_groups=scale.n_groups, n_probes=scale.n_probes)
    params.update(overrides)

    def make(width: float):
        return method_spec(name, width, lattice=lattice, **params)

    return sweep_bucket_width(make, workload.absolute_widths(),
                              workload.train, workload.queries, scale.k,
                              n_runs=scale.n_runs, base_seed=scale.seed,
                              ground_truth=workload.ground_truth)


def _print_tables(title: str, blocks: Dict[str, List[ExperimentResult]]) -> None:
    print(f"\n===== {title} =====")
    for label, results in blocks.items():
        print(format_results_table(results, title=f"-- {label} --"))


def _method_pair(scale: Optional[Scale], lattice: str, pair: Sequence[str],
                 title: str, workload_name: str = "labelme",
                 l_values: Optional[Sequence[int]] = None,
                 ) -> Dict[str, List[ExperimentResult]]:
    """Shared body of Figs. 5-10: sweep W for a method pair, per L."""
    scale = scale if scale is not None else Scale()
    workload = make_workload(workload_name, scale)
    l_values = list(l_values) if l_values is not None else [scale.n_tables]
    blocks: Dict[str, List[ExperimentResult]] = {}
    for L in l_values:
        for name in pair:
            results = _sweep(workload, name, lattice, scale, n_tables=L)
            blocks[f"{name}[{lattice}] L={L}"] = results
    _print_tables(title, blocks)
    return blocks


# --------------------------------------------------------------------- Fig 4

def fig04(scale: Optional[Scale] = None,
          workload_name: str = "labelme") -> Dict[str, List[dict]]:
    """Fig. 4: short-list search timing of the three pipelines.

    Sweeps the bucket width to vary the number of short-list candidates and
    reports the simulated time of ``cpu_lshkit`` / ``cpu_shortlist`` /
    ``gpu`` (per-thread) / ``gpu_workqueue`` for each operating point,
    mirroring the paper's "training 100,000 / testing 100,000 / K=500 /
    L=10 / M=8 / change W" protocol at reduced scale.
    """
    from repro.gpu.pipeline import MODES, price_query_batch
    from repro.lsh.index import StandardLSH

    scale = scale if scale is not None else Scale()
    workload = make_workload(workload_name, scale)
    rows: Dict[str, List[dict]] = {mode: [] for mode in MODES}
    print("\n===== Fig. 4: short-list search timing (simulated) =====")
    header = (f"{'W':>8} {'cands/query':>12} " +
              " ".join(f"{m:>16}" for m in MODES))
    print(header)
    for width in workload.absolute_widths():
        index = StandardLSH(n_hashes=scale.n_hashes, n_tables=scale.n_tables,
                            bucket_width=width, seed=scale.seed).fit(workload.train)
        (_, _, stats), timings = price_query_batch(index, workload.queries,
                                                   scale.k)
        mean_cands = float(np.mean(stats.n_candidates))
        line = f"{width:>8.3g} {mean_cands:>12.1f} "
        for mode in MODES:
            t = timings[mode].total_seconds
            rows[mode].append({"W": width, "candidates": mean_cands,
                               "seconds": t})
            line += f"{t:>16.3e} "
        print(line)
    base = rows["cpu_lshkit"][-1]["seconds"]
    print("speedup over cpu_lshkit at largest W: " + ", ".join(
        f"{mode}={base / rows[mode][-1]['seconds']:.1f}x" for mode in MODES))
    return rows


# ---------------------------------------------------------------- Figs 5-10

def fig05(scale: Optional[Scale] = None, workload_name: str = "labelme",
          l_values: Sequence[int] = (10, 20, 30),
          ) -> Dict[str, List[ExperimentResult]]:
    """Fig. 5: standard vs Bi-level LSH on the Z^M lattice."""
    return _method_pair(scale, "zm", ("standard", "bilevel"),
                        "Fig. 5: standard vs bilevel (Z^M)",
                        workload_name, l_values)


def fig06(scale: Optional[Scale] = None, workload_name: str = "labelme",
          l_values: Sequence[int] = (10, 20, 30),
          ) -> Dict[str, List[ExperimentResult]]:
    """Fig. 6: standard vs Bi-level LSH on the E8 lattice."""
    return _method_pair(scale, "e8", ("standard", "bilevel"),
                        "Fig. 6: standard vs bilevel (E8)",
                        workload_name, l_values)


def fig07(scale: Optional[Scale] = None, workload_name: str = "labelme",
          l_values: Sequence[int] = (10,)) -> Dict[str, List[ExperimentResult]]:
    """Fig. 7: multiprobed standard vs multiprobed Bi-level (Z^M)."""
    return _method_pair(scale, "zm", ("standard+mp", "bilevel+mp"),
                        "Fig. 7: multiprobe comparison (Z^M)",
                        workload_name, l_values)


def fig08(scale: Optional[Scale] = None, workload_name: str = "labelme",
          l_values: Sequence[int] = (10,)) -> Dict[str, List[ExperimentResult]]:
    """Fig. 8: multiprobed standard vs multiprobed Bi-level (E8)."""
    return _method_pair(scale, "e8", ("standard+mp", "bilevel+mp"),
                        "Fig. 8: multiprobe comparison (E8)",
                        workload_name, l_values)


def fig09(scale: Optional[Scale] = None, workload_name: str = "labelme",
          l_values: Sequence[int] = (10,)) -> Dict[str, List[ExperimentResult]]:
    """Fig. 9: hierarchical standard vs hierarchical Bi-level (Z^M)."""
    return _method_pair(scale, "zm", ("standard+h", "bilevel+h"),
                        "Fig. 9: hierarchy comparison (Z^M)",
                        workload_name, l_values)


def fig10(scale: Optional[Scale] = None, workload_name: str = "labelme",
          l_values: Sequence[int] = (10,)) -> Dict[str, List[ExperimentResult]]:
    """Fig. 10: hierarchical standard vs hierarchical Bi-level (E8)."""
    return _method_pair(scale, "e8", ("standard+h", "bilevel+h"),
                        "Fig. 10: hierarchy comparison (E8)",
                        workload_name, l_values)


# --------------------------------------------------------------- Figs 11-12

def _all_methods(scale: Optional[Scale], lattice: str, title: str,
                 workload_name: str) -> Dict[str, List[ExperimentResult]]:
    from repro.experiments.methods import METHOD_NAMES

    scale = scale if scale is not None else Scale()
    scale = scale.with_(n_tables=20)  # the paper fixes L=20 here
    workload = make_workload(workload_name, scale)
    blocks: Dict[str, List[ExperimentResult]] = {}
    for name in METHOD_NAMES:
        blocks[f"{name}[{lattice}]"] = _sweep(workload, name, lattice, scale)
    _print_tables(title, blocks)
    # Query-wise deviation summary: the headline of Figs. 11/12.
    print("\nquery-wise std of recall at the largest W:")
    for label, results in blocks.items():
        print(f"  {label:<22} {results[-1].recall.std_queries:.4f}")
    return blocks


def fig11(scale: Optional[Scale] = None, workload_name: str = "labelme",
          ) -> Dict[str, List[ExperimentResult]]:
    """Fig. 11: all six methods + query-caused variance (Z^M, L=20)."""
    return _all_methods(scale, "zm",
                        "Fig. 11: all methods, query variance (Z^M)",
                        workload_name)


def fig12(scale: Optional[Scale] = None, workload_name: str = "labelme",
          ) -> Dict[str, List[ExperimentResult]]:
    """Fig. 12: all six methods + query-caused variance (E8, L=20)."""
    return _all_methods(scale, "e8",
                        "Fig. 12: all methods, query variance (E8)",
                        workload_name)


# ----------------------------------------------------------------- Fig 13

def fig13a(scale: Optional[Scale] = None, workload_name: str = "labelme",
           group_counts: Sequence[int] = (1, 8, 16, 32, 64),
           ) -> Dict[str, List[ExperimentResult]]:
    """Fig. 13a: Bi-level quality vs first-level group count (L=20)."""
    scale = scale if scale is not None else Scale()
    scale = scale.with_(n_tables=20)
    workload = make_workload(workload_name, scale)
    blocks: Dict[str, List[ExperimentResult]] = {}
    for g in group_counts:
        blocks[f"bilevel g={g}"] = _sweep(workload, "bilevel", "zm", scale,
                                          n_groups=g)
    _print_tables("Fig. 13a: effect of first-level group count", blocks)
    return blocks


def fig13b(scale: Optional[Scale] = None, workload_name: str = "labelme",
           m_values: Sequence[int] = (4, 8, 12),
           ) -> Dict[str, List[ExperimentResult]]:
    """Fig. 13b: Bi-level vs standard for different code lengths M (L=20)."""
    scale = scale if scale is not None else Scale()
    scale = scale.with_(n_tables=20)
    workload = make_workload(workload_name, scale)
    blocks: Dict[str, List[ExperimentResult]] = {}
    for m in m_values:
        for name in ("standard", "bilevel"):
            blocks[f"{name} M={m}"] = _sweep(workload, name, "zm", scale,
                                             n_hashes=m)
    _print_tables("Fig. 13b: effect of hash dimension M", blocks)
    return blocks


def fig13c(scale: Optional[Scale] = None, workload_name: str = "labelme",
           ) -> Dict[str, List[ExperimentResult]]:
    """Fig. 13c: RP-tree vs K-means as the first-level partitioner (L=20)."""
    scale = scale if scale is not None else Scale()
    scale = scale.with_(n_tables=20)
    workload = make_workload(workload_name, scale)
    blocks = {
        "bilevel (RP-tree)": _sweep(workload, "bilevel", "zm", scale,
                                    partitioner="rptree"),
        "bilevel (K-means)": _sweep(workload, "bilevel", "zm", scale,
                                    partitioner="kmeans"),
    }
    _print_tables("Fig. 13c: RP-tree vs K-means first level", blocks)
    return blocks
