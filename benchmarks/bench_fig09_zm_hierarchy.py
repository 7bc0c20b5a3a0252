"""Fig. 9: hierarchical standard vs hierarchical Bi-level LSH (Z^M).

Paper protocol: build the Morton-curve bucket hierarchy; queries whose
short-list is below the median short-list size (fitted per group when
the hierarchy is built) escalate to coarser levels.

Expected shape: Bi-level wins; unlike multi-probe, the hierarchy improves
thin queries without degrading quality, and it shrinks the deviations.
"""

from repro.experiments import figures


def test_fig09_hierarchy_zm(benchmark, scale):
    l_values = (scale.n_tables,)
    blocks = benchmark.pedantic(figures.fig09, args=(scale,),
                                kwargs={"l_values": l_values},
                                rounds=1, iterations=1)
    std = blocks[f"standard+h[zm] L={l_values[0]}"]
    bi = blocks[f"bilevel+h[zm] L={l_values[0]}"]
    # The hierarchy's purpose is to flatten quality across operating
    # points: even the narrowest W keeps a solid recall floor (escalation
    # compensates thin buckets), so the whole curve sits in a narrow band
    # rather than rising from ~0.
    assert bi[0].recall.mean > 0.3
    assert std[0].recall.mean > 0.1
    assert bi[-1].recall.mean > 0.3
    spread = max(r.recall.mean for r in bi) - min(r.recall.mean for r in bi)
    assert spread < 0.5
