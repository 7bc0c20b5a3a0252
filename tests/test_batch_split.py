"""Escalation does not depend on the batch: any split of a batch answers
byte for byte as the whole batch does.

A hierarchy index escalates a query whose base short-list is smaller
than the index's fitted ``escalation_threshold`` (one per Bi-level
group), not a median of whatever rows ran beside it.  So running a
batch as sub-batches, or in the executor's shards (their size patched
down by ``tests.shards.shard_rows``), leaves every
id, distance, ``escalated`` flag and candidate count as it was — on
``Z^M`` and ``E8``, a ``StandardLSH`` and a ``BiLevelLSH`` routing each
row to one group or two, with no threshold pinned.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.lsh.index import StandardLSH
from tests.shards import shard_rows

N, DIM, K, MAX_QUERIES = 600, 16, 5, 40

CONFIGS = ["zm-standard", "e8-standard", "zm-bilevel-1", "zm-bilevel-2",
           "e8-bilevel-1", "e8-bilevel-2"]


@functools.lru_cache(maxsize=None)
def corpus():
    return np.random.default_rng(38).standard_normal((N, DIM))


@functools.lru_cache(maxsize=None)
def build(config):
    lattice, kind, *spill = config.split("-")
    if kind == "standard":
        index = StandardLSH(n_hashes=8, n_tables=4, bucket_width=10.0,
                            lattice=lattice, hierarchy=True, seed=7)
    else:
        index = BiLevelLSH(BiLevelConfig(
            n_groups=4, n_hashes=8, n_tables=4, bucket_width=10.0,
            lattice=lattice, hierarchy=True, multi_assign=int(spill[0]),
            seed=7))
    return index.fit(corpus())


def batch(seed, n):
    """``n`` queries: perturbed corpus rows, whose short-lists are
    thick, and fresh Gaussian rows, whose short-lists are thin."""
    rng = np.random.default_rng(seed)
    near = corpus()[rng.integers(0, N, n)] + 0.05 * rng.standard_normal(
        (n, DIM))
    far = rng.standard_normal((n, DIM))
    return np.where(rng.random(n)[:, None] < 0.5, near, far)


def fields(result):
    """What a split must keep: ids, distances, escalation, counts."""
    ids, dists, stats = result
    return ids, dists, stats.escalated, stats.n_candidates


@pytest.mark.parametrize("config", CONFIGS)
def test_some_rows_escalate_and_some_do_not(config):
    # The property below is not vacuous: the fitted threshold splits a
    # batch into rows that escalate and rows that do not.
    queries = batch(0, MAX_QUERIES)
    escalated = build(config).query_batch(queries, K)[2].escalated
    assert escalated.any() and not escalated.all()


@pytest.mark.parametrize("config", CONFIGS)
@given(seed=st.integers(0, 2 ** 32 - 1),
       n=st.integers(1, MAX_QUERIES),
       cuts=st.lists(st.integers(1, MAX_QUERIES - 1), max_size=4),
       rows=st.integers(1, MAX_QUERIES))
@settings(max_examples=25, deadline=None)
def test_any_split_answers_as_the_whole_batch(config, seed, n, cuts, rows):
    index = build(config)
    queries = batch(seed, n)
    want = [a.tobytes() for a in fields(index.query_batch(queries, K))]
    with shard_rows(index, rows):
        sharded = index.query_batch(queries, K)
    assert [a.tobytes() for a in fields(sharded)] == want
    bounds = [0] + sorted({c for c in cuts if c < n}) + [n]
    pieces = [fields(index.query_batch(queries[a:b], K))
              for a, b in zip(bounds, bounds[1:])]
    assert [np.concatenate(parts).tobytes()
            for parts in zip(*pieces)] == want
