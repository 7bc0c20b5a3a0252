"""The query path's shard size as a test dimension.

A batch runs in shards of ``SHARD_LOOKUP_ROWS // plan.lookups_per_row()``
query rows (:mod:`repro.lsh.query`), a size no test batch comes near.
``shard_rows(index, rows)`` patches the constant so that ``index``'s
batches run in shards of ``rows`` rows, and restores it afterwards.
"""

import contextlib

import pytest

from repro.lsh import query


@contextlib.contextmanager
def shard_rows(index, rows):
    """Batches on ``index`` run in shards of ``rows`` query rows inside;
    ``rows=None`` patches nothing."""
    if rows is None:
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(query, "SHARD_LOOKUP_ROWS",
                      rows * index.execution_plan().lookups_per_row())
        yield
