"""The executor's shard size as a test dimension.

The executor splits a batch into shards of
``SHARD_LOOKUP_ROWS // plan.lookups_per_row()`` query rows, a size no
test batch comes near.  ``shard_rows(index, rows)`` patches the constant
so that ``index``'s batches run in shards of ``rows`` rows, and restores
it afterwards.
"""

import contextlib

import pytest

from repro.exec import QueryPlan, executor


@contextlib.contextmanager
def shard_rows(index, rows):
    """Batches on ``index`` (or through a :class:`QueryPlan`) run in
    shards of ``rows`` query rows inside; ``rows=None`` patches nothing."""
    if rows is None:
        yield
        return
    plan = index if isinstance(index, QueryPlan) else index.execution_plan()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "SHARD_LOOKUP_ROWS",
                      rows * plan.lookups_per_row())
        yield
