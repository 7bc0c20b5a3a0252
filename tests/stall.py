"""A stalled stage as a test dimension.

No query stage has a fault site, so a test that needs a shard to burn
its budget slows a stage down instead, the way ``tests/shards.py``
patches a constant: ``stalled_stage("gather", delay_ms, max_hits)``
patches the plan's ``_stage_gather`` so that its first ``max_hits``
calls sleep ``delay_ms`` before they run, and counts them.
"""

import contextlib
import threading
import time

import pytest

from repro.lsh.query import _LSHPlan


class Stall:
    """How many calls the patched stage delayed so far."""

    def __init__(self):
        self.hits = 0


@contextlib.contextmanager
def stalled_stage(name, delay_ms, max_hits=1):
    """Inside, the first ``max_hits`` calls of every plan's ``name``
    stage sleep ``delay_ms`` first; yields the :class:`Stall` that
    counts them."""
    attr = f"_stage_{name}"
    stage = getattr(_LSHPlan, attr)
    stall = Stall()
    lock = threading.Lock()

    def stalled(plan, batch):
        with lock:
            hit = stall.hits < max_hits
            stall.hits += hit
        if hit:
            time.sleep(delay_ms / 1000.0)
        return stage(plan, batch)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_LSHPlan, attr, stalled)
        yield stall
