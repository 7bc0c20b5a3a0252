"""P, the kernel threads, as a test dimension.

``native_threads(p)`` re-resolves the kernel table with
``REPRO_NATIVE_THREADS=p`` (the registry's one seam) and restores the
environment's own resolution afterwards.  ``THREADS`` is the matrix every
P test runs: one thread, two (the reference box's cores) and seven (more
threads than cores, and query ranges that do not divide evenly).
``inline_limits()`` reads the work below which a compiled call runs
inline, so a test can place its calls just below and just above it.
"""

import contextlib
import os
import re
import warnings

import pytest

from repro.native import registry

THREADS = (1, 2, 7)


@contextlib.contextmanager
def native_threads(p):
    """Queries inside run with ``p`` kernel threads."""
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_NATIVE_THREADS", str(p))
            yield _resolved()
    finally:
        _resolved()


def _resolved():
    """The table re-resolved from the environment as it stands now."""
    registry.reset()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return registry.load_kernels()


def inline_limits():
    """``{name: value}`` of the compiled kernels' inline thresholds."""
    path = os.path.join(os.path.dirname(registry.__file__), "_kernels.c")
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    limits = {}
    for name in ("INLINE_QUERIES", "RANK_INLINE_IDS", "RANK_TILE",
                 "RANK_TILE_QUERIES"):
        value = re.search(rf"^#define {name} \(?(.+?)\)?$", source,
                          re.MULTILINE).group(1)
        limits[name] = eval(value, {})  # an integer constant expression
    return limits
