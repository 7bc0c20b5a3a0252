"""Random-number-generator plumbing.

Every randomized component in the library accepts a ``seed`` argument that
may be ``None`` (fresh entropy), an integer, or an existing
:class:`numpy.random.Generator`.  Centralizing the coercion here keeps the
behaviour uniform across the RP-tree, the LSH families, the datasets and the
benchmarks, and makes experiments exactly repeatable.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` for a deterministic stream, an
        existing ``Generator`` (returned unchanged), or a ``SeedSequence``.

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        f"seed must be None, int, Generator or SeedSequence, got {type(seed)!r}"
    )


def spawn_rngs(seed: SeedLike, count: int) -> list:
    """Create ``count`` statistically independent generators from ``seed``.

    Used when a component (e.g. ``L`` independent hash tables) needs several
    decorrelated streams that remain reproducible from a single user seed.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children from the generator itself so repeated calls differ.
        children = seed.spawn(count)
        return list(children)
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(count)]
