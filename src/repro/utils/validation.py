"""Input validation helpers shared across the library.

These helpers normalize user-facing array inputs into the canonical shapes
and dtypes used internally (C-contiguous ``float64`` matrices), and raise
uniform, descriptive errors for invalid parameters.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from repro.resilience.errors import QueryValidationError

Numeric = Union[int, float, np.integer, np.floating]


def as_float_matrix(data: ArrayLike, name: str = "data") -> np.ndarray:
    """Coerce ``data`` to a 2-D C-contiguous float64 array.

    Raises ``ValueError`` for empty input, wrong dimensionality, or
    non-finite entries.
    """
    if np.ndim(data) == 0:
        raise ValueError(f"{name} must be array-like, got a scalar")
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (n_points, dim), got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def as_float_vector(vec: ArrayLike, dim: Optional[int] = None,
                    name: str = "query") -> np.ndarray:
    """Coerce ``vec`` to a 1-D float64 array, optionally checking its length."""
    if np.ndim(vec) == 0:
        raise ValueError(f"{name} must be array-like, got a scalar")
    arr = np.ascontiguousarray(vec, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={arr.ndim}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} has dimension {arr.shape[0]}, expected {dim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def as_query_matrix(data: ArrayLike, dim: Optional[int] = None,
                    name: str = "queries") -> np.ndarray:
    """Coerce a query batch to a 2-D C-contiguous float64 array.

    Like :func:`as_float_matrix` plus an optional expected dimension,
    checked before finiteness: a row of the wrong width or one holding
    NaN/Inf raises ``ValueError`` naming ``name``.
    """
    if np.ndim(data) == 0:
        raise ValueError(f"{name} must be array-like, got a scalar")
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(
            f"{name} must be 2-D (n_queries, dim), got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(
            f"{name} has dimension {arr.shape[1]}, expected {dim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def check_matrix_2d(data: "np.ndarray", name: str = "data") -> "np.ndarray":
    """Validate shape only: 2-D and non-empty, with no coercion or copy.

    Unlike :func:`as_float_matrix` this never materializes or scans the
    array, so it is safe for ``numpy.memmap`` inputs the caller streams
    in bounded chunks (the out-of-core builders).
    """
    if getattr(data, "ndim", None) != 2:
        raise ValueError(f"{name} must be 2-D (n_points, dim)")
    if data.shape[0] == 0:
        raise ValueError(f"{name} must be non-empty")
    return data


def check_k(k: int, n_points: Optional[int] = None) -> int:
    """Validate a neighbor count ``k`` (positive integer, optionally <= n)."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise TypeError(f"k must be an integer, got {type(k)!r}")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if n_points is not None and k > n_points:
        raise ValueError(f"k={k} exceeds the number of indexed points ({n_points})")
    return int(k)


def validate_query_batch(queries: object, k: int, dim: int,
                         ) -> Tuple[np.ndarray, int]:
    """``(queries, k)`` validated for a ``dim``-column index: the query
    path's check, and the HTTP door's before a request may join a merge
    queue.  Shape, dim, non-finite and ``k`` problems raise
    :class:`QueryValidationError` (a ``ValueError``) naming the field."""
    try:
        queries = as_query_matrix(queries, dim=dim, name="queries")
    except ValueError as error:
        raise QueryValidationError(str(error), field="queries") from error
    try:
        k = check_k(k)
    except ValueError as error:
        raise QueryValidationError(str(error), field="k") from error
    return queries, k


def check_hierarchy_threshold(value: object) -> Optional[int]:
    """``value`` as an escalation threshold: ``None`` (the index's fitted
    one) or an integer ``>= 0``, not a ``bool``; anything else raises
    :class:`QueryValidationError` naming the field, on every index."""
    if value is None:
        return None
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) \
            and value >= 0:
        return int(value)
    raise QueryValidationError(
        "hierarchy_threshold must be None or an integer >= 0, "
        f"got {value!r}", field="hierarchy_threshold")


def check_positive(value: Numeric, name: str, strict: bool = True) -> Numeric:
    """Validate that a numeric parameter is positive (or non-negative)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"{name} must be numeric, got {type(value)!r}")
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_probability(value: Numeric, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    check_positive(value, name, strict=False)
    if value > 1:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return float(value)
