"""Typed errors for the resilience layer.

Every failure mode the resilience layer can surface has its own type so
callers (and tests) can distinguish "the input was bad" from "the index
file is corrupt" from "a fault-injection site fired" without string
matching.  :class:`QueryValidationError` subclasses :class:`ValueError`
so pre-existing ``except ValueError`` callers keep working.
"""

from __future__ import annotations

from typing import Optional


class ResilienceError(RuntimeError):
    """Base class for failures raised by the resilience layer itself."""


class InjectedFault(ResilienceError):
    """A deterministic fault planted by :class:`~repro.resilience.faults.FaultPlan`.

    Raised at a named fault site (``persistence.save``,
    ``maintenance.append``, ...) when the installed plan decides the site
    should fail.  Production code never raises this; it exists so the
    crash matrix can prove that a failed write leaves a recoverable index.
    """

    def __init__(self, site: str, detail: str = "") -> None:
        self.site = site
        self.detail = detail
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"injected fault at site {site!r}{suffix}")


class CorruptIndexError(ResilienceError):
    """A persisted index failed integrity verification.

    ``key`` names the archive entry whose checksum (or presence) failed,
    so operators know *which* array is damaged instead of getting a
    generic unpickling error — or worse, a silently wrong index.
    """

    def __init__(self, path: str, key: str, reason: str) -> None:
        self.path = path
        self.key = key
        self.reason = reason
        super().__init__(
            f"corrupt index file {path!r}: entry {key!r} {reason}")


class QueryValidationError(ValueError):
    """Typed rejection of an invalid query batch (shape/dim/dtype/k).

    Raised at the *top* of ``query_batch`` so malformed input produces a
    clear, actionable message instead of a downstream broadcasting or
    index error deep inside the hashing kernels.
    """

    def __init__(self, message: str, field: Optional[str] = None) -> None:
        self.field = field
        super().__init__(message)
