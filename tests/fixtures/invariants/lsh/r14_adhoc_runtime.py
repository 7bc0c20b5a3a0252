"""Seeded violation: R14 (and only R14) must fire on this file.

``wire_durability`` calls ``attach_wal`` outside an ``attach_*``
lifecycle method, re-growing ad-hoc attachment wiring that belongs to
:class:`repro.runtime.IndexRuntime`.  Everything else is fully
annotated and exception-clean so no other rule trips.
"""

from __future__ import annotations


def wire_durability(index: object, wal: object) -> None:
    index.attach_wal(wal)
