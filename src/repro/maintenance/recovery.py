"""Crash recovery: last snapshot + idempotent WAL-tail replay.

The recovery contract (DESIGN.md §13): an index whose mutations were
acknowledged through a :class:`~repro.maintenance.wal.WriteAheadLog`
can be killed at any instant — ``kill -9`` mid-append, mid-compaction,
mid-checkpoint — and :func:`recover_index` reconstructs exactly the
acknowledged state:

1. load the most recent v2 snapshot (:func:`repro.persistence.load_index`
   verifies every array checksum and restores the snapshot's applied
   LSN from ``__meta__``);
2. scan the WAL (:func:`repro.maintenance.wal.read_wal` — tolerant of a
   torn tail from a crash mid-append);
3. replay only records with ``lsn > snapshot LSN`` — records the
   snapshot already covers are skipped, so a crash between ``save`` and
   WAL truncation cannot double-apply anything.

:func:`checkpoint` is the forward direction: snapshot the live index
(the save captures a consistent ``(arrays, LSN)`` pair under the
index's writer lock) and drop the covered WAL prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.core.bilevel import BiLevelLSH
from repro.lsh.index import StandardLSH
from repro.maintenance.wal import WalRecord, WriteAheadLog, read_wal
from repro.persistence import load_index, save_index

#: Index types that support WAL-logged mutation and therefore recovery.
RecoverableIndex = Union[StandardLSH, BiLevelLSH]

__all__ = ["RecoveryError", "RecoveryReport", "replay_records",
           "recover_index", "checkpoint"]


class RecoveryError(RuntimeError):
    """Replay produced a state inconsistent with what the WAL recorded."""


@dataclass(frozen=True)
class RecoveryReport:
    """What one :func:`recover_index` call did."""

    snapshot_path: str
    wal_path: str
    snapshot_lsn: int
    applied: int
    skipped: int
    last_lsn: int
    torn_bytes: int


def replay_records(index: RecoverableIndex, records: List[WalRecord],
                   start_lsn: int) -> Tuple[int, int]:
    """Apply ``records`` with ``lsn > start_lsn`` to ``index``, in order.

    Replay is idempotent through the LSN filter, not through the
    operations themselves — an insert applied twice would duplicate
    rows, which is exactly why the filter exists.  Returns
    ``(applied, skipped)``.

    Inserts re-apply with their logged external ids; an index whose
    ``insert`` assigns ids itself (``BiLevelLSH``) must regenerate the
    logged ids exactly, and a mismatch raises :class:`RecoveryError`
    instead of silently renumbering acknowledged points.
    """
    applied = skipped = 0
    for record in records:
        if record.lsn <= start_lsn:
            skipped += 1
            continue
        if record.kind == "insert":
            assert record.points is not None
            if isinstance(index, BiLevelLSH):
                # The bi-level front-end owns id assignment; its
                # deterministic numbering must reproduce the logged ids.
                got = index.insert(record.points)
            else:
                got = index.insert(record.points, ids=record.ids)
            got = np.asarray(got, dtype=np.int64)
            if not np.array_equal(got, record.ids):
                raise RecoveryError(
                    f"replay of insert lsn={record.lsn} assigned ids "
                    f"{got[:8]}..., WAL recorded {record.ids[:8]}...")
        else:
            index.delete(record.ids)
        index._applied_lsn = record.lsn
        applied += 1
    return applied, skipped


def recover_index(snapshot_path: str, wal_path: str,
                  ) -> Tuple[RecoverableIndex, RecoveryReport]:
    """Load ``snapshot_path`` and replay the WAL tail on top of it.

    Returns ``(index, report)``.  The returned index has no WAL
    attached — the caller decides whether to resume logging (typically
    by reopening the WAL, which self-truncates any torn tail) or to
    :func:`checkpoint` immediately.
    """
    index = load_index(snapshot_path)
    snapshot_lsn = index._applied_lsn
    records, info = read_wal(wal_path)
    applied, skipped = replay_records(index, records, snapshot_lsn)
    last_lsn = max(snapshot_lsn, info.last_lsn)
    index._applied_lsn = last_lsn
    ob = obs.active()
    if ob is not None:
        ob.record_wal_replay(applied, skipped, info.torn_bytes)
    return index, RecoveryReport(
        snapshot_path=str(snapshot_path), wal_path=str(wal_path),
        snapshot_lsn=snapshot_lsn, applied=applied, skipped=skipped,
        last_lsn=last_lsn, torn_bytes=info.torn_bytes)


def checkpoint(index: object, wal: Optional[WriteAheadLog],
               path: str) -> int:
    """Snapshot ``index`` to ``path`` and drop the covered WAL prefix.

    The save itself captures a consistent ``(snapshot, LSN)`` pair (the
    assembly runs under the index's writer lock) and *returns* the LSN
    it recorded, so the WAL reset truncates exactly the prefix the
    snapshot contains — a mutation acknowledged while compression ran
    off-lock advances ``index._applied_lsn`` past the captured value,
    and truncating against that newer LSN would drop its WAL record
    from a snapshot that does not hold it.  Crash-safe in both halves:
    the snapshot commits via atomic rename, and a crash between the
    save and the reset merely leaves covered records in the WAL —
    replay skips them by LSN.  Returns the checkpointed LSN.
    """
    lsn = save_index(index, path)
    if wal is not None:
        wal.reset(lsn)
    return lsn
