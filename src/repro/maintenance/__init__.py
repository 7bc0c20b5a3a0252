"""Durable streaming maintenance: WAL and recovery.

Live-index durability is two pieces:

- :mod:`repro.maintenance.wal` — a checksummed append-only write-ahead
  log; every acknowledged ``insert``/``delete`` is framed, CRC32-checked
  and flushed before the mutating call returns.
- :mod:`repro.maintenance.recovery` — snapshot + WAL-tail replay after
  a crash, idempotent via monotonic LSNs.

Folding insert overlays and tombstones back into the sorted tables is
the index's own :meth:`~repro.lsh.index.StandardLSH.compact`.
"""

from repro.maintenance.recovery import (RecoverableIndex, RecoveryError,
                                        RecoveryReport, checkpoint,
                                        recover_index, replay_records)
from repro.maintenance.wal import (FSYNC_POLICIES, WalInfo, WalRecord,
                                   WriteAheadLog, read_wal)

__all__ = [
    "FSYNC_POLICIES",
    "WalInfo",
    "WalRecord",
    "WriteAheadLog",
    "read_wal",
    "RecoverableIndex",
    "RecoveryError",
    "RecoveryReport",
    "checkpoint",
    "recover_index",
    "replay_records",
]
