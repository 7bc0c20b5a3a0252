"""Kill-9 recovery chaos harness.

A child process builds an index, saves a snapshot, then streams
WAL-logged inserts/deletes, acknowledging each op (one LSN per line in
an append-only ack file) only AFTER the WAL append returns.  The parent
SIGKILLs the child mid-stream — in ``append`` mode during the tight
append loop, in ``compact`` mode most likely inside a fault-delayed
inline ``compact()`` — and then asserts the durability contract:

1. zero acknowledged-write loss: every acked LSN is present in the
   surviving WAL (page-cache flush before ack makes this SIGKILL-proof
   regardless of fsync policy);
2. recovery is idempotent: the mid-stream snapshot was taken WITHOUT
   truncating the WAL, so replay must skip the covered prefix and apply
   the tail exactly once (checked via point counts);
3. the recovered index answers queries bit-identically to a cold
   reference built by re-fitting the base data and replaying the full
   surviving op stream.
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.lsh.index import StandardLSH
from repro.maintenance import read_wal, recover_index

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

BASE_SEED = 1
DATA_SEED = 0
N_BASE, DIM = 400, 16
MIN_ACKS_AFTER_SNAPSHOT = 30

# The child is self-contained: argv = [workdir, mode, fsync].  It streams
# ops forever; the parent decides when to pull the trigger.
CHILD_SCRIPT = r"""
import os, sys
import numpy as np
from repro.lsh.index import StandardLSH
from repro.maintenance import WriteAheadLog
from repro.persistence import save_index
from repro.resilience import FaultPlan, FaultSpec, install_faults

workdir, mode, fsync = sys.argv[1], sys.argv[2], sys.argv[3]
rng = np.random.default_rng(0)
base = rng.standard_normal((400, 16))
idx = StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0, seed=1).fit(base)
wal = WriteAheadLog(os.path.join(workdir, "wal.bin"), fsync=fsync)
idx.attach_wal(wal)

if mode == "compact":
    # Slow every compaction down so SIGKILL likely lands mid-fold.
    install_faults(FaultPlan(
        [FaultSpec(site="maintenance.compact", kind="delay",
                   delay_ms=40.0)], seed=0))

ack_fd = os.open(os.path.join(workdir, "acks.log"),
                 os.O_WRONLY | os.O_CREAT | os.O_APPEND)
op_rng = np.random.default_rng(7)
i = 0
while True:
    pts = op_rng.standard_normal((3, 16))
    new_ids = idx.insert(pts)
    os.write(ack_fd, f"{idx._applied_lsn}\n".encode())
    if i % 4 == 3:
        idx.delete(new_ids[:1])
        os.write(ack_fd, f"{idx._applied_lsn}\n".encode())
    if i == 10:
        # Mid-stream snapshot WITHOUT truncating the WAL: recovery must
        # skip the covered prefix (LSN idempotence under test).
        save_index(idx, os.path.join(workdir, "snap.npz"))
        with open(os.path.join(workdir, "snap.done"), "w") as fh:
            fh.write("ok")
    if mode == "compact" and i % 8 == 7:
        idx.compact()
    i += 1
"""


def _count_acked(path):
    """Complete (newline-terminated) acked LSNs; a torn last line is an
    un-acknowledged op and is ignored."""
    try:
        raw = open(path, "rb").read()
    except FileNotFoundError:
        return []
    return [int(line) for line in raw.split(b"\n")[:-1] if line]


def _run_child_until_killable(tmp_path, mode, fsync):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT, str(tmp_path), mode, fsync],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    snap_marker = tmp_path / "snap.done"
    ack_path = tmp_path / "acks.log"
    deadline = time.monotonic() + 60.0
    try:
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                _, err = proc.communicate()
                pytest.fail(f"child exited early ({proc.returncode}): "
                            f"{err.decode()[-2000:]}")
            if snap_marker.exists():
                acked = _count_acked(ack_path)
                if len(acked) >= MIN_ACKS_AFTER_SNAPSHOT:
                    break
            time.sleep(0.01)
        else:
            pytest.fail("child never reached the kill window")
        proc.kill()  # SIGKILL: no cleanup handlers run
        proc.wait(timeout=10.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)
    assert proc.returncode == -signal.SIGKILL
    return _count_acked(ack_path)


def _cold_reference(records):
    """Re-fit the base data and replay the full surviving op stream."""
    rng = np.random.default_rng(DATA_SEED)
    base = rng.standard_normal((N_BASE, DIM))
    idx = StandardLSH(n_hashes=4, n_tables=3, bucket_width=4.0,
                      seed=BASE_SEED).fit(base)
    for record in records:
        if record.kind == "insert":
            idx.insert(record.points, ids=record.ids)
        else:
            idx.delete(record.ids)
    return idx


@pytest.mark.parametrize("fsync", ["always", "batch", "none"])
@pytest.mark.parametrize("mode", ["append", "compact"])
def test_sigkill_loses_no_acked_writes(tmp_path, mode, fsync):
    acked = _run_child_until_killable(tmp_path, mode, fsync)
    assert len(acked) >= MIN_ACKS_AFTER_SNAPSHOT

    records, info = read_wal(str(tmp_path / "wal.bin"))
    surviving = {record.lsn for record in records}
    lost = [lsn for lsn in acked if lsn not in surviving]
    assert lost == [], f"acknowledged writes lost after SIGKILL: {lost}"

    recovered, report = recover_index(str(tmp_path / "snap.npz"),
                                      str(tmp_path / "wal.bin"))
    # The snapshot covered a prefix of the WAL; idempotent replay must
    # skip it rather than double-apply.
    assert report.snapshot_lsn > 0
    assert report.skipped > 0
    assert report.applied + report.skipped == len(records)

    reference = _cold_reference(records)
    assert recovered.n_points == reference.n_points
    queries = np.random.default_rng(99).standard_normal((32, DIM))
    got = recovered.query_batch(queries, 5)
    want = reference.query_batch(queries, 5)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_allclose(got[1], want[1])
