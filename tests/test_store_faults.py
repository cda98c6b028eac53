"""Store I/O under faults, and the control log's one commit per statement.

:class:`FaultPlan` is a test double, installed with pytest's monkeypatch:
the program has no knob for it.  It fails one store I/O operation — the
n-th WAL record write (half the frame reaches the file, then ``EIO``), the
n-th WAL write with ``ENOSPC`` before any byte, the n-th ``fsync`` (logs,
manifest), or the n-th ``os.replace`` that publishes a partition
snapshot.  Every case must end in a typed :class:`StorageError` or in the
rows an in-memory session returns, within pytest's faulthandler timeout;
afterwards the store reopens, answers correctly and ``store check`` is
clean.
"""

from __future__ import annotations

import builtins
import errno
import os

import pytest

import repro
import repro.store.wal as wal_module
from repro.config import EvaConfig
from repro.errors import StorageError
from repro.session import EvaSession
from repro.store import check_store, render_check, scan_wal

QUERIES = [
    "SELECT id, bbox FROM tiny CROSS APPLY ObjectDetector(frame) "
    "WHERE id >= 0 AND id < 40 AND label = 'car';",
    "SELECT id, bbox FROM tiny CROSS APPLY ObjectDetector(frame) "
    "WHERE id >= 20 AND id < 70 AND label = 'car' "
    "AND CarType(frame, bbox) = 'Nissan';",
    "SELECT id, bbox FROM tiny CROSS APPLY ObjectDetector(frame) "
    "WHERE id >= 60 AND id < 90 AND label = 'car';",
]


class FaultPlan:
    """Fails the ``at``-th store I/O operation of kind ``kind``, once."""

    KINDS = ("write", "enospc", "fsync", "replace")

    def __init__(self, kind: str, at: int):
        assert kind in self.KINDS
        self.kind, self.at = kind, at
        self.seen = 0
        self.fired = False

    def _due(self, kind: str) -> bool:
        if kind != self.kind or self.fired:
            return False
        self.seen += 1
        self.fired = self.seen == self.at
        return self.fired

    def install(self, monkeypatch) -> None:
        plan = self
        real_open, real_fsync, real_replace = (builtins.open, os.fsync,
                                               os.replace)

        class File:
            """A WAL file whose writes consult the plan."""

            def __init__(self, handle):
                self._handle = handle

            def write(self, data):
                if plan._due("write"):
                    self._handle.write(data[:len(data) // 2])
                    raise OSError(errno.EIO, "injected write fault")
                if plan._due("enospc"):
                    raise OSError(errno.ENOSPC, "injected: disk full")
                return self._handle.write(data)

            def __getattr__(self, name):
                return getattr(self._handle, name)

        def fsync(fd):
            if plan._due("fsync"):
                raise OSError(errno.EIO, "injected fsync fault")
            real_fsync(fd)

        def replace(source, target):
            if str(target).endswith(".snap") and plan._due("replace"):
                raise OSError(errno.EIO, "injected replace fault")
            real_replace(source, target)

        monkeypatch.setattr(wal_module, "open",
                            lambda *args, **kwargs: File(real_open(
                                *args, **kwargs)), raising=False)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)


def _config(path, **kwargs) -> EvaConfig:
    kwargs = {"store_fsync_every": 2, "store_snapshot_interval": 2,
              "store_partition_frames": 16, **kwargs}
    return EvaConfig(store_mode="durable", store_path=str(path), **kwargs)


@pytest.fixture(scope="module")
def expected(tiny_video):
    session = EvaSession()
    session.register_video(tiny_video)
    return [session.execute(sql).rows for sql in QUERIES]


#: A clean run of QUERIES plus close() makes 45 WAL writes, 38 fsyncs
#: and 10 snapshot replaces: each kind is hit mid-run, and at open or at
#: close.
CASES = [("write", 7), ("write", 40), ("enospc", 3), ("enospc", 30),
         ("fsync", 1), ("fsync", 10), ("fsync", 35), ("replace", 3),
         ("replace", 7)]


@pytest.mark.parametrize("kind,at", CASES)
def test_a_fault_ends_in_a_typed_error_or_a_correct_result(
        tmp_path, monkeypatch, tiny_video, expected, kind, at):
    plan = FaultPlan(kind, at)
    plan.install(monkeypatch)
    errors = 0
    try:
        session = repro.connect(_config(tmp_path))
        session.register_video(tiny_video)
        for sql, rows in zip(QUERIES, expected):
            try:
                assert session.execute(sql).rows == rows
            except StorageError:
                errors += 1
        session.close()
    except StorageError:
        errors += 1
    assert plan.fired and errors
    monkeypatch.undo()

    reopened = repro.connect(_config(tmp_path))
    reopened.register_video(tiny_video)
    assert [reopened.execute(sql).rows for sql in QUERIES] == expected
    reopened.close()
    report = check_store(tmp_path)
    assert report.ok and not report.warnings, render_check(report)


class TestControlCommit:
    def test_one_control_fsync_per_statement(self, tmp_path, monkeypatch,
                                             tiny_video):
        """UDF-history and lineage records reach the control log at once
        and are fsynced once, when the statement ends: a SELECT and an
        EXPLAIN ANALYZE that add no view and no partition make exactly
        one fsync, of the control log as it stands when they return."""
        session = repro.connect(_config(
            tmp_path, store_fsync_every=10**6, store_snapshot_interval=10**6,
            store_partition_frames=10**6))
        session.register_video(tiny_video)
        session.execute(QUERIES[0])  # creates the view and its partition
        control = tmp_path / "control.log"
        synced = []
        real_fsync = os.fsync

        def counting(fd):
            synced.append(os.fstat(fd))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting)
        statements = [
            "SELECT id, bbox FROM tiny CROSS APPLY ObjectDetector(frame) "
            "WHERE id >= 30 AND id < 80 AND label = 'car';",
            "EXPLAIN ANALYZE SELECT id FROM tiny CROSS APPLY "
            "ObjectDetector(frame) WHERE id >= 100 AND id < 120;"]
        for sql in statements:
            synced.clear()
            logged = len(scan_wal(control).records)
            session.execute(sql)
            assert len(scan_wal(control).records) > logged
            [stat] = synced
            now = os.stat(control)
            assert (stat.st_ino, stat.st_size) == (now.st_ino, now.st_size)
        session.close()
