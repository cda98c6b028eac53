"""``Batch.to_tuples`` builds result rows with automatic cyclic collection
paused: the rows are the ones ``list(zip(*columns))`` builds, no
collection starts while they are built, and the collector is left as the
call found it — per thread, and never off past the call that turned it
off."""

from __future__ import annotations

import gc
import sys
import threading
from collections.abc import Sequence

import numpy as np
import pytest

from repro.errors import ExecutorError
from repro.storage.batch import (
    Batch,
    BoxColumn,
    ColumnView,
    materialize_column,
    stored_column,
)
from repro.types import BoundingBox

WAIT_S = 5.0


def boxes(count: int) -> list[BoundingBox]:
    return [BoundingBox(float(i % 97), 1.0, float(i % 97) + 2.5, 9.0)
            for i in range(count)]


def box_batch(count: int) -> Batch:
    """``count`` rows whose ``bbox`` column is a view over a stored
    :class:`BoxColumn`, as a probed view hands them to the client."""
    stored = stored_column([], boxes(count))
    assert isinstance(stored, BoxColumn)
    indices = np.arange(count)[::-1].copy()
    return Batch({"id": list(range(count)),
                  "bbox": ColumnView(stored, indices)})


class Unreadable(Sequence):
    """A base column every read of which fails."""

    def __len__(self) -> int:
        return 3

    def __getitem__(self, item):
        raise ExecutorError("unreadable column")


@pytest.fixture(autouse=True)
def collector_enabled():
    assert gc.isenabled()
    try:
        yield
    finally:
        gc.enable()


class TestRows:
    def test_plain_lists(self):
        columns = {"id": [3, 1, 2], "label": ["car", "bus", None]}
        assert Batch(columns).to_tuples() == list(zip(*columns.values()))

    def test_named_subset_in_the_order_asked(self):
        batch = Batch({"id": [3, 1], "label": ["car", "bus"]})
        assert batch.to_tuples(["label", "id"]) == [("car", 3), ("bus", 1)]

    def test_views_over_a_stored_box_column(self):
        batch = box_batch(50)
        columns = [materialize_column(batch.column(name))
                   for name in batch.column_names]
        rows = batch.to_tuples()
        assert rows == list(zip(*columns))
        assert rows[0] == (0, boxes(50)[-1])

    def test_zero_columns(self):
        assert Batch().to_tuples() == []
        assert Batch({"id": [1, 2]}).to_tuples([]) == []


class TestCollectorState:
    def test_enabled_stays_enabled(self):
        box_batch(10).to_tuples()
        assert gc.isenabled()

    def test_disabled_by_the_caller_stays_disabled(self):
        gc.disable()
        box_batch(10).to_tuples()
        assert not gc.isenabled()

    def test_restored_when_materializing_a_column_raises(self):
        batch = Batch({"id": ColumnView(Unreadable(), [2, 0])})
        with pytest.raises(ExecutorError, match="unreadable"):
            batch.to_tuples()
        assert gc.isenabled()

    def test_no_collection_starts_while_rows_are_built(self):
        batch = box_batch(100_000)
        columns = [materialize_column(batch.column(name))
                   for name in batch.column_names]
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            # Without the pause, building these rows does collect: the
            # rows hold tracked boxes, so they are tracked themselves.
            list(zip(*columns))
            assert starts
            gc.collect()
            starts.clear()
            rows = batch.to_tuples()
        finally:
            gc.callbacks.remove(count)
        assert len(rows) == 100_000
        assert starts == []
        assert gc.is_tracked(rows[0])


class Gate(Sequence):
    """A column whose iteration waits until the test releases it, so a
    thread can be held in the middle of ``to_tuples``."""

    def __init__(self, values: list):
        self.values = values
        self.entered = threading.Event()
        self.release = threading.Event()

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, item):
        return self.values[item]

    def __iter__(self):
        self.entered.set()
        assert self.release.wait(WAIT_S)
        return iter(self.values)


def start(target) -> threading.Thread:
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


class TestThreads:
    def test_overlapping_calls_leave_the_collector_on(self):
        batch = box_batch(2_000)
        lengths = []

        def loop():
            for _ in range(40):
                lengths.append(len(batch.to_tuples()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [start(loop) for _ in range(2)]
            for thread in threads:
                thread.join(WAIT_S)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert lengths == [2_000] * 80
        assert gc.isenabled()

    def test_a_pause_ends_when_its_own_call_returns(self):
        first, second = Gate([1, 2]), Gate([3, 4])
        first_thread = start(Batch({"id": first}).to_tuples)
        assert first.entered.wait(WAIT_S)
        assert not gc.isenabled()  # the first call's pause

        second_thread = start(Batch({"id": second}).to_tuples)
        assert second.entered.wait(WAIT_S)
        first.release.set()
        first_thread.join(WAIT_S)
        assert not first_thread.is_alive()
        # The second call found the collector off and took no pause of
        # its own: it is still mid-call, and the collector is back on.
        assert second_thread.is_alive()
        assert gc.isenabled()

        second.release.set()
        second_thread.join(WAIT_S)
        assert not second_thread.is_alive()
        assert gc.isenabled()
