"""Unit-level concurrency tests for the shared reuse state layer.

`tests/test_server.py` exercises the server end to end; this module
hammers the individual primitives — the reader-writer lock, the shared
view store's per-view locking + attribution, and the mutex-guarded UDF
manager — with raw threads so a regression in any one of them fails
here with a precise signal rather than as a flaky stress test.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
import threading
import time

import numpy as np
import pytest

import repro.server.shard as shard_module
import repro.storage.view_store as view_store_module
from repro.config import EvaConfig
from repro.errors import ServerError
from repro.optimizer.udf_manager import UdfManager, UdfSignature
from repro.parser.parser import parse
from repro.server import EvaServer, PoolServer
from repro.server.locks import RWLock
from repro.server.shard import (
    RemoteViewHandle,
    ShardedWorkerState,
    decode_error,
    dispatch,
    encode_error,
    shard_key_for_view,
)
from repro.server.state import (
    LockedUdfManager,
    SharedReuseState,
    SharedViewStore,
)
from repro.server.stats import ServerStats
from repro.storage.view_store import MaterializedView, pack_key_tuples
from repro.symbolic.dnf import dnf_from_expression
from repro.symbolic.engine import SymbolicEngine
from repro.types import VideoMetadata
from repro.video.synthetic import SyntheticVideo


def guard(sql: str):
    """A DNF guard from a WHERE-clause snippet."""
    return dnf_from_expression(parse(f"SELECT id FROM v WHERE {sql};").where)


def run_threads(targets) -> None:
    """Start all targets at once (barrier) and join them, re-raising the
    first exception from any worker."""
    barrier = threading.Barrier(len(targets))
    errors: list[BaseException] = []

    def wrap(fn):
        def body():
            barrier.wait()
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - reraised below
                errors.append(exc)
        return body

    threads = [threading.Thread(target=wrap(fn)) for fn in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# -- peer loopback ---------------------------------------------------------------


class Loopback:
    """One worker's peer connection to ``owner``, folded into this
    process: request and reply each cross a pickle boundary, the owner
    answers through its real dispatcher
    (:meth:`ShardedWorkerState.serve_peer`), and an error comes back
    encoded and decoded as it would over the socket."""

    def __init__(self, owner: ShardedWorkerState):
        self.owner = owner
        self.calls: list[str] = []

    def call(self, target, method, *args):
        self.calls.append(method)
        request = pickle.loads(pickle.dumps((target, method, args)))
        try:
            payload = self.owner.serve_peer(*request)
        except Exception as error:  # noqa: BLE001 - crosses the wire
            raise decode_error(*encode_error(error)[1:]) from None
        return pickle.loads(pickle.dumps(payload))


class LoopbackPeers:
    """A fleet's peer table: worker id -> :class:`Loopback`."""

    def __init__(self):
        self.fleet: list[ShardedWorkerState] = []

    def client(self, worker_id: int) -> Loopback:
        return Loopback(self.fleet[worker_id])


@pytest.fixture
def make_fleet(tmp_path):
    """Builds in-process fleets: ``workers`` sharded worker states over
    durable shard partitions, wired to each other by loopback peers."""
    fleets = []

    def make(workers: int = 2, shards: int = 4):
        config = EvaConfig(workers=workers, shards=shards,
                           store_mode="durable",
                           store_path=str(tmp_path / f"fleet-{len(fleets)}"))
        peers = LoopbackPeers()
        peers.fleet = [ShardedWorkerState(config, worker_id=worker,
                                          peers=peers)
                       for worker in range(workers)]
        fleets.append(peers.fleet)
        return peers.fleet

    yield make
    for fleet in fleets:
        for state in fleet:
            state.close_store()


@pytest.fixture
def loopback_owner(make_fleet):
    """For one view name in a fresh fleet: the owning shard's store
    (stats attached), those stats, and a :class:`Loopback` to its
    owner."""

    def make(name: str):
        fleet = make_fleet()
        owner = fleet[fleet[0].router.worker_of(shard_key_for_view(name))]
        stats = ServerStats()
        owner.attach_stats(stats)
        return owner.local_store(name), stats, Loopback(owner)

    return make


# -- RWLock ----------------------------------------------------------------------


class TestRWLock:
    def test_readers_are_concurrent(self):
        lock = RWLock()
        inside = threading.Barrier(4, timeout=10)

        def reader():
            with lock.read_locked():
                # All four readers must be inside simultaneously;
                # if the lock serialized them this barrier times out.
                inside.wait()

        run_threads([reader] * 4)
        assert lock.active_readers == 0

    def test_writer_excludes_readers_and_writers(self):
        lock = RWLock()
        counter = {"value": 0, "max_seen": 0}

        def writer():
            for _ in range(200):
                with lock.write_locked():
                    counter["value"] += 1
                    counter["max_seen"] = max(counter["max_seen"],
                                              1 if lock.writer_active else 0)
                    assert lock.active_readers == 0

        def reader():
            for _ in range(200):
                with lock.read_locked():
                    assert not lock.writer_active

        run_threads([writer, writer, reader, reader])
        assert counter["value"] == 400
        assert not lock.writer_active

    def test_writer_preference_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        writer_waiting = threading.Event()
        writer_done = threading.Event()
        late_reader_done = threading.Event()

        def writer():
            writer_waiting.set()
            with lock.write_locked():
                pass
            writer_done.set()

        def late_reader():
            writer_waiting.wait(timeout=10)
            time.sleep(0.05)  # let the writer reach its wait loop
            with lock.read_locked():
                # A writer is queued, so we only get here after it ran.
                assert writer_done.is_set()
            late_reader_done.set()

        w = threading.Thread(target=writer)
        r = threading.Thread(target=late_reader)
        w.start()
        r.start()
        time.sleep(0.15)
        assert not writer_done.is_set()  # blocked on the initial reader
        lock.release_read()
        w.join(timeout=10)
        r.join(timeout=10)
        assert writer_done.is_set() and late_reader_done.is_set()

    def test_release_without_acquire_raises(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()


# -- SharedViewStore -------------------------------------------------------------


class TestSharedViewStore:
    def make(self):
        store = SharedViewStore()
        stats = ServerStats()
        store.attach_stats(stats)
        return store, stats

    def test_concurrent_puts_lose_nothing(self):
        store, _ = self.make()
        clients = [store.for_client(f"c{i}") for i in range(8)]
        per_client = 150

        def worker(facade, offset):
            def body():
                view = facade.create_or_get("mv::x", ["id"], ["label"])
                for i in range(per_client):
                    # Half the key space is contested by every client.
                    key = (i,) if i % 2 == 0 else (offset * 1000 + i,)
                    view.put(key, [{"label": "car"}])
                    # Interleave reads + prefix probes with the writes.
                    assert view.get(key) is not None
                    view.keys_with_prefix(key[0])
            return body

        run_threads([worker(facade, i)
                     for i, facade in enumerate(clients)])

        view = store.base.get("mv::x")
        contested = {(i,) for i in range(per_client) if i % 2 == 0}
        private = {(offset * 1000 + i,)
                   for offset in range(8)
                   for i in range(per_client) if i % 2 == 1}
        assert set(view.keys()) == contested | private
        # The lazily-built prefix index agrees with the entries.
        for key in contested:
            assert key in set(view.keys_with_prefix(key[0]))

    def test_each_key_has_exactly_one_owner(self):
        store, stats = self.make()
        clients = [store.for_client(f"c{i}") for i in range(6)]

        def worker(facade):
            def body():
                view = facade.create_or_get("mv::own", ["id"], ["label"])
                inserted = sum(view.put((i,), [{"label": "bus"}])
                               for i in range(100))
                facade_inserts[facade.client_id] = inserted
            return body

        facade_inserts: dict[str, int] = {}
        run_threads([worker(facade) for facade in clients])

        # Every key went in exactly once, and ownership matches the
        # per-client insertion counts reported by put()'s return value.
        assert store.base.get("mv::own").num_keys == 100
        assert sum(facade_inserts.values()) == 100
        owners = [store.owner_of("mv::own", (i,)) for i in range(100)]
        assert all(owner is not None for owner in owners)
        for client_id, inserted in facade_inserts.items():
            assert owners.count(client_id) == inserted
        snapshot = stats.snapshot(workers=1, hit_percentage=0.0,
                                  num_views=1, view_storage_bytes=0)
        by_client = {c.client_id: c for c in snapshot.clients}
        for client_id, inserted in facade_inserts.items():
            # Clients that lost every race have no stats entry at all.
            materialized = (by_client[client_id].keys_materialized
                            if client_id in by_client else 0)
            assert materialized == inserted

    def test_frame_id_probes_under_concurrent_appends(self):
        """Appends replace the dense index and offset arrays as they
        grow; a frame-id probe racing them sees each key either absent or
        with exactly its own rows."""
        view = MaterializedView("mv::race", ["id"], ["label"])
        writers, per_writer = 4, 1000
        ids = np.arange(writers * per_writer)
        writing = threading.Semaphore(0)
        probes: list[int] = []

        def writer(offset):
            def body():
                for i in range(offset, writers * per_writer, writers):
                    view.put_many([(i,)], [i % 3],
                                  {"label": [str(i)] * (i % 3)})
                writing.release()
            return body

        def reader():
            done = 0
            while done < writers:
                hits = view.get_many(ids)
                found, counts = hits.hit_positions()
                assert (counts == found % 3).all()
                labels = list(map(int, hits.column("label")))
                assert labels == np.repeat(found, counts).tolist()
                probes.append(hits.num_hits)
                while writing.acquire(blocking=False):
                    done += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_threads([writer(k) for k in range(writers)] + [reader])
        finally:
            sys.setswitchinterval(interval)
        final = view.get_many(ids)
        assert final.counts == [i % 3 for i in range(len(ids))]
        assert len(probes) > 1 and probes == sorted(probes)

    def test_packed_patch_probes_under_concurrent_appends(self):
        """Appends grow the packed-key index, the value codes and their
        vocabulary; a packed-key probe racing them sees each key either
        absent or with exactly its own value."""
        view = MaterializedView("mv::patch-race", ["id", "bbox_key"],
                                ["value"])
        writers, per_writer = 4, 500
        keys = [(i, (i % 7, 0, 9, 9)) for i in range(writers * per_writer)]
        packed = pack_key_tuples(keys)
        writing = threading.Semaphore(0)
        probes: list[int] = []

        def writer(offset):
            def body():
                for i in range(offset, len(keys), writers):
                    view.put_many([keys[i]], [1], {"value": [str(i)]})
                writing.release()
            return body

        def reader():
            done = 0
            while done < writers:
                hits = view.get_many(packed)
                found, counts = hits.hit_positions()
                assert (counts == 1).all()
                assert list(map(int, hits.column("value"))) == \
                    found.tolist()
                probes.append(hits.num_hits)
                while writing.acquire(blocking=False):
                    done += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_threads([writer(k) for k in range(writers)] + [reader])
        finally:
            sys.setswitchinterval(interval)
        assert view.get_many(packed).counts == [1] * len(keys)
        assert len(probes) > 1 and probes == sorted(probes)

    def test_cross_client_hits_attributed_to_materializer(self):
        store, stats = self.make()
        alice = store.for_client("alice")
        bob = store.for_client("bob")
        view_a = alice.create_or_get("mv::attr", ["id"], ["label"])
        for i in range(10):
            view_a.put((i,), [{"label": "car"}])
        view_b = bob.get("mv::attr")
        for i in range(10):
            assert view_b.get((i,)) is not None
        snapshot = stats.snapshot(workers=1, hit_percentage=0.0,
                                  num_views=1, view_storage_bytes=0)
        assert snapshot.cross_client_hits == {("bob", "alice"): 10}
        by_client = {c.client_id: c for c in snapshot.clients}
        assert by_client["alice"].hits_donated == 10
        assert by_client["bob"].hits_from_others == 10

    def test_self_hits_are_not_cross_client(self):
        store, stats = self.make()
        alice = store.for_client("alice")
        view = alice.create_or_get("mv::self", ["id"], ["label"])
        view.put((1,), [{"label": "car"}])
        assert view.get((1,)) is not None
        snapshot = stats.snapshot(workers=1, hit_percentage=0.0,
                                  num_views=1, view_storage_bytes=0)
        assert snapshot.cross_client_hit_count == 0
        by_client = {c.client_id: c for c in snapshot.clients}
        assert by_client["alice"].hits_received == 1
        assert by_client["alice"].hits_from_others == 0

    def test_bulk_calls_attribute_like_single_key_calls(self):
        store, stats = self.make()
        alice = store.for_client("alice").create_or_get(
            "mv::bulk", ["id"], ["label"])
        assert alice.put_many([(1,), (2,), (1,)], [1, 0, 1],
                              {"label": ["car", "bus"]}) == \
            [True, True, False]
        bob = store.for_client("bob").get("mv::bulk")
        hits = bob.get_many([(2,), (9,), (1,)])
        assert len(hits) == 3 and hits.counts == [0, None, 1]
        assert list(hits.column("label")) == ["car"]
        assert store.owner_of("mv::bulk", (2,)) == "alice"
        snapshot = stats.snapshot(workers=1, hit_percentage=0.0,
                                  num_views=1, view_storage_bytes=0)
        assert snapshot.cross_client_hits == {("bob", "alice"): 2}
        by_client = {c.client_id: c for c in snapshot.clients}
        assert by_client["alice"].keys_materialized == 2

    def test_generator_probe_attributes_every_hit(self):
        """The probe consumes an iterator; the owner lookup must still see
        every hit key (it used to see none, silently)."""
        store, stats = self.make()
        alice = store.for_client("alice").create_or_get(
            "mv::gen", ["id"], ["label"])
        alice.put_many([(1,), (2,)], [1, 1], {"label": ["car", "bus"]})
        bob = store.for_client("bob").get("mv::gen")
        hits = bob.get_many(key for key in [(2,), (9,), (1,)])
        assert hits.counts == [1, None, 1]
        snapshot = stats.snapshot(workers=1, hit_percentage=0.0,
                                  num_views=1, view_storage_bytes=0)
        assert snapshot.cross_client_hits == {("bob", "alice"): 2}

    def test_frame_id_array_probe_attributes_like_key_tuples(
            self, loopback_owner):
        """A frame-id array, through the local and the remote handle,
        records the same (prober, owner) pairs and hits as key tuples."""
        probes = [2, 9, 1, -3, 2]

        def run(probe):
            store, stats, owner = loopback_owner("mv::ids")
            alice = store.for_client("alice").create_or_get(
                "mv::ids", ["id"], ["label"])
            alice.put_many([(1,), (2,)], [1, 0], {"label": ["car"]})
            store.for_client("carol").get("mv::ids").put_many(
                [(9,)], [2], {"label": ["bus", "van"]})

            local = store.for_client("bob").get("mv::ids")
            remote = RemoteViewHandle(owner, "mv::ids", "dave",
                                      ["id"], ["label"])
            outs = [(hits.counts, list(hits.column("label")))
                    for hits in (probe(local), probe(remote))]
            snapshot = stats.snapshot(workers=1, hit_percentage=0.0,
                                      num_views=1, view_storage_bytes=0)
            return outs, snapshot.cross_client_hits

        by_tuples = run(lambda h: h.get_many([(i,) for i in probes]))
        by_array = run(lambda h: h.get_many(np.array(probes)))
        assert by_array == by_tuples
        assert by_array[0][0] == ([0, 2, 1, None, 0],
                                  ["bus", "van", "car"])
        assert by_array[1] == {("bob", "alice"): 3, ("bob", "carol"): 1,
                               ("dave", "alice"): 3, ("dave", "carol"): 1}

    @pytest.mark.parametrize("patch", [False, True], ids=["frame", "patch"])
    def test_array_writes_attribute_by_key_tuples(self, patch, monkeypatch,
                                                  loopback_owner):
        """An int-array ``put_many`` through the local handle and the
        remote one (a pickling loopback) records owners, lineage writes
        and later hits exactly as key tuples do: owners are keyed by
        tuples of ints, never by numpy scalars."""
        writes = []

        def spy(name, keys, rows):
            writes.append((name, list(keys), rows))

        monkeypatch.setattr(view_store_module, "record_view_write", spy)
        monkeypatch.setattr(shard_module, "record_view_write", spy)
        keys = ([(i, (i % 5, 1, 9, 2047)) for i in range(6)] if patch
                else [(i,) for i in range(6)])

        def form(part, as_array):
            if not as_array:
                return part
            if patch:
                return pack_key_tuples(part)
            return np.array([key[0] for key in part])

        def run(as_array):
            writes.clear()
            store, stats, owner = loopback_owner("mv::a")
            layout = ["id", "bbox_key"], ["value"]

            alice = store.for_client("alice").create_or_get("mv::a", *layout)
            assert alice.put_many(form(keys[:3], as_array), [1, 1, 1],
                                  {"value": ["a", "b", "c"]},
                                  patch_keys=patch) == [True] * 3
            remote = RemoteViewHandle(owner, "mv::a", "bob", *layout)
            assert remote.put_many(form(keys[2:], as_array), [1, 0, 1, 1],
                                   {"value": ["x", "d", "e"]},
                                   patch_keys=patch) == \
                [False, True, True, True]
            carol = store.for_client("carol").get("mv::a")
            for probe in (keys, form(keys, as_array)):
                assert carol.get_many(probe).counts == [1, 1, 1, 0, 1, 1]
            owners = store._owners["mv::a"]
            snapshot = stats.snapshot(workers=1, hit_percentage=0.0,
                                      num_views=1, view_storage_bytes=0)
            return dict(owners), snapshot.cross_client_hits, list(writes)

        by_tuples, by_array = run(False), run(True)
        assert by_array == by_tuples
        owners, hits, recorded = by_array
        assert list(owners.items()) == [(key, "alice") for key in keys[:3]] \
            + [(key, "bob") for key in keys[3:]]
        parts = [part for key in owners
                 for part in ((key[0], *key[1]) if patch else key)]
        assert {type(key) for key in owners} == {tuple}
        assert {type(part) for part in parts} == {int}
        assert hits == {("carol", "alice"): 6, ("carol", "bob"): 6}
        # The owner's view and the remote client each hear bob's write.
        assert [keys for _, keys, _ in recorded] == \
            [keys[:3], keys[3:], keys[3:]]
        assert {type(key) for _, keys, _ in recorded for key in keys} == \
            {tuple}

    def test_two_client_server_hit_matrix(self):
        """A two-client ``EvaServer`` run of CarType and ColorDet queries
        over each other's views: the (prober, owner) hit matrix and rows,
        as recorded before views took array writes."""
        table = "mx"
        window = (f"SELECT id, bbox FROM {table} CROSS APPLY "
                  "FastRCNNObjectDetector(frame) WHERE ")
        queries = [
            ("c0", window + "id < 300 AND label = 'car' "
                            "AND CarType(frame, bbox) = 'Nissan';"),
            ("c1", window + "id >= 100 AND id < 400 AND label = 'car' "
                            "AND ColorDet(frame, bbox) = 'Gray';"),
            ("c1", window + "id >= 150 AND id < 350 AND label = 'car' "
                            "AND CarType(frame, bbox) = 'Nissan';"),
            ("c0", window + "id < 400 AND label = 'car' "
                            "AND ColorDet(frame, bbox) = 'Gray';"),
        ]
        server = EvaServer(max_workers=2)
        server.register_video(SyntheticVideo(VideoMetadata(
            name=table, num_frames=400, width=960, height=540, fps=25.0,
            vehicles_per_frame=4.0), seed=11))
        digest = hashlib.sha256()
        with server.start():
            clients = {name: server.connect(name) for name in ("c0", "c1")}
            for name, sql in queries:
                digest.update(repr(clients[name].execute(sql).rows).encode())
            snapshot = server.stats()
        assert snapshot.cross_client_hits == {
            ("c0", "c0"): 300, ("c0", "c1"): 1132,
            ("c1", "c0"): 962, ("c1", "c1"): 50}
        assert digest.hexdigest()[:16] == "e373fd587fee1ec3"

    def test_remote_handle_passes_the_column_batch_through(
            self, loopback_owner):
        """A worker that does not own the view sees what a local client
        sees: the same hit set (gathered for the wire), the same inserted
        flags, and the view's own O(1) size estimate."""
        store, _, owner = loopback_owner("mv::far")

        local = store.for_client("alice").create_or_get(
            "mv::far", ["id"], ["label", "score"])
        remote = RemoteViewHandle(owner, "mv::far", "bob",
                                  ["id"], ["label", "score"])
        assert remote.put_many([(1,), (2,)], [2, 0],
                               {"label": ["car", "bus"],
                                "score": [0.5, 0.25]}) == [True, True]
        assert remote.put((1,), [{"label": "x", "score": 0.0}]) is False
        assert store.owner_of("mv::far", (1,)) == "bob"
        near, far = (handle.get_many([(2,), (3,), (1,)])
                     for handle in (local, remote))
        assert far.counts == near.counts == [0, None, 2]
        assert (len(far), far.num_hits, far.num_rows) == (3, 2, 2)
        assert list(far.column("score")) == list(near.column("score"))
        assert list(far.column("label")) == \
            list(near.column("label")) == ["car", "bus"]
        assert remote.serialized_bytes() == local.serialized_bytes() == \
            store.base.get("mv::far").serialized_bytes()
        assert set(owner.calls) == {"put_many", "get_many",
                                    "serialized_bytes"}

    def test_drop_under_concurrent_readers(self):
        store, _ = self.make()
        facade = store.for_client("a")
        view = facade.create_or_get("mv::drop", ["id"], ["label"])
        for i in range(50):
            view.put((i,), [{"label": "car"}])

        stop = threading.Event()

        def reader():
            handle = store.for_client("r").get("mv::drop")
            while not stop.is_set():
                if handle is None:
                    return
                handle.keys()  # must never see a half-dropped view

        def dropper():
            time.sleep(0.02)
            assert store.drop("mv::drop") > 0  # freed bytes
            stop.set()

        run_threads([reader, reader, dropper])
        assert "mv::drop" not in store
        assert store.drop("mv::drop") == 0  # idempotent
        # The store stays usable after a drop.
        recreated = facade.create_or_get("mv::drop", ["id"], ["label"])
        assert recreated.put((1,), [{"label": "car"}]) is True


# -- LockedUdfManager ------------------------------------------------------------


class TestLockedUdfManager:
    def make(self):
        return LockedUdfManager(UdfManager(SymbolicEngine()))

    def test_concurrent_record_execution_loses_no_guard(self):
        manager = self.make()
        signature = UdfSignature("detector", ("video",))
        ranges = [(i * 10, i * 10 + 10) for i in range(16)]

        def worker(lo, hi):
            def body():
                manager.record_execution(
                    signature, guard(f"id >= {lo} AND id < {hi}"), 0.1)
            return body

        run_threads([worker(lo, hi) for lo, hi in ranges])

        # Every recorded range must be covered: DIFF(range, history)
        # is FALSE for each of them.  A lost update would leave a hole.
        for lo, hi in ranges:
            assert manager.difference_with_history(
                signature, guard(f"id >= {lo} AND id < {hi}")).is_false()
        # And the union covers the full span.
        assert manager.difference_with_history(
            signature, guard("id >= 0 AND id < 160")).is_false()

    def test_version_is_monotone_under_concurrency(self):
        """Disjoint guards: every record genuinely extends the aggregated
        predicate, so each one must bump the version exactly once (the
        version only moves when p_u changes — subsumed guards are no-ops).
        """
        manager = self.make()
        signature = UdfSignature("detector", ("video",))
        seen: list[int] = []
        seen_lock = threading.Lock()

        def worker(i):
            lo, hi = i * 100, i * 100 + 10  # disjoint per worker
            def body():
                before = manager.version
                manager.record_execution(
                    signature, guard(f"id >= {lo} AND id < {hi}"), 0.1)
                after = manager.version
                with seen_lock:
                    seen.append(after)
                assert after > before
            return body

        run_threads([worker(i) for i in range(12)])
        # 12 distinct predicate extensions -> exactly 12 bumps; a racy
        # read-modify-write on the counter would lose some.
        assert manager.version == 12
        assert manager.version >= max(seen)

    def test_reads_create_history_safely(self):
        manager = self.make()

        def worker(i):
            def body():
                sig = UdfSignature(f"udf{i % 3}", ("video",))
                # history() creates on first use — racing creators must
                # not clobber each other.
                manager.history(sig, per_tuple_cost=0.5)
                assert manager.known(sig)
                manager.intersection_with_history(sig, guard("id < 5"))
            return body

        run_threads([worker(i) for i in range(9)])
        assert len(manager.histories()) == 3


# -- SharedReuseState ------------------------------------------------------------


class TestSharedReuseState:
    def test_session_states_share_reuse_but_not_clock_or_metrics(self):
        state = SharedReuseState(EvaConfig())
        a = state.session_state("a")
        b = state.session_state("b")
        assert a.shared and b.shared
        assert a.catalog is b.catalog
        assert a.storage is b.storage
        assert a.udf_manager is b.udf_manager
        assert a.clock is not b.clock
        assert a.metrics is not b.metrics
        # Facades differ (attribution) but wrap the same store.
        assert a.view_store is not b.view_store
        assert a.view_store.shared is b.view_store.shared

    def test_facade_writes_visible_to_other_clients(self):
        state = SharedReuseState(EvaConfig())
        a = state.session_state("a").view_store
        b = state.session_state("b").view_store
        view = a.create_or_get("mv::vis", ["id"], ["label"])
        view.put((7,), [{"label": "car"}])
        assert (7,) in b.get("mv::vis")
        assert b.get("mv::vis").get((7,)) is not None


# -- the one peer rule -----------------------------------------------------------


def fleet_fingerprint(fleet) -> tuple:
    """Every view's items and every ``p_u``, fleet-wide."""
    views, histories = {}, {}
    for state in fleet:
        for store in state.shard_stores.values():
            for name in store.names():
                views[name] = sorted(store.base.get(name).items())
        for entry in state.udf_manager.owned_histories():
            histories[entry.signature.key()] = (
                entry.per_tuple_cost, entry.aggregated_predicate)
    return views, histories


def name_owned_by(fleet, worker: int, stem: str) -> str:
    """A view name whose shard key routes to ``worker``."""
    return next(f"mv::{stem}{i}@v" for i in range(1000)
                if fleet[0].router.worker_of(f"{stem}{i}@v") == worker)


class TestPeerRule:
    """The owner side of a peer request, through the loopback: one
    signature's ``p_u`` and its view, both owned by one worker and
    written from the other."""

    def seeded(self, make_fleet):
        fleet = make_fleet()
        signature = UdfSignature("FastRCNNObjectDetector", ("v",))
        owner = fleet[fleet[0].router.worker_of(signature.key())]
        other = fleet[1 - owner.worker_id]
        name = f"mv::{signature.key()}"
        view = other.view_store.for_client("alice").create_or_get(
            name, ["id"], ["label"])
        assert isinstance(view, RemoteViewHandle)
        view.put_many([(1,), (2,)], [1, 1], {"label": ["car", "bus"]})
        assert other.udf_manager.record_execution(
            signature, guard("id < 10"), 0.5)
        return fleet, owner, other, signature, name

    def test_refuses_names_outside_the_allow_list(self, make_fleet):
        fleet, owner, _, signature, name = self.seeded(make_fleet)
        before = fleet_fingerprint(fleet)
        peer = Loopback(owner)
        refused = [
            (("view", name, "bob"), "keys", ()),
            (("view", name, "bob"), "put", ((3,), [{"label": "van"}])),
            (("view", name, "bob"), "_view", ()),
            (("view", name, "bob"), "__class__", ()),
            (("views",), "drop", (name,)),
            (("udf", signature.key()), "reset", ()),
            (("udf", signature.key()), "_base", ()),
            (("udf", signature.key()), "__init__", (None,)),
            (("views",), "drop_all", ()),
            (("udfs",), "__dict__", ()),
            (("server",), "shutdown", (False,)),
            (("inference",), "submit", ("fasterrcnn_resnet50", "inf", [0])),
        ]
        for target, method, args in refused:
            with pytest.raises(ServerError, match="is not served"):
                peer.call(target, method, *args)
        assert fleet_fingerprint(fleet) == before

    def test_refusal_precedes_resolution_and_attribute_lookup(self):
        touched = []

        class Target:
            def __getattribute__(self, attr):
                touched.append(attr)
                return object.__getattribute__(self, attr)

            def ping(self):
                return "pong"

        def resolve():
            touched.append("resolve")
            return Target()

        targets = {"t": (frozenset({"ping"}), resolve)}
        for method in ("pong", "_ping", "__class__", "__getattribute__"):
            with pytest.raises(ServerError):
                dispatch(targets, ("t",), method, ())
        with pytest.raises(ServerError):
            dispatch(targets, ("elsewhere",), "ping", ())
        assert touched == []
        assert dispatch(targets, ("t",), "ping", ()) == "pong"
        assert touched == ["resolve", "ping"]

    def test_a_worker_that_does_not_own_the_key_refuses(self, make_fleet):
        fleet, _, other, signature, name = self.seeded(make_fleet)
        before = fleet_fingerprint(fleet)
        stale = Loopback(other)
        misrouted = [
            (("view", name, "bob"), "get_many", ([(1,)],)),
            (("view", name, "bob"), "put_many",
             ([(3,)], [1], {"label": ["van"]}, False)),
            (("views",), "create_or_get_meta",
             (name, ["id"], ["label"])),
            (("udf", signature.key()), "known", (signature,)),
            (("udf", signature.key()), "record_execution",
             (signature, guard("id < 99"), 0.5)),
        ]
        for target, method, args in misrouted:
            with pytest.raises(ServerError, match="stale routing table"):
                stale.call(target, method, *args)
        assert fleet_fingerprint(fleet) == before

    def test_remote_history_is_a_detached_copy(self, make_fleet):
        fleet, owner, other, signature, _ = self.seeded(make_fleet)
        before = fleet_fingerprint(fleet)
        copy = other.udf_manager.history(signature)
        live = owner.udf_manager.history(signature)
        assert copy == live and copy is not live
        copy.aggregated_predicate = guard("id < 1000")
        copy.per_tuple_cost = 9.0
        assert fleet_fingerprint(fleet) == before
        assert not other.udf_manager.difference_with_history(
            signature, guard("id >= 10 AND id < 20")).is_false()

    def test_forwarded_operations_answer_as_the_owner_does(self, make_fleet):
        """Every peer operation a proxy forwards, sent by the worker
        that does not own the key, answers what the owner's own objects
        answer."""
        fleet, owner, other, signature, name = self.seeded(make_fleet)
        far = other.view_store.for_client("bob")
        near = owner.view_store.for_client("carol")
        handle = far.get(name)
        assert (handle.key_columns, handle.output_columns) == \
            (["id"], ["label"])
        assert far.get(name_owned_by(fleet, owner.worker_id, "no")) is None
        assert handle.get((1,)) == near.get(name).get((1,))
        assert handle.get((7,)) is None
        assert handle.put((7,), [{"label": "van"}]) is True
        assert handle.keys_with_prefix(7) == [(7,)]
        assert handle.get_many([(1,), (7,), (8,)]).counts == \
            near.get(name).get_many([(1,), (7,), (8,)]).counts == \
            [1, 1, None]
        assert handle.serialized_bytes() == \
            near.get(name).serialized_bytes()

        # Fleet aggregates answer the same from either worker.
        local_name = name_owned_by(fleet, other.worker_id, "m")
        far.create_or_get(local_name, ["id"], ["label"]).put(
            (1,), [{"label": "car"}])
        sizes = {view: state.local_store(view).base.view_bytes([view])[view]
                 for state, view in ((owner, name), (other, local_name))}
        total = sum(store.total_serialized_bytes() for state in fleet
                    for store in state.shard_stores.values())
        for state in fleet:
            facade = state.view_store.for_client("dave")
            assert facade.view_bytes([name, local_name]) == sizes
            assert facade.total_serialized_bytes() == total
            assert sorted(entry.signature.key()
                          for entry in state.udf_manager.histories()) == \
                [signature.key()]

        # Lineage records land in the partition owning their view.
        record = {"view": name, "lineage_id": "L-far", "status": "live"}
        far.log_lineage([record, None, {"lineage_id": "no-view"}])
        assert owner.local_store(name).base.lineage_records() == [record]

        # Every locked-manager operation, owner vs forwarded.
        probe = guard("id >= 5 AND id < 15")
        for method, args in [("known", ()), ("history", (0.5,)),
                             ("intersection_with_history", (probe,)),
                             ("difference_with_history", (probe,))]:
            assert getattr(other.udf_manager, method)(signature, *args) \
                == getattr(owner.udf_manager, method)(signature, *args)


# -- pool control and client connections -----------------------------------------


def test_pool_forwards_each_control_and_client_method(tmp_path):
    """Two workers: every telemetry method of the front end and every
    introspection method of a client handle answers across the process
    boundary, and a name outside an allow-list is refused without
    breaking the connection."""
    video = SyntheticVideo(VideoMetadata(
        name="poolv", num_frames=40, width=640, height=360, fps=25.0,
        vehicles_per_frame=3.0), seed=5)
    sql = ("SELECT id, label FROM poolv CROSS APPLY "
           "FastRCNNObjectDetector(frame) WHERE id < 30 AND label = 'car';")
    config = EvaConfig(workers=2, shards=4, store_mode="durable",
                       store_path=str(tmp_path / "store"))
    with PoolServer(config, worker_threads=2) as pool:
        pool.register_video(video)
        client = pool.connect("c0")
        assert "FastRCNNObjectDetector" in {
            row[0] for row in client.execute("SHOW UDFS;").rows}
        rows = client.execute(sql).rows
        assert rows
        metrics = client.last_query_metrics()
        assert metrics.query_text == sql
        assert metrics.rows_returned == len(rows)
        assert client.workload_time() > 0
        assert client.clock_breakdown()
        assert client.hit_percentage() == 0.0
        assert client.execute(sql).rows == rows
        assert client.hit_percentage() > 0.0

        assert pool.queue_depth() == 0
        assert sorted(sum(pool._each_worker("clients"), [])) == ["c0"]
        assert pool.profile_snapshot().models
        snapshot = pool.store_snapshot()
        assert snapshot.hot_views + snapshot.warm_views >= 1
        assert any(record["view"].startswith("mv::")
                   for record in pool.lineage_records())
        assert pool.trace_events()
        assert "eva_" in pool.prometheus_text()

        for method in ("_clients", "__class__", "connect"):
            with pytest.raises(ServerError, match="is not served"):
                pool._each_worker(method)
        for method in ("checkout", "_client", "__init__", "submit"):
            with pytest.raises(ServerError, match="is not served"):
                client._rpc(method)
        assert client.execute(sql).rows == rows
        client.close()
