"""Shared reuse state: thread-safe facades over the single-user cores.

One :class:`SharedReuseState` backs every client of an
:class:`~repro.server.server.EvaServer`.  It shares exactly the
components whose contents are *semantically global* — materialized
results are pure functions of (model, video, input), so one client's
work is every client's work:

* :class:`SharedViewStore` — the view store plus one
  :class:`~repro.server.locks.RWLock` per materialized view.  Clients
  access it through per-client facades (:meth:`SharedViewStore.for_client`)
  so every probe and append can be *attributed*: the store remembers
  which client first materialized each key, and reports cross-client
  hits (client B served by client A's work) to the server's stats.
* :class:`LockedUdfManager` — the aggregated-predicate bookkeeping
  (``p_u := UNION(p_u, q)``) behind one mutex.  Both the version counter
  and the predicate merge must be atomic: two racing unions could
  otherwise interleave read-modify-write and drop a guard, silently
  shrinking what the optimizer believes is materialized (worse than a
  crash: it would cause redundant recomputation *and* a stale plan
  cache).
* the model zoo, catalog, and storage engine — written only during
  setup (video/UDF registration, guarded here), read-only while serving.

Everything else (clock, metrics, plan cache, optimizer) is built fresh
per client by :meth:`SharedReuseState.session_state`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping

import numpy as np

from repro.catalog.catalog import Catalog
from repro.clock import SimulationClock
from repro.config import EvaConfig
from repro.metrics import MetricsCollector
from repro.models.zoo import ModelZoo, default_zoo
from repro.obs.flight import FlightStats
from repro.obs.flight import record_lock_wait as _flight_lock_wait
from repro.obs.lineage import ViewLedger
from repro.obs.sinks import TraceSink
from repro.obs.slo import SloTracker
from repro.obs.trace import Tracer
from repro.optimizer.udf_manager import UdfHistory, UdfManager, UdfSignature
from repro.server.locks import RWLock
from repro.session import SessionState
from repro.storage.engine import StorageEngine
from repro.storage.batch import grow
from repro.storage.view_store import (Key, MaterializedView, ViewHits,
                                      ViewStore, one_entry)
from repro.store import attach_reuse_state, open_reuse_state
from repro.symbolic.dnf import DnfPredicate
from repro.symbolic.engine import SymbolicEngine
from repro.video.synthetic import SyntheticVideo

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.server.stats import ServerStats


class LockedUdfManager:
    """A :class:`UdfManager` with every public operation mutex-guarded.

    ``history()`` creates entries on first use, so even the "read"
    operations (INTER/DIFF against history) can write and must hold the
    lock.  The symbolic union inside :meth:`record_execution` runs under
    the lock too — predicate merging is not commutative-safe to retry,
    so correctness beats the (bounded, post-query) serialization cost.
    """

    def __init__(self, base: UdfManager):
        self._base = base
        self._lock = threading.RLock()
        self._listener = None

    def set_listener(self, listener) -> None:
        """Register a ``listener(kind, wait_seconds)`` contention
        callback (the ``udf-manager`` lock class).  Zero-cost when
        unset: acquisition is untimed without a listener."""
        self._listener = listener

    @contextmanager
    def _guarded(self):
        listener = self._listener
        if listener is None:
            with self._lock:
                yield
            return
        started = time.perf_counter()
        with self._lock:
            # The mutex is exclusive, so contention is "write"-side.
            listener("write", time.perf_counter() - started)
            yield

    @property
    def version(self) -> int:
        """Monotone state version (plan caches key validity on it)."""
        with self._guarded():
            return self._base.version

    def history(self, signature: UdfSignature,
                per_tuple_cost: float = 0.0) -> UdfHistory:
        with self._guarded():
            return self._base.history(signature, per_tuple_cost)

    def known(self, signature: UdfSignature) -> bool:
        with self._guarded():
            return self._base.known(signature)

    def histories(self) -> list[UdfHistory]:
        with self._guarded():
            return self._base.histories()

    def intersection_with_history(self, signature: UdfSignature,
                                  guard: DnfPredicate) -> DnfPredicate:
        with self._guarded():
            return self._base.intersection_with_history(signature, guard)

    def difference_with_history(self, signature: UdfSignature,
                                guard: DnfPredicate) -> DnfPredicate:
        with self._guarded():
            return self._base.difference_with_history(signature, guard)

    def record_execution(self, signature: UdfSignature,
                         guard: DnfPredicate,
                         per_tuple_cost: float = 0.0) -> bool:
        with self._guarded():
            return self._base.record_execution(signature, guard,
                                               per_tuple_cost)

    def reset(self) -> None:
        with self._guarded():
            self._base.reset()


class ViewOwners:
    """Which client first materialized each key of one view: an int code
    per key ordinal, aligned with the view's insertion order.

    Code ``c`` names ``clients[c]``, the store-wide client list; code 0
    is None, the unknown owner of keys no client wrote here (recovered
    from disk at start).  A write stamps the ordinals it appended; a
    probe attributes its hits with one ``np.bincount`` of their codes.
    A view re-created after a drop stamps every ordinal it appends.
    """

    __slots__ = ("codes", "clients")

    def __init__(self, clients: list[str | None]):
        #: Owner code by ordinal, with spare capacity; ordinals past its
        #: stamped end are unknown.
        self.codes = np.zeros(0, dtype=np.int32)
        self.clients = clients

    def stamp(self, start: int, stop: int, code: int) -> None:
        """Ordinals ``[start, stop)`` were materialized by ``code``."""
        if stop > start:
            self.codes = grow(self.codes, stop, 0)
            self.codes[start:stop] = code

    def owner(self, ordinal: int) -> str | None:
        """The client that materialized ordinal ``ordinal``."""
        codes = self.codes
        return self.clients[codes[ordinal] if ordinal < len(codes) else 0]

    def tally(self, ordinals: np.ndarray) -> dict[str | None, int]:
        """Owner -> how many of ``ordinals`` it materialized."""
        codes = self.codes
        known = ordinals[ordinals < len(codes)]
        counts = np.bincount(codes[known], minlength=1)
        counts[0] += len(ordinals) - len(known)
        return {self.clients[code]: count
                for code, count in enumerate(counts.tolist()) if count}


class ClientViewHandle:
    """A per-client, lock-guarded proxy of one :class:`MaterializedView`.

    Duck-types the view API the executor's operators use, adding (a) a
    reader-writer lock shared by all clients of the same view and (b)
    hit/materialization attribution against the view's owner codes.
    """

    __slots__ = ("_view", "_lock", "_owners", "_code", "_client_id",
                 "_stats")

    def __init__(self, view: MaterializedView, lock: RWLock,
                 owners: ViewOwners, code: int, client_id: str,
                 stats: "ServerStats | None"):
        self._view = view
        self._lock = lock
        self._owners = owners
        #: This client's owner code (see :class:`ViewOwners`).
        self._code = code
        self._client_id = client_id
        self._stats = stats

    # -- pass-through metadata ------------------------------------------------

    @property
    def name(self) -> str:
        return self._view.name

    @property
    def key_columns(self) -> list[str]:
        return self._view.key_columns

    @property
    def output_columns(self) -> list[str]:
        return self._view.output_columns

    @property
    def num_keys(self) -> int:
        with self._lock.read_locked():
            return self._view.num_keys

    @property
    def num_output_rows(self) -> int:
        with self._lock.read_locked():
            return self._view.num_output_rows

    # -- guarded reads --------------------------------------------------------

    def __contains__(self, key: Key) -> bool:
        with self._lock.read_locked():
            return key in self._view

    def get(self, key: Key) -> tuple[dict, ...] | None:
        with self._lock.read_locked():
            rows = self._view.get(key)
            owner = None if rows is None \
                else self._owners.owner(self._view.ordinal_of(key))
        if rows is not None and self._stats is not None:
            self._stats.record_view_hits(self._view.name, self._client_id,
                                         {owner: 1})
        return rows

    def get_many(self, keys: Iterable[Key] | np.ndarray) -> ViewHits:
        """Bulk probe under one read-lock acquisition.

        Hit attribution is preserved: every present key is counted for
        the client that first materialized it, exactly as the per-key path
        does — in one server-stats call per probe, with per-owner hit
        counts.  Owners are looked up by the ordinals of the hit keys, so
        key lists, one-shot iterables and int arrays (frame ids or packed
        patch keys, as the view reads them) attribute alike.
        """
        with self._lock.read_locked():
            hits = self._view.get_many(keys)
            owners = self._owners.tally(hits.ordinals)
        if owners and self._stats is not None:
            self._stats.record_view_hits(self._view.name, self._client_id,
                                         owners)
        return hits

    def keys(self) -> list[Key]:
        with self._lock.read_locked():
            return self._view.keys()

    def keys_with_prefix(self, first_component: Hashable) -> list[Key]:
        with self._lock.read_locked():
            return self._view.keys_with_prefix(first_component)

    def serialized_bytes(self) -> int:
        return self._view.serialized_bytes()

    # -- guarded writes -------------------------------------------------------

    def put(self, key: Key, rows: Iterable[Mapping]) -> bool:
        return self.put_many(*one_entry(key, rows, self.output_columns))[0]

    def put_many(self, keys: list[Key] | np.ndarray, counts: list[int],
                 columns: Mapping[str, list],
                 patch_keys: bool = False) -> list[bool]:
        """Bulk append under one write-lock acquisition.

        Returns per-key inserted flags (mirroring
        :meth:`MaterializedView.put_many`, which reads an int array of
        ``keys`` as ``patch_keys`` says) and attributes every newly
        materialized key to this client — by its ordinal: the write lock
        makes the view's appended ordinals this write's — with one
        server-stats call.
        """
        with self._lock.write_locked():
            start = self._view.num_keys
            inserted = self._view.put_many(keys, counts, columns,
                                           patch_keys=patch_keys)
            self._owners.stamp(start, self._view.num_keys, self._code)
        materialized = sum(inserted)
        if materialized and self._stats is not None:
            self._stats.record_materialization(self._client_id,
                                               keys=materialized)
        return inserted


class SharedViewStore:
    """A :class:`ViewStore` shared by all clients of one server.

    Per-view reader-writer locks let overlapping queries from different
    clients probe the same view concurrently while appends are
    exclusive.  :meth:`for_client` mints the per-client facade that the
    client's :class:`~repro.executor.context.ExecutionContext` carries;
    all facades see (and contribute to) the same underlying views.
    """

    def __init__(self, base: ViewStore | None = None):
        self._base = base or ViewStore()
        self._registry_lock = threading.Lock()
        self._locks: dict[str, RWLock] = {}
        #: View name -> its owner codes.
        self._owners: dict[str, ViewOwners] = {}
        #: Owner code -> client id (see :class:`ViewOwners`).
        self._clients: list[str | None] = [None]
        self._client_codes: dict[str, int] = {}
        self._stats: "ServerStats | None" = None

    def attach_stats(self, stats: "ServerStats") -> None:
        """Start reporting hits/materializations to ``stats``."""
        self._stats = stats
        with self._registry_lock:
            for name, lock in self._locks.items():
                self._install_listener(name, lock)

    def _install_listener(self, name: str, lock: RWLock) -> None:
        """Wire a view lock's contention callback (``view:<name>``) to
        the server stats and the active query's flight context."""
        stats = self._stats
        if stats is None:
            return
        lock_class = f"view:{name}"

        def on_wait(kind: str, waited: float,
                    _stats=stats, _lock=lock) -> None:
            _stats.record_lock_wait(
                lock_class, kind, waited,
                writers_waiting_high_water=_lock.writers_waiting_high_water)
            _flight_lock_wait(lock_class, kind, waited)

        lock.set_listener(on_wait)

    @property
    def base(self) -> ViewStore:
        """The underlying (unguarded) store — administrative use only."""
        return self._base

    def for_client(self, client_id: str) -> "ClientViewStore":
        return ClientViewStore(self, client_id)

    # -- registry ------------------------------------------------------------

    def _view_lock(self, name: str) -> RWLock:
        with self._registry_lock:
            lock = self._locks.get(name)
            if lock is None:
                lock = RWLock()
                self._locks[name] = lock
                self._install_listener(name, lock)
            return lock

    def _view_owners(self, name: str) -> ViewOwners:
        with self._registry_lock:
            owners = self._owners.get(name)
            if owners is None:
                owners = self._owners[name] = ViewOwners(self._clients)
            return owners

    def _client_code(self, client_id: str) -> int:
        with self._registry_lock:
            code = self._client_codes.get(client_id)
            if code is None:
                code = self._client_codes[client_id] = len(self._clients)
                self._clients.append(client_id)
            return code

    def _handle(self, view: MaterializedView | None, client_id: str
                ) -> ClientViewHandle | None:
        if view is None:
            return None
        return ClientViewHandle(view, self._view_lock(view.name),
                                self._view_owners(view.name),
                                self._client_code(client_id), client_id,
                                self._stats)

    # -- store-level operations ----------------------------------------------

    def owner_of(self, view_name: str, key: Key) -> str | None:
        """Which client first materialized ``key`` (None if unknown)."""
        view = self._base.get(view_name)
        if view is None:
            return None
        lock = self._view_lock(view_name)
        with lock.read_locked():
            ordinal = view.ordinal_of(key)
        return None if ordinal < 0 \
            else self._view_owners(view_name).owner(ordinal)

    def names(self) -> list[str]:
        return self._base.names()

    def __contains__(self, name: str) -> bool:
        return name in self._base

    def total_serialized_bytes(self) -> int:
        return self._base.total_serialized_bytes()

    def drop(self, name: str) -> int:
        """Drop one view; returns the (estimated) bytes freed, 0 if the
        view did not exist (see :meth:`ViewStore.drop`)."""
        lock = self._view_lock(name)
        with lock.write_locked():
            freed = self._base.drop(name)
        with self._registry_lock:
            self._owners.pop(name, None)
            # The RWLock stays registered: a concurrent reader blocked on
            # it must still be able to release cleanly.
        return freed

    # -- durability passthrough (no-ops over a memory-backed base) -----------

    def close(self) -> None:
        self._base.close()

    def store_snapshot(self):
        """Durable-store health, or None for a memory-backed base."""
        return self._base.store_snapshot()


class ClientViewStore:
    """One client's window onto a :class:`SharedViewStore`.

    Duck-types the :class:`ViewStore` API used by sessions and
    operators, returning :class:`ClientViewHandle` proxies so every
    access is lock-guarded and attributed to this client.
    """

    def __init__(self, shared: SharedViewStore, client_id: str):
        self.shared = shared
        self.client_id = client_id

    def create_or_get(self, name: str, key_columns: list[str],
                      output_columns: list[str]) -> ClientViewHandle:
        view = self.shared.base.create_or_get(name, key_columns,
                                              output_columns)
        return self.shared._handle(view, self.client_id)

    def get(self, name: str) -> ClientViewHandle | None:
        return self.shared._handle(self.shared.base.get(name),
                                   self.client_id)

    def __contains__(self, name: str) -> bool:
        return name in self.shared

    def names(self) -> list[str]:
        return self.shared.names()

    def total_serialized_bytes(self) -> int:
        return self.shared.total_serialized_bytes()

    def view_bytes(self, names) -> dict:
        return self.shared.base.view_bytes(names)

    def drop(self, name: str) -> int:
        return self.shared.drop(name)

    # -- lineage / durability passthrough -------------------------------------

    @property
    def is_durable(self) -> bool:
        return self.shared.base.is_durable

    def log_lineage(self, records) -> None:
        self.shared.base.log_lineage(records)

    def commit(self) -> None:
        self.shared.base.commit()


class SharedReuseState:
    """Everything an :class:`EvaServer`'s clients have in common."""

    def __init__(self, config: EvaConfig | None = None,
                 zoo: ModelZoo | None = None):
        self.config = config or EvaConfig()
        self.zoo = zoo or default_zoo()
        self.catalog = Catalog(self.zoo)
        self.storage = StorageEngine()
        self.symbolic = SymbolicEngine(
            memo_size=self.config.symbolic_memo_size)
        #: One shared view-provenance ledger: reader attribution must
        #: span clients (client B reading client A's view is exactly the
        #: cross-client benefit the ledger quantifies).
        self.ledger = ViewLedger() if self.config.view_ledger else None
        self._init_reuse_state()
        #: Server-wide latency SLO tracking and flight-record rollups:
        #: one tracker/stats pair shared by every client session so
        #: quantiles, burn rates and dominant-stage counts describe the
        #: whole server, not one connection.
        self.slo = SloTracker.from_config(self.config)
        self.flight_stats = FlightStats()
        #: One shared plan→kernel cache: compiled fused plans are
        #: context-free (per-execution state lives in the operator), so
        #: every client reuses each other's compilations.  KernelCache is
        #: internally lock-guarded.
        from repro.executor.fusion import KernelCache

        self.kernel_cache = KernelCache(self.config.kernel_cache_size)
        self._setup_lock = threading.Lock()

    def _init_reuse_state(self) -> None:
        """Open the view store + UDF manager this state serves from.

        Sets ``self.view_store`` (a :class:`SharedViewStore` or a
        duck-typed equivalent) and ``self.udf_manager`` (a
        :class:`LockedUdfManager` contract).  The worker-pool state
        (:class:`~repro.server.shard.ShardedWorkerState`) overrides this
        to open one durable partition per owned shard and route by shard
        key; the default is the single-store layout.
        """
        base_store, base_manager = open_reuse_state(self.config,
                                                    self.symbolic)
        attach_reuse_state(base_store, self.ledger)
        self.view_store = SharedViewStore(base_store)
        self.udf_manager = LockedUdfManager(base_manager)

    def close_store(self) -> None:
        """Snapshot + close a durable base store (server shutdown)."""
        self.view_store.close()

    def attach_stats(self, stats: "ServerStats") -> None:
        self.view_store.attach_stats(stats)

        def on_udf_wait(kind: str, waited: float, _stats=stats) -> None:
            _stats.record_lock_wait("udf-manager", kind, waited)
            _flight_lock_wait("udf-manager", kind, waited)

        self.udf_manager.set_listener(on_udf_wait)

    def register_video(self, video: SyntheticVideo) -> None:
        """Register a video for all clients (guarded; setup-time only)."""
        with self._setup_lock:
            self.catalog.register_video(video)
            self.storage.register_video(video)

    def session_state(self, client_id: str,
                      trace_sink: TraceSink | None = None) -> SessionState:
        """A per-client :class:`SessionState` over the shared components.

        Shared: catalog, storage, view store (through this client's
        attributed facade), UDF manager, symbolic engine and config.
        Private: virtual clock, metrics, tracer and operator profile
        (and, inside the session, the plan cache and optimizer
        instance).  ``trace_sink``
        is the server's shared export sink: per-client tracers stamp
        their ``client_id`` on every span, so one sink carries an
        attributed, interleaved event stream for the whole server.
        """
        clock = SimulationClock()
        return SessionState(
            config=self.config,
            catalog=self.catalog,
            storage=self.storage,
            view_store=self.view_store.for_client(client_id),
            udf_manager=self.udf_manager,
            symbolic=self.symbolic,
            clock=clock,
            metrics=MetricsCollector(),
            tracer=Tracer(clock=clock, sink=trace_sink,
                          client_id=client_id),
            slo=self.slo,
            flight_stats=self.flight_stats,
            kernel_cache=self.kernel_cache,
            ledger=self.ledger,
            shared=True,
        )
