"""Opening the reuse state: the view store and the UDFMANAGER together.

EVA's reuse state is the views STORE appends to (§4.4) and each UDF
signature's aggregated predicate ``p_u`` (§4.1): the optimizer plans
reuse from ``p_u``, so a restarted process needs both.
:func:`open_reuse_state` is the one place a session, a server or a pool
shard opens the pair — in memory, or durable with
:class:`PersistentUdfManager` writing each post-union predicate through
the store's control log and :func:`restore_udf_histories` replaying
them — and :func:`attach_reuse_state` wires the opened store to its
owner's lineage ledger.  An exported reuse state is such a
store too (:func:`copy_views`, ``EvaSession.save_reuse_state``).
"""

from __future__ import annotations

from repro.config import EvaConfig
from repro.optimizer.udf_manager import UdfManager, UdfSignature
from repro.storage.view_store import ViewStore
from repro.store.durable import DurableViewStore


def open_view_store(config: EvaConfig) -> DurableViewStore:
    """Open (and recover) the durable store at ``config.store_path``."""
    return DurableViewStore(
        config.store_path,
        partition_frames=config.store_partition_frames,
        fsync_every=config.store_fsync_every,
        snapshot_interval=config.store_snapshot_interval,
        recovery_parallelism=config.store_recovery_parallelism)


def open_reuse_state(config: EvaConfig, symbolic
                     ) -> tuple[ViewStore, UdfManager]:
    """The view store and UDF manager ``config.store_mode`` asks for; a
    durable pair comes back with every persisted ``p_u`` restored."""
    if config.store_mode != "durable":
        return ViewStore(), UdfManager(symbolic)
    store = open_view_store(config)
    manager = PersistentUdfManager(symbolic, store)
    restore_udf_histories(store, manager, symbolic)
    return store, manager


def attach_reuse_state(store: ViewStore, ledger) -> None:
    """Wire an opened store to its owner's lineage ledger: the ledger
    hears of every create and drop and gets back the records the store
    recovered."""
    if ledger is not None:
        store.ledger = ledger
        ledger.restore(store.recovered_lineage)


def copy_views(source: ViewStore, target: ViewStore) -> None:
    """Append every view of ``source`` to ``target``'s view of the same
    name through ``put_many``, so a durable target logs the entries."""
    for name in source.names():
        view = source.get(name)
        batch = view.batch()
        target.create_or_get(name, view.key_columns,
                             view.output_columns).put_many(
            batch.keys if batch.array is None else batch.array,
            batch.counts, batch.columns, patch_keys=batch.patch_keys)


class PersistentUdfManager(UdfManager):
    """A UDFMANAGER whose aggregated predicates survive restarts."""

    def __init__(self, engine, store: DurableViewStore):
        super().__init__(engine)
        self._store = store

    def record_execution(self, signature, guard, per_tuple_cost=0.0):
        if not super().record_execution(signature, guard, per_tuple_cost):
            return False  # p_u unchanged: the log already holds it
        entry = self.history(signature)
        try:
            sql = entry.aggregated_predicate.to_expression().to_sql()
        except Exception:
            return True  # predicate durability is best-effort; views still log
        self._store.log_udf_history(
            signature.udf_name, list(signature.sources),
            entry.per_tuple_cost, sql)
        return True

    def reset(self) -> None:
        super().reset()
        self._store.reset_udf_histories()


def restore_udf_histories(store: DurableViewStore, manager: UdfManager,
                          symbolic) -> int:
    """Replay persisted predicate records into ``manager``.

    Predicates are re-analyzed against *this* session's symbolic engine
    (they were logged as SQL precisely so they are engine-independent).
    Returns the number of histories restored.
    """
    from repro.parser.parser import parse_predicate

    restored = 0
    for record in store.udf_history_records():
        signature = UdfSignature(record["udf"], tuple(record["sources"]))
        try:
            predicate = symbolic.analyze(parse_predicate(
                record["predicate"]))
        except Exception:
            continue  # an unparsable record only costs re-computation
        manager.record_execution(signature, predicate,
                                 record.get("cost", 0.0))
        restored += 1
    return restored
