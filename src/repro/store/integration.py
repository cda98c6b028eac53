"""Glue between the durable store and the session/server components.

Views alone do not restore reuse: the optimizer plans reuse from the
UDFMANAGER's aggregated predicates (``p_u``), so a restarted process also
needs every signature's predicate history.  :class:`PersistentUdfManager`
writes each post-union predicate through the store's control log, and
:func:`restore_udf_histories` replays them into a fresh manager — the
same SQL round-trip ``save_reuse_state``/``load_reuse_state`` uses.
"""

from __future__ import annotations

from repro.config import EvaConfig
from repro.errors import StorageError
from repro.optimizer.udf_manager import UdfManager, UdfSignature
from repro.store.durable import DurableViewStore


def open_view_store(config: EvaConfig) -> DurableViewStore:
    """Open (and recover) the durable store configured on ``config``."""
    if not config.store_path:
        raise StorageError(
            "store_mode='durable' requires EvaConfig.store_path")
    return DurableViewStore(
        config.store_path,
        partition_frames=config.store_partition_frames,
        fsync_every=config.store_fsync_every,
        snapshot_interval=config.store_snapshot_interval,
        hot_bytes=config.store_hot_bytes,
        warm_bytes=config.store_warm_bytes,
        recovery_parallelism=config.store_recovery_parallelism)


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
