"""Durable view-store subsystem: WAL + snapshots and partitioned
recovery behind the ``ViewStore`` interface.

See ``docs/storage.md`` for the on-disk format and the recovery pass.
"""

from repro.store.durable import DurableViewStore, StoreSnapshot
from repro.store.health import (StoreCheckReport, check_store, render_check,
                                render_stats, store_stats)
from repro.store.integration import (PersistentUdfManager,
                                     attach_reuse_state, copy_views,
                                     open_reuse_state, open_view_store,
                                     restore_udf_histories)
from repro.store.layout import RecoveryReport, StoreLayout
from repro.store.wal import WalScan, WalWriter, repair_wal, scan_wal

__all__ = [
    "DurableViewStore",
    "PersistentUdfManager",
    "RecoveryReport",
    "StoreCheckReport",
    "StoreLayout",
    "StoreSnapshot",
    "WalScan",
    "WalWriter",
    "attach_reuse_state",
    "check_store",
    "copy_views",
    "open_reuse_state",
    "open_view_store",
    "render_check",
    "render_stats",
    "repair_wal",
    "restore_udf_histories",
    "scan_wal",
    "store_stats",
]
