"""FunCache: tuple-level function-result caching (section 5.1 baseline).

A canonical technique for accelerating expensive UDFs: the execution engine
keeps an in-memory hash table per UDF mapping input arguments to outcomes.
The paper's implementation hashes the raw input arguments with xxHash on
*every* invocation; that per-call hashing cost is what drags FunCache below
1x speedup on low-reuse workloads (Fig. 5).  Here the hash itself is not
performed (inputs are synthetic handles) but its cost is charged to the
virtual clock based on the input's byte size.

The cache is **bounded**: entries across all UDFs live in one LRU keyed by
``(udf_name, key)``, capped at ``EvaConfig.funcache_max_entries`` (0
disables the cap).  An unbounded cache is a slow leak across long
exploratory sessions — every distinct (frame, bbox) input pins its result
forever.  Evictions bump the ``funcache_evictions`` metrics counter
(exported as ``eva_events_total{event="funcache_evictions"}``), mirroring
the plan cache's treatment.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Sequence

from repro.clock import CostCategory, SimulationClock
from repro.costs import CostConstants


class _Pending:
    """A missed key's slot, until its value is computed."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class FunctionCache:
    """Bounded per-UDF in-memory result cache with hashing-cost accounting."""

    def __init__(self, clock: SimulationClock, costs: CostConstants,
                 max_entries: int = 0, metrics=None):
        self._clock = clock
        self._costs = costs
        #: 0 disables the cap (legacy unbounded behavior).
        self._max_entries = max_entries
        #: Duck-typed :class:`~repro.metrics.MetricsCollector` (or None).
        self._metrics = metrics
        #: One LRU across all UDFs: (udf_name, key) -> value.  A single
        #: recency order means a burst on one UDF evicts the *globally*
        #: coldest entries rather than starving its own table.
        self._entries: OrderedDict[tuple[str, Hashable], object] = \
            OrderedDict()
        self._per_udf: dict[str, int] = {}
        self.evictions = 0

    def lookup_many(self, udf_name: str, keys: Sequence[Hashable],
                    input_bytes: Sequence[int],
                    evaluate: Callable[[list[int]], Sequence]
                    ) -> tuple[list, list[int]]:
        """Look ``keys`` up in order, storing what misses, with one
        ``evaluate`` call for every miss.

        Each key is charged its hash (``input_bytes``) and walks the LRU
        as a lookup-then-store per key would: a hit refreshes its entry,
        a miss is inserted at once (evicting the coldest entries) under a
        placeholder.  ``evaluate(misses)`` gets the positions that
        missed, ascending, and returns their values, which fill the
        placeholders still cached.  So a key repeating an earlier miss
        hits it, and one a later insertion evicted first misses again.
        Returns every key's value and the positions that hit.
        """
        entries = self._entries
        values: list = []
        hits: list[int] = []
        misses: list[int] = []
        for index, (key, nbytes) in enumerate(zip(keys, input_bytes)):
            self._charge_hash(nbytes)
            slot = (udf_name, key)
            if slot in entries:
                entries.move_to_end(slot)
                values.append(entries[slot])
                hits.append(index)
            else:
                values.append(_Pending(index))
                misses.append(index)
                self.store(udf_name, key, values[index])
        try:
            outputs = evaluate(misses)
        except BaseException:
            # Placeholders never outlive this call: the keys of a failed
            # evaluation stay uncached.
            for index in misses:
                slot = (udf_name, keys[index])
                if entries.get(slot) is values[index]:
                    del entries[slot]
                    self._per_udf[udf_name] -= 1
            raise
        for index, value in zip(misses, outputs):
            slot = (udf_name, keys[index])
            if entries.get(slot) is values[index]:
                entries[slot] = value
            values[index] = value
        for index in hits:
            if isinstance(values[index], _Pending):
                values[index] = values[values[index].index]
        return values, hits

    def _charge_hash(self, input_bytes: int) -> None:
        self._clock.charge(
            CostCategory.HASH,
            self._costs.hash_per_call
            + input_bytes * self._costs.hash_per_byte)

    def store(self, udf_name: str, key: Hashable, value: object) -> None:
        """Insert a computed result (the arguments were already hashed)."""
        slot = (udf_name, key)
        fresh = slot not in self._entries
        self._entries[slot] = value
        self._entries.move_to_end(slot)
        if fresh:
            self._per_udf[udf_name] = self._per_udf.get(udf_name, 0) + 1
        while self._max_entries and len(self._entries) > self._max_entries:
            (evicted_udf, _), _ = self._entries.popitem(last=False)
            self._per_udf[evicted_udf] -= 1
            self.evictions += 1
            if self._metrics is not None:
                self._metrics.increment("funcache_evictions")

    def entries(self, udf_name: str) -> int:
        return self._per_udf.get(udf_name, 0)

    def total_entries(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._per_udf.clear()
