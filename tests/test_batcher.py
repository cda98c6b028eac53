"""The cross-client inference batcher.

:class:`~repro.server.batcher.InferenceBatcher` coalesces concurrent
clients' miss sub-batches (observed max batch size > 1) without changing
any client's rows or virtual totals; chunking never splits a request.
"""

from __future__ import annotations

import threading

import pytest

from repro.clock import CostCategory
from repro.config import EvaConfig, ReusePolicy

BATCH_QUERY = ("SELECT id, label FROM shared CROSS APPLY "
               "FastRCNNObjectDetector(frame) WHERE label = 'car';")

NUM_CLIENTS = 8


def _batch_server(timeout_ms: float):
    from repro.server import EvaServer
    from repro.types import VideoMetadata
    from repro.video.synthetic import SyntheticVideo

    # Policy NONE: no cross-client view reuse, so every client evaluates
    # the identical miss set and per-client virtual totals are exactly
    # the solo-run totals — isolating the batcher's (non-)effect.
    config = EvaConfig(reuse_policy=ReusePolicy.NONE,
                       micro_batch_max_size=1_000_000,
                       micro_batch_timeout_ms=timeout_ms)
    server = EvaServer(config, max_workers=NUM_CLIENTS)
    video = SyntheticVideo(
        VideoMetadata(name="shared", num_frames=200, width=960,
                      height=540, fps=25.0, vehicles_per_frame=8.3),
        seed=7)
    server.register_video(video)
    return server


class TestInferenceBatcher:
    def test_coalesces_without_changing_virtual_totals(self):
        # Solo baseline: one client, nothing to coalesce with.
        solo = _batch_server(timeout_ms=0.0)
        with solo.start():
            handle = solo.connect()
            baseline = handle.execute(BATCH_QUERY)
            with handle.checkout() as session:
                baseline_clock = {
                    c: s for c, s in session.clock.breakdown().items()
                    if c is not CostCategory.OPTIMIZE}

        server = _batch_server(timeout_ms=1000.0)
        results: dict[str, object] = {}
        with server.start():
            handles = [server.connect() for _ in range(NUM_CLIENTS)]

            def run(handle) -> None:
                results[handle.client_id] = handle.execute(BATCH_QUERY)

            threads = [threading.Thread(target=run, args=(h,))
                       for h in handles]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            snapshot = server.batcher_snapshot()
            clocks = {}
            for handle in handles:
                with handle.checkout() as session:
                    clocks[handle.client_id] = {
                        c: s
                        for c, s in session.clock.breakdown().items()
                        if c is not CostCategory.OPTIMIZE}

        # The batcher actually coalesced concurrent clients' calls.
        assert snapshot.requests == NUM_CLIENTS
        assert snapshot.max_batch_requests > 1
        assert snapshot.mean_batch_requests > 1.0
        assert snapshot.coalesced_dispatches >= 1
        assert snapshot.dispatches < NUM_CLIENTS
        # ... without changing any client's rows or virtual totals.
        for client_id, result in results.items():
            assert tuple(result.rows) == tuple(baseline.rows), client_id
        for client_id, clock in clocks.items():
            assert set(clock) == set(baseline_clock), client_id
            for category, seconds in baseline_clock.items():
                assert clock[category] == pytest.approx(
                    seconds, rel=1e-9, abs=1e-12), (client_id, category)

    def test_prometheus_exposes_batcher_gauges(self):
        server = _batch_server(timeout_ms=0.0)
        with server.start():
            server.connect().execute(BATCH_QUERY)
            text = server.prometheus_text()
        assert "eva_batcher_requests_total" in text
        assert "eva_batcher_dispatches_total" in text
        assert 'eva_batcher_batch_requests{stat="max"}' in text


class TestBatcherChunking:
    def test_requests_never_split(self):
        from repro.server.batcher import InferenceBatcher, _Request

        batcher = InferenceBatcher(max_batch_size=4)
        chunks = batcher._chunks([_Request([1, 2, 3]),
                                  _Request([4, 5]),
                                  _Request([6]),
                                  _Request([7, 8, 9, 10, 11])])
        sizes = [[len(r.inputs) for r in chunk] for chunk in chunks]
        assert sizes == [[3], [2, 1], [5]]

    def test_validation(self):
        from repro.server.batcher import InferenceBatcher

        with pytest.raises(ValueError):
            InferenceBatcher(max_batch_size=0)
        with pytest.raises(ValueError):
            InferenceBatcher(timeout_ms=-1.0)
        with pytest.raises(ValueError):
            EvaConfig(micro_batch_timeout_ms=-0.5)
