"""Regression tests for QueryEngine thread safety and error mapping.

Callers may drive one engine from their own threads, so the stats counters
and the decoded-record memo are shared; every mutation must hold
``_stats_lock``.
``fetch_payload_verified`` must map *every* malformed-record shape to a
typed :class:`~repro.errors.QueryError`, not leak parser internals.
"""

import threading
from types import SimpleNamespace

import pytest

from repro.core import Client, Framework, FrameworkConfig
from repro.errors import QueryError
from repro.query import QueryEngine
from repro.trust import SourceTier

META = {"timestamp": 1.0, "camera_id": "race-cam",
        "detections": [{"vehicle_class": "car", "confidence": 0.9}]}


class TestStatsRaces:
    def test_concurrent_runs_keep_exact_counters(self):
        """N threads x M queries: every run() is counted exactly once."""
        framework = Framework(FrameworkConfig(consensus="solo"))
        client = Client(
            framework, framework.register_source("race-cam", tier=SourceTier.TRUSTED)
        )
        client.submit(b"row-1", dict(META))
        client.submit(b"row-2", dict(META))
        engine = client.engine
        n_threads, per_thread = 8, 12
        # A mix of repeated and distinct query texts, all index-routable so
        # execution stays on lock-free world-state reads.
        texts = ["source_id = 'race-cam'"] + [
            f"source_id = 'race-cam' AND metadata.timestamp >= {i}"
            for i in range(per_thread - 1)
        ]
        errors = []

        def worker():
            try:
                for text in texts:
                    engine.run(text)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        # The racy pre-fix counters lost increments under contention; every
        # run() must be counted exactly once.
        assert engine.stats.queries == n_threads * per_thread


class TestMalformedCid:
    def _engine(self):
        return QueryEngine(
            channel=SimpleNamespace(),
            cluster=SimpleNamespace(),
            identity=SimpleNamespace(),
        )

    def test_missing_cid_is_query_error(self):
        with pytest.raises(QueryError):
            self._engine().fetch_payload_verified({"entry_id": "e1"})

    def test_malformed_cid_is_query_error_not_parse_exception(self):
        engine = self._engine()
        for bad in ("not-a-cid", "", "zzz", 42, None):
            with pytest.raises(QueryError):
                engine.fetch_payload_verified({"entry_id": "e1", "cid": bad})
