"""Ablation: metadata query caching on the read path.

The paper's retrieval story leans on reads being cheap ("no gas costs");
analyst dashboards re-issue the same queries continuously. This bench
prices the height-invalidated query cache: repeated metadata queries with
and without it, plus the invalidation cost when new blocks land.
"""

import time

from repro.bench import emit, format_table
from repro.core import Client, Framework, FrameworkConfig
from repro.trust import SourceTier

N_RECORDS = 40
N_REPEATS = 50
QUERY = "vehicle_class = 'car' ORDER BY metadata.timestamp"


def _populated_client():
    framework = Framework(FrameworkConfig(consensus="solo", max_batch_size=8))
    client = Client(
        framework, framework.register_source("cache-cam", tier=SourceTier.TRUSTED)
    )
    for i in range(N_RECORDS):
        framework.channel.invoke_async(
            client.identity, "data_upload", "add_data",
            ["bafyfake" + str(i), "0" * 64,
             '{"timestamp": %f, "detections": [{"vehicle_class": "car", "confidence": 0.9}]}' % float(i)],
        )
    framework.channel.flush()
    return client


def _repeat_query(client, enabled: bool) -> float:
    client.engine.cache_enabled = enabled
    client.engine._cache.clear()
    client.query(QUERY)  # warm (fills cache when enabled)
    start = time.perf_counter()
    for _ in range(N_REPEATS):
        rows = client.query(QUERY)
    elapsed = (time.perf_counter() - start) / N_REPEATS
    assert len(rows) == N_RECORDS
    return elapsed


def test_ablation_query_cache(benchmark):
    def run():
        client = _populated_client()
        uncached = _repeat_query(client, enabled=False)
        cached = _repeat_query(client, enabled=True)
        hits = client.engine.stats.cache_hits
        return uncached, cached, hits

    uncached, cached, hits = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["uncached (executed each time)", f"{uncached * 1e6:.1f}"],
        ["cached (height-validated)", f"{cached * 1e6:.1f}"],
        ["speedup", f"{uncached / cached:.1f}x"],
    ]
    text = format_table(
        f"Ablation: metadata query cache ({N_RECORDS} records, {N_REPEATS} repeats)",
        ["configuration", "us per query"],
        rows,
    )
    emit("ablation_cache", text)

    assert hits == N_REPEATS
    assert cached < uncached