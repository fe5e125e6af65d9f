"""Tests for the cost-center profiler: no-op mode, nesting, attribution,
exports, determinism, and span reconciliation."""

import time
import tracemalloc
from collections import Counter

import pytest

from repro import obs
from repro.obs import invoke_coverage
from repro.obs.prof import _NOOP, Profiler, profiled, profiling


@pytest.fixture(autouse=True)
def _no_global_leak():
    yield
    obs.disable()
    obs.disable_profiler()
    obs.set_registry(obs.MetricsRegistry())


class TestDisabledMode:
    def test_disabled_returns_shared_probe(self):
        obs.disable_profiler()
        assert profiled("x") is profiled("y") is _NOOP

    def test_disabled_probe_supports_add_bytes(self):
        obs.disable_profiler()
        with profiled("x") as pf:
            pf.add_bytes(123)  # must not raise in either mode

    def test_disabled_allocates_nothing(self):
        obs.disable_profiler()

        def call():
            with profiled("x") as pf:
                pf.add_bytes(1)

        call()  # warm-up
        tracemalloc.start()
        for _ in range(5000):
            call()
        current, _peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert current < 2048, f"disabled profiling leaked {current} B"


class TestRecording:
    def test_calls_seconds_bytes_accumulate(self):
        profiler = obs.enable_profiler()
        for _ in range(3):
            with profiled("crypto.hash", n_bytes=10) as pf:
                pf.add_bytes(5)
        stats = {s.center: s for s in profiler.center_stats()}
        stat = stats["crypto.hash"]
        assert stat.calls == 3
        assert stat.n_bytes == 3 * 15
        assert stat.inclusive_s >= 0.0
        assert stat.exclusive_s == pytest.approx(stat.inclusive_s)

    def test_nested_frames_subtract_child_time(self):
        profiler = obs.enable_profiler()
        with profiled("outer"):
            with profiled("inner"):
                time.sleep(0.01)
        stats = {s.center: s for s in profiler.center_stats()}
        outer, inner = stats["outer"], stats["inner"]
        assert inner.inclusive_s >= 0.01
        assert outer.inclusive_s >= inner.inclusive_s
        # The sleep is the child's: the parent keeps only its own slice.
        assert outer.exclusive_s <= outer.inclusive_s - inner.inclusive_s + 1e-6

    def test_node_attribution_via_span_attrs(self):
        profiler = obs.enable_profiler()
        tracer = obs.enable()
        with tracer.span("fabric.peer.commit", attrs={"peer": "peer0.org1"}):
            with tracer.span("inner.stage"):  # no node attr: walk to parent
                with profiled("state.apply"):
                    pass
        with profiled("serialize.decode"):  # outside any span
            pass
        stats = {(s.node, s.center) for s in profiler.center_stats()}
        assert ("peer0.org1", "state.apply") in stats
        assert ("client", "serialize.decode") in stats

    def test_scoped_profiling_restores_previous(self):
        outer = obs.enable_profiler()
        with profiling() as inner:
            assert obs.get_profiler() is inner
        assert obs.get_profiler() is outer


class TestDeterminism:
    def _chaos_fingerprint(self):
        from repro.chaos import get_scenario

        registry = obs.MetricsRegistry()
        obs.set_registry(registry)
        with profiling() as profiler:
            tracer = obs.enable(registry=registry)
            try:
                get_scenario("standard", seed=0, n_cycles=6).run()
            finally:
                obs.disable()
            return profiler.fingerprint(), invoke_coverage(tracer, profiler)

    def test_fingerprint_deterministic_across_seeded_runs(self):
        fp1, cov1 = self._chaos_fingerprint()
        fp2, cov2 = self._chaos_fingerprint()
        assert fp1 == fp2
        assert cov1 > 0.0 and cov2 > 0.0

    def test_fingerprint_ignores_timing(self):
        p1, p2 = Profiler(), Profiler()
        p1._record("c", 1.0, 1.0, 0)
        p2._record("c", 99.0, 99.0, 0)
        assert p1.fingerprint() == p2.fingerprint()
        p2._record("c", 0.0, 0.0, 0)
        assert p1.fingerprint() != p2.fingerprint()


class TestReconciliation:
    def _traced_invoke(self, n_items=2):
        from repro.core import Client, Framework, FrameworkConfig
        from repro.trust import SourceTier

        registry = obs.MetricsRegistry()
        obs.set_registry(registry)
        profiler = obs.enable_profiler()
        tracer = obs.enable(registry=registry)
        framework = Framework(FrameworkConfig())
        client = Client(
            framework, framework.register_source("cam", tier=SourceTier.TRUSTED)
        )
        for i in range(n_items):
            receipt = client.submit(
                b"payload %d " % i * 64,
                {"timestamp": float(i), "camera_id": "cam", "detections": []},
            )
            client.retrieve(receipt.entry_id)
        return tracer, profiler

    def test_span_frames_bounded_by_span_wall_time(self):
        tracer, profiler = self._traced_invoke()
        spans = {s.span_id: s for s in tracer.finished}
        for span_id, centers in profiler.span_center_seconds().items():
            span = spans.get(span_id)
            if span is None:
                continue  # span still open or evicted
            attributed = sum(seconds for _calls, seconds in centers.values())
            assert attributed <= span.duration_s + 1e-4, (
                f"{span.name}: {attributed}s of frames in a "
                f"{span.duration_s}s span"
            )

    def test_invoke_coverage_in_unit_range_and_substantial(self):
        tracer, profiler = self._traced_invoke()
        coverage = invoke_coverage(tracer, profiler)
        assert coverage <= 1.0 + 1e-6
        # CI gates >= 0.9 on the standard scenario; keep the unit bound
        # conservative so a slow box doesn't flake it.
        assert coverage >= 0.7, f"coverage collapsed to {coverage:.3f}"

    def test_coverage_zero_without_tracer_or_profiler(self):
        assert invoke_coverage(None, Profiler()) == 0.0
        assert invoke_coverage(obs.Tracer(), None) == 0.0


class TestBreakdownIntegration:
    def test_stage_center_rows_and_other_residual(self):
        tracer, profiler = TestReconciliation()._traced_invoke(1)
        breakdown = obs.pipeline_breakdown(tracer, profiler=profiler)
        storage = breakdown["storage"]
        assert storage.stages, "no storage stages resolved"
        centered = [s for s in storage.stages if s.centers]
        assert centered, "no stage gained cost-center rows"
        saw_other = False
        for stage in centered:
            others = [c for c in stage.centers if c.center == "other"]
            explained = sum(c.total_s for c in stage.centers if c.center != "other")
            if others:
                # The residual is exactly the unexplained share, never
                # negative (over-attribution from frames whose window
                # crosses nested spans simply yields no row).
                saw_other = True
                assert others[0].total_s > 0.0
                assert others[0].total_s == pytest.approx(
                    stage.total_s - explained, abs=1e-4
                )
        assert saw_other, "no stage surfaced an explicit 'other' residual"
        rendered = obs.render_breakdown(breakdown)
        assert " . " in rendered

    def test_breakdown_without_profiler_has_no_center_rows(self):
        tracer, _profiler = TestReconciliation()._traced_invoke(1)
        obs.disable_profiler()
        breakdown = obs.pipeline_breakdown(tracer)
        assert all(not s.centers for s in breakdown["storage"].stages)


class TestExports:
    def _small_profile(self):
        profiler = obs.enable_profiler()
        tracer = obs.enable()
        with tracer.span("fabric.peer.commit", attrs={"peer": "p0"}):
            with profiled("outer"):
                with profiled("inner"):
                    pass
        obs.disable()
        return profiler

    def test_report_series_shape(self):
        profiler = self._small_profile()
        series = profiler.report().series()
        assert series["outer_calls"] == [1.0]
        assert series["inner_calls"] == [1.0]
        assert all(
            key.endswith("_calls") or key.endswith("_excl_s") for key in series
        )


class TestAttributionModel:
    @staticmethod
    def _profiled_ingest(batch_size):
        """One run of the quick batching sweep (16 items at ``batch_size``),
        profiled and traced; at 16 the orderer holds transactions in its
        batch queue while the rest of the batch is prepared."""
        from repro.core import BatchIngestor, Framework, FrameworkConfig
        from repro.trust import SourceTier
        from repro.workloads.traffic import IngestItem

        with profiling() as profiler, obs.enabled(max_spans=None) as tracer:
            framework = Framework(
                FrameworkConfig(consensus="bft", max_batch_size=batch_size)
            )
            ingestor = BatchIngestor(framework)
            ingestor.register(
                framework.register_source("batch-cam", tier=SourceTier.TRUSTED)
            )
            items = [
                IngestItem(
                    source_id="batch-cam",
                    payload=bytes([i]) * 4096,
                    metadata={"timestamp": float(i), "detections": []},
                    observation=None,
                )
                for i in range(16)
            ]
            assert ingestor.ingest(items).committed == 16
        return tracer, profiler

    def test_centers_fit_their_span_and_nodes_match_critical_path(self):
        for batch_size in (1, 16):
            self._check_attribution(*self._profiled_ingest(batch_size))

    @staticmethod
    def _check_attribution(tracer, profiler):
        spans = {s.span_id: s for s in tracer.finished}
        span_centers = profiler.span_center_seconds()
        assert span_centers
        # A center holds only work done inside the span it is recorded
        # under, so the centers of a span never add up to more than it.
        for span_id, centers in span_centers.items():
            span = spans[span_id]
            held = sum(seconds for _calls, seconds in centers.values())
            assert held <= span.duration_s + 1e-9, (
                f"{span.name}: centers hold {held:.6f}s of a "
                f"{span.duration_s:.6f}s span: {sorted(centers)}"
            )
        # Frames are charged to the node critical_path reports for their
        # span (the committed invokes cross client, peers, orderer and
        # validators).
        on_path: Counter = Counter()
        for invoke in tracer.spans("fabric.invoke"):
            path = obs.critical_path(tracer, invoke.attrs["tx_id"])
            nodes = {seg.span_id: seg.node for seg in path.segments}
            for span_id, node in nodes.items():
                for center, (calls, _s) in span_centers.get(span_id, {}).items():
                    on_path[node, center] += calls
        assert len({node for node, _center in on_path}) >= 3
        rows = {(s.node, s.center): s.calls for s in profiler.center_stats()}
        for (node, center), calls in sorted(on_path.items()):
            assert rows.get((node, center), 0) >= calls, (
                f"{center}: {calls} calls on {node}'s critical-path spans, "
                f"but the profiler charged {rows.get((node, center), 0)} to {node}"
            )
