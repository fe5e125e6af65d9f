"""Tests for the tracing layer: nesting, error capture, no-op mode."""

import pytest

from repro import obs
from repro.obs import NOOP_SPAN, Tracer, current_span, enabled, get_tracer
from repro.obs.tracer import span as obs_span


@pytest.fixture(autouse=True)
def _no_global_tracer_leak():
    yield
    obs.disable()


class TestSpanNesting:
    def test_parent_child_linkage(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        assert outer.parent_id is None

    def test_three_levels_share_one_trace(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                with tracer.span("c") as c:
                    pass
        assert c.parent_id == b.span_id
        assert b.parent_id == a.span_id
        assert {a.trace_id, b.trace_id, c.trace_id} == {a.span_id}

    def test_siblings_share_parent_not_ids(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("first") as first:
                pass
            with tracer.span("second") as second:
                pass
        assert first.parent_id == second.parent_id == root.span_id
        assert first.span_id != second.span_id

    def test_current_span_tracks_innermost(self):
        tracer = Tracer()
        assert current_span() is None
        with tracer.span("outer") as outer:
            assert current_span() is outer
            with tracer.span("inner") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None

    def test_separate_roots_get_separate_traces(self):
        tracer = Tracer()
        with tracer.span("one") as one:
            pass
        with tracer.span("two") as two:
            pass
        assert one.trace_id != two.trace_id
        assert len(tracer.roots()) == 2

    def test_timing_is_monotone_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.duration_s >= inner.duration_s >= 0
        assert outer.start_s <= inner.start_s
        assert inner.end_s <= outer.end_s


class TestErrorCapture:
    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.spans("doomed")
        assert span.status == "error"
        assert span.error == "ValueError: boom"
        assert span.finished

    def test_error_in_child_leaves_parent_ok(self):
        tracer = Tracer()
        with tracer.span("parent"):
            try:
                with tracer.span("child"):
                    raise RuntimeError("inner failure")
            except RuntimeError:
                pass
        assert tracer.spans("parent")[0].status == "ok"
        assert tracer.spans("child")[0].status == "error"

    def test_context_restored_after_error(self):
        tracer = Tracer()
        with pytest.raises(KeyError):
            with tracer.span("fails"):
                raise KeyError("x")
        assert current_span() is None


class TestQueries:
    def test_children_and_descendants(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("mid"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("mid2"):
                pass
        kids = tracer.children(root)
        assert [s.name for s in kids] == ["mid", "mid2"]
        assert {s.name for s in tracer.descendants(root)} == {"mid", "leaf", "mid2"}

    def test_clear(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.clear()
        assert list(tracer.finished) == []


class TestGlobalTracer:
    def test_disabled_span_is_shared_noop(self):
        obs.disable()
        sp = obs_span("anything")
        assert sp is NOOP_SPAN
        assert obs_span("other") is sp  # same object every call
        with sp as inner:
            inner.set_attr("ignored", 1)

    def test_enable_records_module_level_spans(self):
        with enabled() as tracer:
            with obs_span("traced") as sp:
                sp.set_attr("k", "v")
        assert tracer.spans("traced")[0].attrs == {"k": "v"}

    def test_enabled_restores_previous_tracer(self):
        outer = obs.enable()
        with enabled() as inner:
            assert get_tracer() is inner
        assert get_tracer() is outer

    def test_registry_integration(self):
        registry = obs.MetricsRegistry()
        with enabled(registry=registry):
            with obs_span("measured"):
                pass
            with pytest.raises(ValueError):
                with obs_span("measured"):
                    raise ValueError("no")
        snap = registry.snapshot()
        assert snap["counters"]['spans_total{name="measured",status="ok"}'] == 1
        assert snap["counters"]['spans_total{name="measured",status="error"}'] == 1
        assert snap["histograms"]['span_seconds{name="measured"}']["n"] == 2

    def test_span_exit_looks_each_metric_handle_up_once(self):
        lookups = []

        class CountingRegistry(obs.MetricsRegistry):
            def histogram(self, name, buckets, labels=None):
                lookups.append((name, tuple(sorted((labels or {}).items()))))
                return super().histogram(name, buckets, labels)

            def counter(self, name, labels=None):
                lookups.append((name, tuple(sorted((labels or {}).items()))))
                return super().counter(name, labels)

        registry = CountingRegistry()
        tracer = Tracer(registry=registry)
        for _ in range(50):
            with tracer.span("hot"):
                pass
        with pytest.raises(ValueError):
            with tracer.span("hot"):
                raise ValueError("no")
        assert sorted(lookups) == [
            ("span_seconds", (("name", "hot"),)),
            ("spans_total", (("name", "hot"), ("status", "error"))),
            ("spans_total", (("name", "hot"), ("status", "ok"))),
        ]
        snap = registry.snapshot()
        assert snap["counters"]['spans_total{name="hot",status="ok"}'] == 50
        assert snap["counters"]['spans_total{name="hot",status="error"}'] == 1
        assert snap["histograms"]['span_seconds{name="hot"}']["n"] == 51


class TestRingBufferRetention:
    def test_unbounded_by_default(self):
        tracer = Tracer()
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.finished) == 10
        assert tracer.dropped == 0

    def test_max_spans_bounds_retention_and_counts_drops(self):
        tracer = Tracer(max_spans=3)
        for i in range(8):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.finished) == 3
        assert [s.name for s in tracer.finished] == ["s5", "s6", "s7"]
        assert tracer.dropped == 5

    def test_dropped_spans_still_counted_in_metrics(self):
        registry = obs.MetricsRegistry()
        tracer = Tracer(registry=registry, max_spans=2)
        for i in range(5):
            with tracer.span("s"):
                pass
        snap = registry.snapshot()
        assert snap["counters"]["spans_dropped_total"] == 3
        # Metrics see every span — only retention is bounded.
        assert snap["counters"]['spans_total{name="s",status="ok"}'] == 5

    def test_invalid_max_spans_rejected(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)

    def test_enable_installs_bounded_tracer_by_default(self):
        from repro.obs.tracer import DEFAULT_MAX_SPANS

        with enabled() as tracer:
            assert tracer.max_spans == DEFAULT_MAX_SPANS
        with enabled(max_spans=None) as tracer:
            assert tracer.max_spans is None
