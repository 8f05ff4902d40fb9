"""Metrics registry tests: counters, gauges, spans, thread safety."""

import threading

import pytest

from repro import obs
from repro.obs import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry(enabled=True)


class TestCounters:
    def test_inc_accumulates(self, registry):
        registry.inc("a")
        registry.inc("a", 4)
        assert registry.counters() == {"a": 5}

    def test_counters_prefix_filter(self, registry):
        registry.inc("cache.hits", 2)
        registry.inc("cache.misses")
        registry.inc("other")
        assert registry.counters("cache.") == {
            "cache.hits": 2, "cache.misses": 1,
        }

    def test_reset_prefix_keeps_other_counters(self, registry):
        registry.inc("cache.hits")
        registry.inc("other")
        registry.reset("cache.")
        assert registry.counters() == {"other": 1}

    def test_reset_all(self, registry):
        registry.inc("a")
        registry.set_gauge("g", 3)
        registry.observe("t", 0.5)
        registry.reset()
        assert registry.snapshot().is_empty()


class TestGauges:
    def test_set_gauge_overwrites(self, registry):
        registry.set_gauge("workers", 4)
        registry.set_gauge("workers", 2)
        assert registry.snapshot().gauges == {"workers": 2}


class TestSpans:
    def test_span_records_timing(self, registry):
        with registry.span("stage"):
            pass
        snap = registry.snapshot()
        stat = snap.timers["stage"]
        assert stat.count == 1
        assert stat.total_s >= 0
        assert stat.min_s <= stat.max_s

    def test_nested_spans(self, registry):
        with registry.span("outer"):
            with registry.span("inner"):
                pass
        snap = registry.snapshot()
        assert snap.timers["outer"].count == 1
        assert snap.timers["inner"].count == 1

    def test_span_records_on_exception(self, registry):
        with pytest.raises(ValueError):
            with registry.span("stage"):
                raise ValueError("boom")
        assert registry.snapshot().timers["stage"].count == 1


class TestDisabled:
    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("a")
        registry.set_gauge("g", 1)
        with registry.span("stage"):
            pass
        assert registry.snapshot().is_empty()

    def test_set_enabled_toggles(self, registry):
        registry.set_enabled(False)
        registry.inc("a")
        registry.set_enabled(True)
        registry.inc("a")
        assert registry.counters() == {"a": 1}


class TestThreadSafety:
    def test_concurrent_increments_from_8_threads(self, registry):
        """Regression: += on a plain dict dropped updates under threads."""
        threads, per_thread = 8, 5_000

        def hammer():
            for _ in range(per_thread):
                registry.inc("shared")

        pool = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert registry.counters()["shared"] == threads * per_thread


class TestEnginePathCounters:
    def test_engine_path_counts_hammered_from_8_threads(self):
        """The old process-global Counter raced under ThreadBackend."""
        obs.reset("engine_path.")
        try:
            threads, per_thread = 8, 5_000

            def hammer():
                for _ in range(per_thread):
                    obs.inc("engine_path.memory.vectorized")

            pool = [threading.Thread(target=hammer) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
            assert obs.counters("engine_path.") == {
                "engine_path.memory.vectorized": threads * per_thread,
            }
        finally:
            obs.reset("engine_path.")
