"""Run-report tests: document shape, derived rates, renderers."""

import json

from repro.core.config import MicroGradConfig
from repro.core.framework import MicroGrad
from repro.obs import (
    MetricsRegistry,
    RUN_REPORT_SCHEMA,
    build_run_report,
    format_cluster_status,
    format_run_report,
)


def _snapshot():
    registry = MetricsRegistry(enabled=True)
    registry.inc("engine_path.memory.vectorized", 10)
    registry.inc("engine_path.evaluate.group", 2)
    registry.inc("cache.result.hits", 3)
    registry.inc("cache.result.misses", 1)
    registry.inc("evaluator.requested", 8)
    registry.inc("evaluator.unique", 6)
    registry.set_gauge("workers", 4)
    registry.observe("codegen", 0.25)
    registry.observe("codegen", 0.75)
    registry.observe("interval.batch", 0.5)
    return registry.snapshot()


class TestBuildRunReport:
    def test_schema_and_sections(self):
        report = build_run_report(_snapshot(), wall_s=2.0,
                                  extra={"tuner": "gd"})
        assert report["schema"] == RUN_REPORT_SCHEMA
        assert report["wall_s"] == 2.0
        assert report["run"] == {"tuner": "gd"}
        assert set(report) >= {"stages", "counters", "gauges",
                               "engine_paths", "rates"}

    def test_stage_breakdown(self):
        report = build_run_report(_snapshot(), wall_s=2.0)
        stage = report["stages"]["codegen"]
        assert stage["count"] == 2
        assert stage["total_s"] == 1.0
        assert stage["mean_s"] == 0.5
        assert stage["min_s"] == 0.25
        assert stage["max_s"] == 0.75
        assert stage["share_of_wall"] == 0.5

    def test_engine_paths_prefix_stripped(self):
        report = build_run_report(_snapshot())
        assert report["engine_paths"] == {
            "memory.vectorized": 10, "evaluate.group": 2,
        }

    def test_rates(self):
        report = build_run_report(_snapshot())
        assert report["rates"]["result_cache_hit_rate"] == 0.75
        assert report["rates"]["artifact_store_hit_rate"] is None
        assert report["rates"]["evaluator_dedup_rate"] == 0.25

    def test_report_is_json_serializable(self):
        report = build_run_report(_snapshot(), wall_s=1.5,
                                  extra={"epochs": 3})
        assert json.loads(json.dumps(report)) == report

    def test_empty_snapshot(self):
        registry = MetricsRegistry(enabled=True)
        report = build_run_report(registry.snapshot())
        assert report["stages"] == {}
        assert report["engine_paths"] == {}
        assert all(v is None for v in report["rates"].values())


class TestRenderers:
    def test_format_run_report_mentions_stages_and_rates(self):
        text = format_run_report(build_run_report(_snapshot(), wall_s=2.0))
        assert "codegen" in text
        assert "interval.batch" in text
        assert "memory.vectorized: 10" in text
        assert "result_cache_hit_rate=75.0%" in text

    def test_format_cluster_status(self):
        report = {
            "addr": "127.0.0.1:5000",
            "pending": 2,
            "unresolved": 1,
            "counters": {"jobs_completed": 7, "workers_seen": 2},
            "workers": [
                {"name": "w1", "leases": 1, "jobs_done": 4,
                 "heartbeat_age_s": 0.3},
                {"name": "w2", "leases": 0, "jobs_done": 3,
                 "heartbeat_age_s": None},
            ],
            "cluster_metrics": {
                "counters": {"worker.jobs_executed": 7},
            },
        }
        text = format_cluster_status(report)
        assert "127.0.0.1:5000" in text
        assert "2 worker(s)" in text
        assert "jobs_completed=7" in text
        assert "w1" in text and "0.3s ago" in text
        assert "w2" in text and "?" in text
        assert "worker.jobs_executed: 7" in text

    def test_format_cluster_status_empty_cluster(self):
        text = format_cluster_status({"addr": "x:1"})
        assert "0 worker(s)" in text


class TestArtifactSpans:
    """The artifact lookup (fingerprint plus memory or disk get) and the
    store write are billed to their own spans in a run's report."""

    def _report(self, cache_dir=None):
        mg = MicroGrad(MicroGradConfig(
            use_case="stress", metrics=("ipc",), core="small",
            max_epochs=1, instructions=4000, loop_size=120, seed=3,
            backend="serial", cache_dir=cache_dir,
        ))
        try:
            return mg.run().run_report
        finally:
            mg.close()

    def _assert_shares_at_most_one(self, report):
        for name, stage in report["stages"].items():
            assert stage["share_of_wall"] <= 1.0, name

    def test_serial_run_reports_lookup(self):
        report = self._report()
        lookup = report["stages"]["artifact.lookup"]
        assert lookup["count"] > 0
        assert "artifact.persist" not in report["stages"]
        self._assert_shares_at_most_one(report)

    def test_cache_dir_run_reports_persist(self, tmp_path):
        report = self._report(cache_dir=str(tmp_path))
        assert report["stages"]["artifact.lookup"]["count"] > 0
        assert report["stages"]["artifact.persist"]["count"] > 0
        self._assert_shares_at_most_one(report)
