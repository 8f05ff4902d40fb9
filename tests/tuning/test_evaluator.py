"""Unit tests for the evaluation engine (memoization + accounting)."""

import numpy as np

from repro.tuning.evaluator import Evaluator
from repro.tuning.knobs import Knob, KnobSpace


def _space():
    return KnobSpace([Knob("A", (1.0, 2.0, 3.0)), Knob("B", (5.0, 6.0))])


class TestEvaluator:
    def test_counts_requested_and_unique(self):
        calls = []
        ev = Evaluator(_space(), lambda c: calls.append(c) or {"y": c["A"]})
        ev.evaluate(np.array([0.0, 0.0]))
        ev.evaluate(np.array([0.0, 0.0]))
        assert ev.requested_evaluations == 2
        assert ev.unique_evaluations == 1
        assert len(calls) == 1

    def test_rounding_shares_cache_entries(self):
        ev = Evaluator(_space(), lambda c: {"y": 0.0})
        ev.evaluate(np.array([0.1, 0.0]))
        ev.evaluate(np.array([-0.3, 0.4]))  # rounds to the same lattice point
        assert ev.unique_evaluations == 1

    def test_cache_disabled_reruns(self):
        ev = Evaluator(_space(), lambda c: {"y": 0.0}, cache=False)
        ev.evaluate(np.array([0.0, 0.0]))
        ev.evaluate(np.array([0.0, 0.0]))
        assert ev.unique_evaluations == 2

    def test_evaluate_raw_shares_the_cache(self):
        ev = Evaluator(_space(), lambda c: {"y": c["A"]})
        config = _space().materialize(np.array([1.0, 1.0]))
        first = ev.evaluate_raw(config)
        again = ev.evaluate(np.array([1.0, 1.0]))
        assert first == again
        assert ev.unique_evaluations == 1

    def test_reset_counters_keeps_cache(self):
        ev = Evaluator(_space(), lambda c: {"y": 0.0})
        ev.evaluate(np.array([0.0, 0.0]))
        ev.reset_counters()
        assert ev.requested_evaluations == 0
        ev.evaluate(np.array([0.0, 0.0]))
        assert ev.unique_evaluations == 0  # served from cache

    def test_metrics_pass_through(self):
        ev = Evaluator(_space(), lambda c: {"y": c["A"] + c["B"]})
        metrics = ev.evaluate(np.array([2.0, 1.0]))
        assert metrics == {"y": 3.0 + 6.0}


class TestUnifiedCacheKeys:
    def test_raw_int_and_materialized_float_share_an_entry(self):
        """evaluate/evaluate_raw must canonicalize to the same key."""
        ev = Evaluator(_space(), lambda c: {"y": 1.0})
        ev.evaluate_raw({"A": 2, "B": 6})  # ints, unsorted order
        ev.evaluate(np.array([1.0, 1.0]))  # materializes {"A": 2.0, "B": 6.0}
        assert ev.requested_evaluations == 2
        assert ev.unique_evaluations == 1

    def test_key_order_does_not_matter(self):
        ev = Evaluator(_space(), lambda c: {"y": 1.0})
        ev.evaluate_raw({"B": 6, "A": 2})
        ev.evaluate_raw({"A": 2, "B": 6})
        assert ev.unique_evaluations == 1


class TestEvaluateBatch:
    def test_results_in_input_order(self):
        ev = Evaluator(_space(), lambda c: {"y": c["A"]})
        batch = [np.array([0.0, 0.0]), np.array([2.0, 0.0]),
                 np.array([1.0, 1.0])]
        results = ev.evaluate_batch(batch)
        assert [r["y"] for r in results] == [1.0, 3.0, 2.0]

    def test_batch_dedups_against_itself(self):
        calls = []
        ev = Evaluator(_space(), lambda c: calls.append(c) or {"y": c["A"]})
        batch = [np.array([0.0, 0.0]), np.array([0.2, -0.1]),  # same point
                 np.array([2.0, 1.0])]
        results = ev.evaluate_batch(batch)
        assert ev.requested_evaluations == 3
        assert ev.unique_evaluations == 2
        assert len(calls) == 2
        assert results[0] == results[1]

    def test_batch_dedups_against_memo_cache(self):
        ev = Evaluator(_space(), lambda c: {"y": c["A"]})
        ev.evaluate(np.array([0.0, 0.0]))
        ev.evaluate_batch([np.array([0.0, 0.0]), np.array([1.0, 0.0])])
        assert ev.requested_evaluations == 3
        assert ev.unique_evaluations == 2

    def test_batch_fn_receives_only_unique_configs(self):
        seen = []

        def batch_fn(configs):
            seen.append(list(configs))
            return [{"y": c["A"]} for c in configs]

        ev = Evaluator(_space(), lambda c: {"y": -1.0}, batch_fn=batch_fn)
        ev.evaluate_batch([np.array([0.0, 0.0]), np.array([0.0, 0.0]),
                           np.array([1.0, 0.0])])
        assert len(seen) == 1
        assert len(seen[0]) == 2

    def test_batch_fn_length_mismatch_rejected(self):
        import pytest

        ev = Evaluator(_space(), lambda c: {"y": 0.0},
                       batch_fn=lambda configs: [])
        with pytest.raises(RuntimeError, match="batch_fn"):
            ev.evaluate_batch([np.array([0.0, 0.0])])

    def test_raw_batch_counts_and_dedups(self):
        ev = Evaluator(_space(), lambda c: {"y": c["A"]})
        results = ev.evaluate_raw_batch(
            [{"A": 1, "B": 5}, {"A": 1.0, "B": 5.0}, {"A": 3, "B": 5}]
        )
        assert ev.requested_evaluations == 3
        assert ev.unique_evaluations == 2
        assert results[0] == results[1] == {"y": 1}

    def test_cache_disabled_runs_every_entry(self):
        ev = Evaluator(_space(), lambda c: {"y": 0.0}, cache=False)
        ev.evaluate_batch([np.array([0.0, 0.0]), np.array([0.0, 0.0])])
        assert ev.unique_evaluations == 2

    def test_empty_batch(self):
        ev = Evaluator(_space(), lambda c: {"y": 0.0})
        assert ev.evaluate_batch([]) == []
        assert ev.requested_evaluations == 0


class TestDiskCacheIntegration:
    def test_disk_hits_skip_evaluation_but_count_requests(self, tmp_path):
        from repro.exec.cache import DiskResultCache

        cache = DiskResultCache(tmp_path)
        first = Evaluator(_space(), lambda c: {"y": c["A"]},
                          disk_cache=cache, cache_context="ctx")
        first.evaluate(np.array([1.0, 0.0]))
        assert first.unique_evaluations == 1

        def explode(config):
            raise AssertionError("should have been served from disk")

        warm = Evaluator(_space(), explode,
                         disk_cache=DiskResultCache(tmp_path),
                         cache_context="ctx")
        metrics = warm.evaluate(np.array([1.0, 0.0]))
        assert metrics == {"y": 2.0}
        assert warm.requested_evaluations == 1
        assert warm.unique_evaluations == 0

    def test_context_mismatch_reevaluates(self, tmp_path):
        from repro.exec.cache import DiskResultCache

        cache = DiskResultCache(tmp_path)
        a = Evaluator(_space(), lambda c: {"y": 1.0},
                      disk_cache=cache, cache_context="core=small")
        a.evaluate(np.array([0.0, 0.0]))
        b = Evaluator(_space(), lambda c: {"y": 2.0},
                      disk_cache=cache, cache_context="core=large")
        assert b.evaluate(np.array([0.0, 0.0])) == {"y": 2.0}
