"""Fixture suite for the ``determinism`` checker."""

from .conftest import rules_of

RULES = ["determinism"]


class TestGlobalRng:
    def test_unseeded_random_in_sim_fires(self, lint):
        report = lint({"sim/engine.py": """\
            import random

            def jitter():
                return random.random()
            """}, rules=RULES)
        assert rules_of(report) == {"determinism"}
        assert "random.random" in report.findings[0].message

    def test_explicit_random_instance_passes(self, lint):
        report = lint({"codegen/synth.py": """\
            import random

            def make_rng(seed):
                return random.Random(seed)
            """}, rules=RULES)
        assert report.ok

    def test_numpy_global_rng_fires_but_default_rng_passes(self, lint):
        report = lint({"tuning/ga.py": """\
            import numpy as np

            def bad():
                return np.random.shuffle([1, 2])

            def good(seed):
                return np.random.default_rng(seed)
            """}, rules=RULES)
        assert len(report.findings) == 1
        assert "np.random.shuffle" in report.findings[0].message

    def test_isa_is_a_result_dir(self, lint):
        # Trace expansion's address and outcome matrices live in isa/.
        report = lint({"isa/program.py": """\
            import numpy as np

            def bad():
                return np.random.PCG64()

            def good():
                return np.random.default_rng(0)
            """}, rules=RULES)
        assert len(report.findings) == 1
        assert "np.random.PCG64" in report.findings[0].message

    def test_result_dir_scoping(self, lint):
        # The same call outside isa/sim/codegen/tuning is not result-path.
        report = lint({"obs/clock.py": """\
            import random

            def jitter():
                return random.random()
            """}, rules=RULES)
        assert report.ok


class TestWallClock:
    def test_time_time_in_result_dir_fires(self, lint):
        report = lint({"sim/run.py": """\
            import time

            def stamp():
                return time.time()
            """}, rules=RULES)
        assert not report.ok

    def test_perf_counter_passes(self, lint):
        # Monotonic timing is observability, not result data.
        report = lint({"sim/run.py": """\
            import time

            def elapsed(start):
                return time.perf_counter() - start
            """}, rules=RULES)
        assert report.ok

    def test_datetime_now_fires(self, lint):
        report = lint({"tuning/log.py": """\
            import datetime

            def stamp():
                return datetime.datetime.now()
            """}, rules=RULES)
        assert not report.ok


class TestSetIteration:
    def test_for_over_set_literal_fires(self, lint):
        report = lint({"a.py": """\
            def run():
                for x in {1, 2, 3}:
                    print(x)
            """}, rules=RULES)
        assert not report.ok

    def test_for_over_set_assigned_name_fires(self, lint):
        report = lint({"a.py": """\
            def run(items):
                pending = set(items)
                for x in pending:
                    print(x)
            """}, rules=RULES)
        assert not report.ok

    def test_sorted_set_passes(self, lint):
        report = lint({"a.py": """\
            def run(items):
                pending = set(items)
                for x in sorted(pending):
                    print(x)
            """}, rules=RULES)
        assert report.ok

    def test_order_insensitive_consumers_pass(self, lint):
        report = lint({"a.py": """\
            def run(conns):
                live = {c for c in conns}
                return any(c.ok for c in live), sum(c.n for c in live)
            """}, rules=RULES)
        assert report.ok

    def test_list_of_set_fires(self, lint):
        report = lint({"a.py": """\
            def run(items):
                seen = set(items)
                return list(seen)
            """}, rules=RULES)
        assert not report.ok

    def test_self_attr_set_from_init_fires(self, lint):
        # The exact shape of the pre-fix Coordinator._connections bug.
        report = lint({"hub.py": """\
            class Hub:
                def __init__(self):
                    self._conns = set()

                def close_all(self):
                    for conn in self._conns:
                        conn.close()
            """}, rules=RULES)
        assert not report.ok

    def test_membership_test_passes(self, lint):
        report = lint({"a.py": """\
            def run(items, probe):
                seen = set(items)
                return probe in seen
            """}, rules=RULES)
        assert report.ok
