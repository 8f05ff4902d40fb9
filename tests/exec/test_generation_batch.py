"""Generation-batched evaluation: bit-identity with per-config evaluation.

The grouped job (generation fingerprints → one generation + one
``platform.evaluate_group`` per equivalence group, which simulators
serve from one config-batched shared pass) is a pure dispatch
optimisation.  These tests pin the contract end to end against
one-program-per-config oracles: the job layer, whole tuning runs, the
engine-path counters that prove the batch actually served the work, and
a platform whose metrics are not stats-pure.
"""

import sys

import pytest

from repro import obs
from repro.codegen import wrapper
from repro.codegen.wrapper import GenerationOptions, generate_test_case
from repro.core.config import MicroGradConfig
from repro.core.framework import MicroGrad
from repro.core.platform import (
    CompositePlatform,
    NativeExecutionPlatform,
    PerformancePlatform,
    SimulationPlatformMixin,
)
from repro.exec.backend import ProcessPoolBackend, SerialBackend, ThreadBackend
from repro.exec.jobs import evaluate_configs
from repro.sim.config import core_by_name

MIX_KNOBS = ("ADD", "MUL", "FADDD", "FMULD", "BEQ", "BNE",
             "LD", "LW", "SD", "SW")

#: A GA-generation-shaped batch: clones (exact duplicates), a
#: proportionally scaled twin, and genuinely distinct individuals.
CONFIGS = [
    {"ADD": 4, "BEQ": 1, "REG_DIST": 2, "B_PATTERN": 0.1},
    {"ADD": 1, "LD": 4, "SD": 2, "MEM_SIZE": 16, "REG_DIST": 4},
    {"ADD": 4, "BEQ": 1, "REG_DIST": 2, "B_PATTERN": 0.1},  # clone of 0
    {"ADD": 8, "BEQ": 2, "REG_DIST": 2, "B_PATTERN": 0.1},  # scaled 0
    {"MUL": 3, "FADDD": 2, "BNE": 1, "REG_DIST": 6},
    {"ADD": 1, "LD": 4, "SD": 2, "MEM_SIZE": 16, "REG_DIST": 4},  # clone
]


def _platform():
    return PerformancePlatform(core_by_name("small"), instructions=2_000)


def _one_run_per_member(self, program, count):
    """Oracle ``evaluate_group``: one ``Simulator.run`` per config."""
    return [self.evaluate(program) for _ in range(count)]


class TestEvaluateConfigsGrouped:
    def test_grouped_matches_per_config_bitwise(self):
        options = GenerationOptions(loop_size=120)
        obs.reset("engine_path.")
        grouped = evaluate_configs(
            SerialBackend(), _platform(), options, CONFIGS
        )
        paths = obs.counters("engine_path.")
        platform = _platform()
        oracle = [platform.evaluate(generate_test_case(c, options))
                  for c in CONFIGS]
        assert grouped == oracle
        # 6 configs collapse to 3 equivalence groups: {0, its clone 2,
        # its proportionally scaled twin 3}, {1, its clone 5}, {4}.
        assert paths.get("engine_path.evaluate.group") == 3

    def test_process_pool_matches_serial(self):
        options = GenerationOptions(loop_size=120)
        platform = _platform()
        serial = evaluate_configs(
            SerialBackend(), platform, options, CONFIGS
        )
        with ProcessPoolBackend(jobs=2) as backend:
            parallel = evaluate_configs(backend, platform, options, CONFIGS)
        assert parallel == serial


class TestSingleGroupingLayer:
    """``evaluate_configs`` fingerprints and groups a batch exactly once."""

    def test_interleaved_equivalent_configs_generate_once_per_group(self):
        # [A, B, 2A, 2B]: each config's proportionally scaled twin sits
        # in the other half of the batch, where a split by position
        # would send it to the other worker.
        a = {"ADD": 4, "BEQ": 1, "REG_DIST": 2, "B_PATTERN": 0.1}
        b = {"ADD": 1, "LD": 4, "SD": 2, "MEM_SIZE": 16, "REG_DIST": 4}
        configs = [a, b, {**a, "ADD": 8, "BEQ": 2},
                   {**b, "ADD": 2, "LD": 8, "SD": 4}]
        options = GenerationOptions(loop_size=120)
        platform = _platform()
        serial = evaluate_configs(SerialBackend(), platform, options, configs)
        with ThreadBackend(jobs=2) as backend, obs.collect() as scope:
            threaded = evaluate_configs(backend, platform, options, configs)
        counters = scope.snapshot().counters
        assert counters.get("codegen.programs") == 2
        assert counters.get("engine_path.evaluate.group") == 2
        assert threaded == serial
        oracle = [platform.evaluate(generate_test_case(c, options))
                  for c in configs]
        assert threaded == oracle

    def test_one_fingerprint_per_unique_config(self, monkeypatch):
        """Counted through every module binding, not just the wrapper's."""
        calls = []
        original = wrapper.generation_fingerprint

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
        config = MicroGradConfig(
            use_case="stress", metrics=("ipc",), core="small", tuner="gd",
            max_epochs=3, loop_size=160, instructions=3_000,
            knobs=MIX_KNOBS, seed=5, backend="serial",
        )
        result = MicroGrad(config).run()
        unique = result.tuning.unique_evaluations
        assert unique > 0
        assert len(calls) == unique


class TestFullRunBitIdentity:
    """A whole tuning run through the batched path, stat for stat."""

    def _config(self, tuner):
        return MicroGradConfig(
            use_case="stress",
            metrics=("ipc",),
            core="small",
            tuner=tuner,
            max_epochs=3,
            loop_size=160,
            instructions=3_000,
            knobs=MIX_KNOBS,
            seed=5,
        )

    @pytest.mark.parametrize("tuner", ["ga", "gd", "random"])
    def test_batched_run_equals_per_config_run(self, tuner, monkeypatch):
        obs.reset("engine_path.")
        batched = MicroGrad(self._config(tuner)).run()
        paths = obs.counters("engine_path.")
        with monkeypatch.context() as m:
            m.setattr(SimulationPlatformMixin, "evaluate_group",
                      _one_run_per_member)
            legacy = MicroGrad(self._config(tuner)).run()

        assert batched.metrics == legacy.metrics
        assert batched.knobs == legacy.knobs
        assert batched.tuning.best_metrics == legacy.tuning.best_metrics
        assert batched.tuning.loss_curve() == legacy.tuning.loss_curve()
        assert batched.tuning.requested_evaluations == \
            legacy.tuning.requested_evaluations
        assert batched.tuning.unique_evaluations == \
            legacy.tuning.unique_evaluations
        # The batched arm must have served every computed config through
        # the grouped job.
        assert paths.get("engine_path.evaluate.batch")
        assert paths.get("engine_path.evaluate.group")


class TestNativeThroughTheGroupedJob:
    """Wall-clock metrics make native execution not stats-pure: its
    ``evaluate_group`` must run the program once per member."""

    def test_composite_with_native_runs_every_member(self, monkeypatch):
        calls = []
        native_evaluate = NativeExecutionPlatform.evaluate

        def spy(self, program):
            calls.append(program)
            return native_evaluate(self, program)

        monkeypatch.setattr(NativeExecutionPlatform, "evaluate", spy)
        options = GenerationOptions(loop_size=120)
        composite = CompositePlatform(
            [_platform(), NativeExecutionPlatform(iterations=4)]
        )
        obs.reset("engine_path.")
        results = evaluate_configs(
            SerialBackend(), composite, options, CONFIGS
        )
        paths = obs.counters("engine_path.")

        assert len(calls) == len(CONFIGS) == 6
        assert paths.get("engine_path.evaluate.group") == 3
        perf = _platform()
        for config, metrics in zip(CONFIGS, results):
            expected = perf.evaluate(generate_test_case(config, options))
            assert {k: metrics[k] for k in expected} == expected
            assert "host_mips" in metrics
