"""Generation-batched evaluation: bit-identity with the per-config path.

The grouped fast path (generation fingerprints → one generation + one
config-batched shared simulation pass per equivalence group) is a pure
dispatch optimisation.  These tests pin the contract end to end: the
job layer, a whole GA tuning run, and the engine-path counters that
prove the batch actually served the work.
"""

import pytest

from repro import obs
from repro.codegen.wrapper import GenerationOptions
from repro.core.config import MicroGradConfig
from repro.core.framework import MicroGrad
from repro.core.platform import (
    PerformancePlatform,
    SimulationPlatformMixin,
)
from repro.exec.backend import ProcessPoolBackend, SerialBackend
from repro.exec.jobs import evaluate_configs, evaluate_configs_stream
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


def _per_config(monkeypatch):
    """Force the legacy per-config path for a comparison arm."""
    monkeypatch.setattr(
        SimulationPlatformMixin, "supports_config_batch", False
    )


class TestEvaluateConfigsGrouped:
    def test_grouped_matches_per_config_bitwise(self, monkeypatch):
        options = GenerationOptions(loop_size=120)
        obs.reset("engine_path.")
        grouped = evaluate_configs(
            SerialBackend(), _platform(), options, CONFIGS
        )
        paths = obs.counters("engine_path.")
        with monkeypatch.context() as m:
            _per_config(m)
            legacy = evaluate_configs(
                SerialBackend(), _platform(), options, CONFIGS
            )
        assert grouped == legacy
        # 6 configs collapse to 3 equivalence groups: {0, its clone 2,
        # its proportionally scaled twin 3}, {1, its clone 5}, {4}.
        assert paths.get("engine_path.evaluate.group") == 3
        assert not paths.get("engine_path.evaluate.single")

    def test_stream_matches_batch(self):
        options = GenerationOptions(loop_size=120)
        platform = _platform()
        batch = evaluate_configs(
            SerialBackend(), platform, options, CONFIGS
        )
        stream = list(evaluate_configs_stream(
            SerialBackend(), platform, options, CONFIGS
        ))
        assert stream == batch

    def test_process_pool_matches_serial(self):
        options = GenerationOptions(loop_size=120)
        platform = _platform()
        serial = evaluate_configs(
            SerialBackend(), platform, options, CONFIGS
        )
        with ProcessPoolBackend(jobs=2, batch_group_min=2) as backend:
            parallel = evaluate_configs(backend, platform, options, CONFIGS)
        assert parallel == serial


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
            _per_config(m)
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
        # the grouped path — the per-config job never ran.
        assert paths.get("engine_path.evaluate.batch")
        assert paths.get("engine_path.evaluate.group")
        assert not paths.get("engine_path.evaluate.single")
