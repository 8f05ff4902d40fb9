"""Unit tests for the evaluation platforms."""

import pytest

from repro.codegen import generate_test_case
from repro.codegen.wrapper import GenerationOptions
from repro.core.platform import (
    CompositePlatform,
    EvaluationPlatform,
    PerformancePlatform,
    PowerPlatform,
    platform_for,
)
from repro.sim import LARGE_CORE, SMALL_CORE
from repro.sim.artifact import attach_artifact_store, detach_artifact_store
from repro.sim.stats import METRIC_KEYS


@pytest.fixture(scope="module")
def program():
    return generate_test_case(
        dict(ADD=5, MUL=1, BEQ=1, LD=2, SD=1, REG_DIST=4,
             MEM_SIZE=32, MEM_STRIDE=16, B_PATTERN=0.2)
    )


class TestPerformancePlatform:
    def test_provides_canonical_metrics(self, program):
        metrics = PerformancePlatform(SMALL_CORE, instructions=6_000).evaluate(
            program
        )
        for key in METRIC_KEYS:
            assert key in metrics

    def test_implements_protocol(self):
        assert isinstance(
            PerformancePlatform(SMALL_CORE), EvaluationPlatform
        )

    def test_name_encodes_core(self):
        assert PerformancePlatform(LARGE_CORE).name == "perf:large"


class TestPowerPlatform:
    def test_adds_power_metrics(self, program):
        metrics = PowerPlatform(SMALL_CORE, instructions=6_000).evaluate(program)
        assert metrics["dynamic_power"] > 0
        assert metrics["total_power"] > metrics["dynamic_power"]
        assert "ipc" in metrics


class TestCompositePlatform:
    def test_merges_metric_dicts(self, program):
        composite = CompositePlatform(
            [
                PerformancePlatform(SMALL_CORE, instructions=6_000),
                PowerPlatform(SMALL_CORE, instructions=6_000),
            ]
        )
        metrics = composite.evaluate(program)
        assert "ipc" in metrics
        assert "dynamic_power" in metrics

    @pytest.mark.parametrize("members", [
        [PerformancePlatform],
        [PerformancePlatform, PowerPlatform],
    ], ids=["perf", "perf+power"])
    def test_persists_each_artifact_to_the_attached_store(
        self, tmp_path, members
    ):
        composite = CompositePlatform(
            [cls(SMALL_CORE, instructions=4_000) for cls in members]
        )
        detach_artifact_store()
        store = attach_artifact_store(tmp_path)
        try:
            for n in range(3):
                composite.evaluate(generate_test_case(
                    dict(ADD=3, LD=2, SD=1, REG_DIST=n + 2, MEM_SIZE=8),
                    GenerationOptions(loop_size=70 + n),
                ))
            # One entry per new program, however many members shared it.
            assert len(store) == 3
        finally:
            detach_artifact_store()

    def test_empty_composite_rejected(self):
        with pytest.raises(ValueError):
            CompositePlatform([])

    def test_name_joins_members(self):
        composite = CompositePlatform(
            [PerformancePlatform(SMALL_CORE), PowerPlatform(SMALL_CORE)]
        )
        assert composite.name == "perf:small+power:small"


class TestFactory:
    def test_by_name(self):
        assert platform_for("small").core is SMALL_CORE

    def test_with_power(self):
        assert isinstance(platform_for("large", with_power=True), PowerPlatform)

    def test_accepts_config_object(self):
        assert platform_for(LARGE_CORE).core is LARGE_CORE
