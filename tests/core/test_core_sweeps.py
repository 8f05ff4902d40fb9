"""Core-configuration sweeps through the batched simulator pipeline."""

from dataclasses import replace

import pytest

from repro.codegen import generate_test_case
from repro.core.config import MicroGradConfig
from repro.core.platform import (
    CompositePlatform,
    NativeExecutionPlatform,
    PerformancePlatform,
    PowerPlatform,
)
from repro.core.usecases.bottleneck import CoreBottleneckAnalysis, find_knee
from repro.core.usecases.sensitivity import (
    CORE_PARAMETER_LATTICE,
    CoreSensitivityAnalysis,
)
from repro.core.usecases.stress import StressTestingUseCase
from repro.sim import LARGE_CORE, SMALL_CORE

KNOBS = dict(ADD=5, MUL=1, FADDD=1, FMULD=1, BEQ=1, BNE=1,
             LD=3, LW=1, SD=1, SW=1,
             REG_DIST=4, MEM_SIZE=256, MEM_STRIDE=64,
             MEM_TEMP1=2, MEM_TEMP2=1, B_PATTERN=0.2)


@pytest.fixture(scope="module")
def program():
    return generate_test_case(KNOBS)


class TestCoreSensitivity:
    @pytest.fixture(scope="class")
    def ranking(self, program):
        return CoreSensitivityAnalysis(
            program=program, base_core=SMALL_CORE, instructions=6_000
        ).run()

    def test_every_parameter_screened(self, ranking):
        assert {r.knob for r in ranking} == set(CORE_PARAMETER_LATTICE)

    def test_sorted_by_swing(self, ranking):
        swings = [r.swing for r in ranking]
        assert swings == sorted(swings, reverse=True)

    def test_samples_cover_the_lattice(self, ranking):
        for result in ranking:
            values = [v for v, _ in result.samples]
            assert values == list(CORE_PARAMETER_LATTICE[result.knob])

    def test_restricted_parameter_set(self, program):
        ranking = CoreSensitivityAnalysis(
            program=program,
            base_core=SMALL_CORE,
            parameters={"front_end_width": (1, 8)},
            instructions=6_000,
        ).run()
        assert len(ranking) == 1
        assert ranking[0].knob == "front_end_width"
        # A 1-wide front end must throttle IPC relative to 8-wide.
        assert ranking[0].swing > 0


class TestCoreBottleneck:
    @pytest.fixture(scope="class")
    def sweep(self, program):
        analysis = CoreBottleneckAnalysis(
            program=program,
            base_core=SMALL_CORE,
            parameter="front_end_width",
            values=[1, 2, 3, 4, 8],
            instructions=6_000,
        )
        analysis.run()
        return analysis

    def test_one_point_per_value(self, sweep):
        assert [p.value for p in sweep.points] == [1, 2, 3, 4, 8]

    def test_width_eventually_stops_binding(self, sweep):
        curve = dict(sweep.response_curve())
        assert curve[8] >= curve[1]

    def test_knee_requires_run(self, program):
        analysis = CoreBottleneckAnalysis(
            program=program, base_core=SMALL_CORE,
            parameter="rob", values=[40],
        )
        with pytest.raises(RuntimeError):
            analysis.knee()

    def test_matches_per_core_runs(self, program, sweep):
        from repro.sim import Simulator

        core = replace(SMALL_CORE, front_end_width=2)
        solo = Simulator(core).run(program, instructions=6_000)
        assert sweep.points[1].metrics == solo.metrics()

    def test_find_knee_flags_largest_step(self):
        from repro.core.usecases.bottleneck import BottleneckPoint

        points = [
            BottleneckPoint(value=v, metrics={"ipc": m})
            for v, m in [(1, 1.0), (2, 1.1), (3, 2.9), (4, 3.0)]
        ]
        assert find_knee(points, "ipc").value == 3


class TestStressAcrossCores:
    def test_sweep_matches_input_order(self, program):
        usecase = StressTestingUseCase(
            MicroGradConfig(use_case="stress", metrics=("ipc",),
                            instructions=6_000)
        )
        cores = [SMALL_CORE, LARGE_CORE, replace(SMALL_CORE, rob=80)]
        results = usecase.evaluate_across_cores(program, cores)
        assert [core for core, _ in results] == cores
        for _, metrics in results:
            assert metrics["ipc"] > 0


class TestCompositeArtifactSharing:
    def test_members_share_one_artifact(self, program, artifact_builds):
        composite = CompositePlatform([
            PerformancePlatform(SMALL_CORE, instructions=6_000),
            PowerPlatform(SMALL_CORE, instructions=6_000),
        ])
        composite.evaluate(program)
        # Two simulating members, one shared budget: one artifact build.
        assert artifact_builds == [6_000]

    def test_composite_metrics_match_isolated_platforms(self, program):
        perf = PerformancePlatform(SMALL_CORE, instructions=6_000)
        power = PowerPlatform(SMALL_CORE, instructions=6_000)
        composite = CompositePlatform([
            PerformancePlatform(SMALL_CORE, instructions=6_000),
            PowerPlatform(SMALL_CORE, instructions=6_000),
        ])
        merged = composite.evaluate(program)
        expected = perf.evaluate(program)
        expected.update(power.evaluate(program))
        assert merged == expected

    def test_non_simulating_members_still_work(self, program):
        composite = CompositePlatform([
            PerformancePlatform(SMALL_CORE, instructions=6_000),
            NativeExecutionPlatform(iterations=4),
        ])
        merged = composite.evaluate(program)
        assert "ipc" in merged and "host_mips" in merged
