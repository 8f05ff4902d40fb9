"""Integration-level tests of the full simulator on generated programs."""

import pytest

from repro.codegen import generate_test_case
from repro.codegen.wrapper import GenerationOptions
from repro.sim import LARGE_CORE, SMALL_CORE, Simulator
from repro.sim.artifact import MAX_MEASURE_ITERATIONS, MAX_WARMUP_ITERATIONS
from repro.sim.stats import METRIC_KEYS


def _knobs(**overrides):
    base = dict(ADD=5, MUL=1, FADDD=1, FMULD=1, BEQ=1, BNE=1,
                LD=3, LW=1, SD=1, SW=1,
                REG_DIST=4, MEM_SIZE=32, MEM_STRIDE=16,
                MEM_TEMP1=4, MEM_TEMP2=2, B_PATTERN=0.2)
    base.update(overrides)
    return base


def _run(core=SMALL_CORE, instructions=12_000, **overrides):
    program = generate_test_case(_knobs(**overrides))
    return Simulator(core).run(program, instructions=instructions)


class TestBasicContract:
    def test_metrics_complete(self):
        metrics = _run().metrics()
        for key in METRIC_KEYS:
            assert key in metrics

    def test_rates_within_bounds(self):
        stats = _run()
        for rate in (stats.l1i_hit_rate, stats.l1d_hit_rate,
                     stats.l2_hit_rate, stats.mispredict_rate):
            assert 0.0 <= rate <= 1.0

    def test_ipc_bounded_by_width(self):
        stats = _run(core=LARGE_CORE)
        assert 0.0 < stats.ipc <= LARGE_CORE.front_end_width

    def test_deterministic(self):
        a = _run()
        b = _run()
        assert a.ipc == b.ipc
        assert a.l1d_hit_rate == b.l1d_hit_rate

    def test_summary_mentions_core(self):
        assert "[small]" in _run().summary()

    def test_instruction_budget_respected(self):
        stats = _run(instructions=30_000)
        # Measured window excludes warmup but scales with the budget.
        assert 15_000 < stats.instructions <= 30_000


class TestKnobSensitivities:
    """The simulator must respond to knobs the way real cores do —
    these monotone trends are what gradient tuning exploits."""

    def test_footprint_degrades_l1d_hit_rate(self):
        hits = [
            _run(MEM_SIZE=ms, MEM_TEMP1=1, MEM_TEMP2=1).l1d_hit_rate
            for ms in (4, 64, 512)
        ]
        assert hits[0] > hits[1] >= hits[2]

    def test_footprint_degrades_ipc(self):
        small = _run(MEM_SIZE=4).ipc
        large = _run(MEM_SIZE=1024, MEM_TEMP1=1, MEM_TEMP2=1).ipc
        assert small > large

    def test_branch_randomness_raises_mispredicts(self):
        rates = [
            _run(B_PATTERN=bp).mispredict_rate for bp in (0.0, 0.5, 1.0)
        ]
        assert rates[0] < rates[1] <= rates[2] + 0.02

    def test_dependency_distance_raises_ipc(self):
        assert _run(REG_DIST=1).ipc < _run(REG_DIST=8).ipc

    def test_temporal_reuse_raises_hit_rate(self):
        stream = _run(MEM_SIZE=512, MEM_TEMP1=1, MEM_TEMP2=1).l1d_hit_rate
        reuse = _run(MEM_SIZE=512, MEM_TEMP1=8, MEM_TEMP2=8).l1d_hit_rate
        assert reuse > stream

    def test_small_stride_exploits_spatial_locality(self):
        dense = _run(MEM_SIZE=512, MEM_STRIDE=8, MEM_TEMP1=1,
                     MEM_TEMP2=1).l1d_hit_rate
        sparse = _run(MEM_SIZE=512, MEM_STRIDE=64, MEM_TEMP1=1,
                      MEM_TEMP2=1).l1d_hit_rate
        assert dense > sparse

    def test_prefetcher_helps_streaming_on_large_core(self):
        # Line-aligned streaming (stride 64) so the per-PC line stride is
        # integral and the reference-prediction table can confirm it.
        knobs = dict(MEM_SIZE=2048, MEM_STRIDE=64, MEM_TEMP1=1, MEM_TEMP2=1)
        small = _run(core=SMALL_CORE, **knobs)
        large = _run(core=LARGE_CORE, **knobs)
        assert large.l2_hit_rate > small.l2_hit_rate
        assert large.extra["prefetch_hits"] > 0


class TestCrossCoreBehaviour:
    def test_large_core_wins_on_compute(self):
        knobs = dict(MUL=0, FADDD=0, FMULD=0, BEQ=0, BNE=0, LD=0, LW=0,
                     SD=0, SW=0, ADD=10, REG_DIST=10, B_PATTERN=0.0)
        small = _run(core=SMALL_CORE, **knobs)
        large = _run(core=LARGE_CORE, **knobs)
        assert large.ipc > small.ipc * 1.3

    def test_breakdown_components_nonnegative(self):
        stats = _run()
        for key, value in stats.breakdown.items():
            assert value >= 0.0, key
        assert stats.binding_bound


class TestAdaptiveWindow:
    def test_midsize_footprint_extends_iterations(self):
        program = generate_test_case(
            _knobs(MEM_SIZE=256, MEM_TEMP1=1, MEM_TEMP2=1)
        )
        stats = Simulator(SMALL_CORE).run(program, instructions=5_000)
        # 5k instructions is ~10 iterations; covering 256KB needs far more.
        assert stats.extra["iterations"] > 20

    def test_huge_footprint_does_not_explode_budget(self):
        program = generate_test_case(
            _knobs(MEM_SIZE=2048, MEM_TEMP1=1, MEM_TEMP2=1)
        )
        stats = Simulator(SMALL_CORE).run(program, instructions=5_000)
        assert stats.extra["warmup_iterations"] <= MAX_WARMUP_ITERATIONS
        assert stats.extra["iterations"] <= MAX_MEASURE_ITERATIONS


class TestCodeFootprint:
    def test_big_loop_pressures_icache_on_small_core(self):
        big = generate_test_case(
            _knobs(), GenerationOptions(loop_size=5000)
        )
        small_loop = generate_test_case(_knobs())
        sim = Simulator(SMALL_CORE)
        assert (
            sim.run(big, instructions=12_000).l1i_hit_rate
            < sim.run(small_loop, instructions=12_000).l1i_hit_rate
        )
