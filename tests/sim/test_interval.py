"""Unit tests for the interval timing model."""

import pytest

from repro.isa.instructions import InstrClass
from repro.sim.config import LARGE_CORE, SMALL_CORE
from repro.sim.interval import (
    BOUND_NAMES,
    IntervalInputs,
    MissProfile,
    compute_cycles,
    compute_cycles_batch,
    effective_mlp,
    throughput_cpi,
)


def _counts(**kwargs):
    mapping = {
        "alu": InstrClass.INT_ALU,
        "mul": InstrClass.INT_MUL,
        "div": InstrClass.INT_DIV,
        "fp": InstrClass.FP_ADD,
        "fpdiv": InstrClass.FP_DIV,
        "br": InstrClass.BRANCH,
        "ld": InstrClass.LOAD,
        "st": InstrClass.STORE,
    }
    return {mapping[k]: v for k, v in kwargs.items()}


class TestThroughputBounds:
    def test_width_bound(self):
        bounds = throughput_cpi(SMALL_CORE, _counts(alu=100), 100)
        assert bounds["width"] == pytest.approx(1 / 3)

    def test_alu_bound_counts_branches(self):
        bounds = throughput_cpi(SMALL_CORE, _counts(alu=50, br=50), 100)
        assert bounds["alu"] == pytest.approx(100 / (3 * 100))

    def test_div_occupancy_inflates_simd_bound(self):
        light = throughput_cpi(SMALL_CORE, _counts(mul=100), 100)
        heavy = throughput_cpi(SMALL_CORE, _counts(div=100), 100)
        assert heavy["simd"] > light["simd"] * 5

    def test_mem_port_bound(self):
        bounds = throughput_cpi(LARGE_CORE, _counts(ld=60, st=40), 100)
        assert bounds["mem_ports"] == pytest.approx(100 / (4 * 100))


class TestEffectiveMlp:
    def test_serial_code_has_unit_mlp(self):
        assert effective_mlp(SMALL_CORE, dependency_distance=1.0) == 1.0

    def test_mlp_grows_with_dependency_distance(self):
        low = effective_mlp(SMALL_CORE, 2.0)
        high = effective_mlp(SMALL_CORE, 8.0)
        assert high > low

    def test_mlp_capped_by_lsq(self):
        assert effective_mlp(SMALL_CORE, 100.0) <= SMALL_CORE.lsq / 4.0

    def test_streams_help_sublinearly(self):
        one = effective_mlp(LARGE_CORE, 4.0, parallel_streams=1)
        four = effective_mlp(LARGE_CORE, 4.0, parallel_streams=4)
        assert one < four < one * 4


class TestComputeCycles:
    def _cycles(self, core=SMALL_CORE, misses=None, **kwargs):
        defaults = dict(
            total_instructions=1000,
            class_counts=_counts(alu=1000),
            dep_cycles_per_iteration=10.0,
            loop_size=100,
            misses=misses or MissProfile(),
        )
        defaults.update(kwargs)
        result = compute_cycles(core, **defaults)
        return result.cycles, result.breakdown

    def test_base_cycles_at_least_width_bound(self):
        cycles, _ = self._cycles()
        assert cycles >= 1000 / SMALL_CORE.front_end_width

    def test_mispredicts_add_penalty(self):
        clean, _ = self._cycles()
        dirty, breakdown = self._cycles(
            misses=MissProfile(branch_mispredicts=50)
        )
        assert dirty == pytest.approx(
            clean + 50 * SMALL_CORE.mispredict_penalty
        )
        assert breakdown["branch_mispredict"] == 50 * SMALL_CORE.mispredict_penalty

    def test_load_misses_add_overlapped_penalty(self):
        clean, _ = self._cycles()
        missy, _ = self._cycles(misses=MissProfile(load_l2_misses=20))
        assert missy > clean
        # MLP overlap means less than the full serial latency.
        assert missy - clean < 20 * SMALL_CORE.memory_latency

    def test_store_misses_cheaper_than_load_misses(self):
        loads, _ = self._cycles(misses=MissProfile(load_l2_misses=20))
        stores, _ = self._cycles(misses=MissProfile(store_l2_misses=20))
        assert stores < loads

    def test_dependency_bound_can_dominate(self):
        result = compute_cycles(
            SMALL_CORE,
            total_instructions=1000,
            class_counts=_counts(alu=1000),
            dep_cycles_per_iteration=500.0,
            loop_size=100,
            misses=MissProfile(),
        )
        assert result.binding_bound == "dependency"
        assert result.cycles >= 1000 / 100 * 500 * 0.99

    def test_breakdown_is_purely_numeric_and_sums_to_cycles(self):
        result = compute_cycles(
            SMALL_CORE,
            total_instructions=1000,
            class_counts=_counts(alu=900, ld=100),
            dep_cycles_per_iteration=10.0,
            loop_size=100,
            misses=MissProfile(branch_mispredicts=5, load_l2_misses=7),
        )
        assert all(
            isinstance(v, (int, float)) and not isinstance(v, str)
            for v in result.breakdown.values()
        )
        assert sum(result.breakdown.values()) == pytest.approx(result.cycles)
        assert result.binding_bound in BOUND_NAMES + ("dependency",)

    def test_icache_misses_stall_frontend(self):
        clean, _ = self._cycles()
        stalled, _ = self._cycles(misses=MissProfile(icache_l1_misses=30))
        assert stalled == pytest.approx(clean + 30 * SMALL_CORE.l2.latency)

    def test_zero_instructions_rejected(self):
        with pytest.raises(ValueError):
            compute_cycles(
                SMALL_CORE, 0, _counts(alu=1), 1.0, 100, MissProfile()
            )


class TestComputeCyclesBatch:
    """Stage 3 maps compute_cycles over the batch, passing every field."""

    def _batch(self):
        return [
            IntervalInputs(
                core=core,
                total_instructions=total,
                class_counts=counts,
                dep_cycles_per_iteration=dep,
                loop_size=loop,
                misses=misses,
                dependency_distance=dd,
                parallel_streams=ps,
            )
            for core in (SMALL_CORE, LARGE_CORE)
            for total, counts, dep, loop, misses, dd, ps in [
                (1000, _counts(alu=1000), 10.0, 100, MissProfile(), 4.0, 1),
                (4800, _counts(alu=2000, ld=1400, st=700, br=700),
                 37.5, 160, MissProfile(branch_mispredicts=111,
                                        icache_l1_misses=13,
                                        load_l1_misses=222,
                                        load_l2_misses=77,
                                        store_l1_misses=55,
                                        store_l2_misses=11,
                                        dtlb_misses=29), 2.5, 3),
                (900, _counts(div=300, fpdiv=300, fp=300), 5000.0, 90,
                 MissProfile(icache_l2_misses=7), 1.0, 1),
                (64, _counts(ld=64), 1.0, 1, MissProfile(dtlb_misses=64),
                 16.0, 9),
            ]
        ]

    def test_batch_bit_identical_to_scalar(self):
        batch = self._batch()
        batched = compute_cycles_batch(batch)
        for inputs, result in zip(batch, batched):
            scalar = compute_cycles(
                inputs.core,
                inputs.total_instructions,
                inputs.class_counts,
                inputs.dep_cycles_per_iteration,
                inputs.loop_size,
                inputs.misses,
                dependency_distance=inputs.dependency_distance,
                parallel_streams=inputs.parallel_streams,
            )
            assert result.cycles == scalar.cycles  # exact float equality
            assert result.breakdown == scalar.breakdown
            assert result.binding_bound == scalar.binding_bound

    def test_empty_batch(self):
        assert compute_cycles_batch([]) == []

    def test_batch_rejects_nonpositive_instructions(self):
        bad = self._batch()
        bad[1].total_instructions = 0
        with pytest.raises(ValueError):
            compute_cycles_batch(bad)
