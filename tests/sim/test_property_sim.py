"""Property-based tests: simulator contracts over the whole knob lattice."""

from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.codegen.wrapper import GenerationOptions, generate_test_case
from repro.sim import LARGE_CORE, SMALL_CORE, Simulator
from repro.sim.artifact import TraceArtifactCache
from repro.sim.events import simulate_branches_batch, simulate_memory_batch
from repro.sim.trace import ExpandedTrace
from repro.tuning.knobs import (
    B_PATTERN_VALUES,
    INSTRUCTION_FRACTIONS,
    MEM_SIZE_VALUES,
    MEM_STRIDE_VALUES,
    MEM_TEMP1_VALUES,
    MEM_TEMP2_VALUES,
    MIX_KNOB_NAMES,
    REG_DIST_VALUES,
)

# Small footprints keep the adaptive warmup short so each example is fast.
fast_lattice_config = st.fixed_dictionaries(
    {
        **{name: st.sampled_from(INSTRUCTION_FRACTIONS)
           for name in MIX_KNOB_NAMES},
        "REG_DIST": st.sampled_from(REG_DIST_VALUES),
        "MEM_SIZE": st.sampled_from(MEM_SIZE_VALUES[:6]),
        "MEM_STRIDE": st.sampled_from(MEM_STRIDE_VALUES),
        "MEM_TEMP1": st.sampled_from(MEM_TEMP1_VALUES[:6]),
        "MEM_TEMP2": st.sampled_from(MEM_TEMP2_VALUES),
        "B_PATTERN": st.sampled_from(B_PATTERN_VALUES),
    }
)


def _branch_only_trace(pcs, outcomes) -> ExpandedTrace:
    n = len(pcs)
    return ExpandedTrace(
        iterations=n, loop_size=1, line_bytes=64,
        mem_pcs=np.empty(0, dtype=np.int64),
        mem_lines=np.empty(0, dtype=np.int64),
        mem_is_store=np.empty(0, dtype=bool),
        branch_pcs=np.asarray(pcs, dtype=np.int64),
        branch_outcomes=np.asarray(outcomes, dtype=bool),
        class_counts={},
    )


def _memory_only_trace(lines, pcs, stores) -> ExpandedTrace:
    n = len(lines)
    return ExpandedTrace(
        iterations=n, loop_size=1, line_bytes=64,
        mem_pcs=np.asarray(pcs, dtype=np.int64),
        mem_lines=np.asarray(lines, dtype=np.int64),
        mem_is_store=np.asarray(stores, dtype=bool),
        branch_pcs=np.empty(0, dtype=np.int64),
        branch_outcomes=np.empty(0, dtype=bool),
        class_counts={},
    )


class TestSimulatorContracts:
    @given(fast_lattice_config, st.sampled_from(["small", "large"]))
    @settings(max_examples=25, deadline=None)
    def test_metrics_always_bounded(self, config, core_name):
        core = SMALL_CORE if core_name == "small" else LARGE_CORE
        program = generate_test_case(config, GenerationOptions(loop_size=80))
        stats = Simulator(core).run(program, instructions=3_000)
        metrics = stats.metrics()
        assert 0.0 < metrics["ipc"] <= core.front_end_width
        for key in ("l1i_hit_rate", "l1d_hit_rate", "l2_hit_rate",
                    "mispredict_rate", "dtlb_miss_rate"):
            assert 0.0 <= metrics[key] <= 1.0, key
        distribution = sum(
            metrics[g] for g in ("integer", "float", "load", "store",
                                 "branch")
        )
        assert 0.99 <= distribution <= 1.01 or distribution == 0.0

    @given(fast_lattice_config)
    @settings(max_examples=15, deadline=None)
    def test_simulation_is_deterministic(self, config):
        program = generate_test_case(config, GenerationOptions(loop_size=80))
        sim = Simulator(SMALL_CORE)
        a = sim.run(program, instructions=3_000)
        b = sim.run(program, instructions=3_000)
        assert a.metrics() == b.metrics()

    @given(fast_lattice_config)
    @settings(max_examples=15, deadline=None)
    def test_cycles_cover_all_breakdown_components(self, config):
        program = generate_test_case(config, GenerationOptions(loop_size=80))
        stats = Simulator(SMALL_CORE).run(program, instructions=3_000)
        # The breakdown is purely numeric (the binding bound travels in
        # its own field), so summing the values needs no filtering.
        total = sum(stats.breakdown.values())
        assert total > 0
        assert abs(total - stats.cycles) / stats.cycles < 1e-6
        assert isinstance(stats.binding_bound, str) and stats.binding_bound

    @given(fast_lattice_config, st.sampled_from([
        base + suffix
        for base in ("small", "large")
        for suffix in ("", "-bimodal", "-tournament")
    ]))
    @settings(max_examples=15, deadline=None)
    def test_event_engines_agree(self, config, core_name):
        base = LARGE_CORE if core_name.startswith("large") else SMALL_CORE
        core = replace(base, name=core_name)
        program = generate_test_case(config, GenerationOptions(loop_size=80))
        reference = Simulator(core).run(
            program, instructions=3_000, engine="reference"
        )
        vectorized = Simulator(core).run(
            program, instructions=3_000, engine="vectorized"
        )
        assert reference == vectorized  # full SimStats equality

    @given(fast_lattice_config, st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_run_many_config_batch_bit_identical(self, config, seed):
        program = generate_test_case(
            config, GenerationOptions(loop_size=80, seed=seed % 97)
        )
        cores = [
            SMALL_CORE,
            LARGE_CORE,
            replace(SMALL_CORE, name="small-tournament"),
            replace(LARGE_CORE, name="large-bimodal"),
            SMALL_CORE,
        ]
        batched = Simulator.run_many(
            cores, program, instructions=3_000,
            artifact_cache=TraceArtifactCache(),
        )
        batches_of_one = [
            Simulator.run_many(
                [core], program, instructions=3_000,
                artifact_cache=TraceArtifactCache(),
            )[0]
            for core in cores
        ]
        assert batched == batches_of_one  # full SimStats equality

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 900),
           st.sampled_from(["small-tournament", "large-tournament",
                            "small-bimodal"]))
    @settings(max_examples=20, deadline=None)
    def test_tournament_and_bimodal_engines_agree(self, seed, n, name):
        rng = np.random.default_rng(seed)
        base = LARGE_CORE if name.startswith("large") else SMALL_CORE
        core = replace(base, name=name)
        trace = _branch_only_trace(
            rng.integers(0, 1 << 13, n) * 4,
            rng.random(n) < rng.random(),
        )
        warmup = int(rng.integers(0, n + 2))
        assert simulate_branches_batch(
            [core], trace, [warmup], engine="reference"
        ) == simulate_branches_batch(
            [core], trace, [warmup], engine="vectorized"
        )

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 700),
           st.sampled_from(["small", "large"]))
    @settings(max_examples=20, deadline=None)
    def test_aperiodic_memory_engines_agree(self, seed, n, core_name):
        rng = np.random.default_rng(seed)
        core = SMALL_CORE if core_name == "small" else LARGE_CORE
        trace = _memory_only_trace(
            rng.integers(0, 6000, n),
            rng.integers(0, 64, n) * 4,
            rng.random(n) < 0.3,
        )
        warmup = int(rng.integers(0, n + 2))
        assert simulate_memory_batch(
            [core], trace, [warmup], engine="reference"
        ) == simulate_memory_batch(
            [core], trace, [warmup], engine="vectorized"
        )

    @given(fast_lattice_config)
    @settings(max_examples=10, deadline=None)
    def test_power_is_finite_and_positive(self, config):
        assume(sum(config[k] for k in MIX_KNOB_NAMES) > 0)
        from repro.power import PowerModel

        program = generate_test_case(config, GenerationOptions(loop_size=80))
        stats = Simulator(LARGE_CORE).run(program, instructions=3_000)
        report = PowerModel(LARGE_CORE).estimate(stats)
        assert 0.0 < report.dynamic_w < 20.0
