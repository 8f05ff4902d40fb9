"""Instruction-cache engines: closed form and batch vs the per-set loop.

Icache events ride the config-batched shared pass.  The reference
per-set loop (:func:`cyclic_code_hits`) is the oracle; the closed form
over the at-most-two distinct per-set line counts and the key-dedup
batch entry point must both be bit-identical to it for every geometry,
footprint and iteration count, and a batch of N cores must equal N
batches of one.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.events as events_mod
from repro import obs
from repro.codegen.wrapper import GenerationOptions, generate_test_case
from repro.sim import LARGE_CORE, SMALL_CORE
from repro.sim.artifact import TraceArtifact
from repro.sim.cache import cyclic_code_hits, cyclic_code_hits_closed
from repro.sim.config import CacheGeometry
from repro.sim.events import simulate_icache_batch

KNOBS = dict(ADD=5, MUL=1, FADDD=1, BEQ=1, LD=2, SD=1,
             REG_DIST=4, MEM_SIZE=16, B_PATTERN=0.3)

WARMUP_FRACTIONS = (0.0, 0.2, 1.0)

#: Geometry samples keep ``size >= assoc * line_bytes`` so ``num_sets``
#: stays valid for every combination.
_L1I_SIZES = [1024, 4 * 1024, 16 * 1024, 64 * 1024]
_L2_SIZES = [32 * 1024, 256 * 1024, 1024 * 1024]
_ASSOCS = [1, 2, 4, 8]


def icache_events(core, code_bytes, iterations, engine=None):
    """One core's icache events: a batch of one."""
    [result] = simulate_icache_batch(
        [core], code_bytes, [iterations], engine=engine
    )
    return result


class TestClosedForm:
    @given(
        num_lines=st.integers(min_value=-2, max_value=5000),
        num_sets=st.integers(min_value=1, max_value=600),
        assoc=st.integers(min_value=1, max_value=16),
        iterations=st.integers(min_value=-1, max_value=100_000),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_per_set_loop(
        self, num_lines, num_sets, assoc, iterations
    ):
        assert cyclic_code_hits_closed(
            num_lines, num_sets, assoc, iterations
        ) == cyclic_code_hits(num_lines, num_sets, assoc, iterations)


class TestCrossEngine:
    @given(
        l1i_size=st.sampled_from(_L1I_SIZES),
        l1i_assoc=st.sampled_from(_ASSOCS),
        l2_size=st.sampled_from(_L2_SIZES),
        l2_assoc=st.sampled_from(_ASSOCS),
        code_bytes=st.integers(min_value=0, max_value=1 << 21),
        iterations=st.integers(min_value=0, max_value=50_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_all_engines_agree(
        self, l1i_size, l1i_assoc, l2_size, l2_assoc, code_bytes, iterations
    ):
        core = replace(
            SMALL_CORE,
            l1i=CacheGeometry(l1i_size, l1i_assoc, latency=2),
            l2=CacheGeometry(l2_size, l2_assoc, latency=12),
        )
        reference = icache_events(
            core, code_bytes, iterations, engine="reference"
        )
        vectorized = icache_events(
            core, code_bytes, iterations, engine="vectorized"
        )
        # A duplicate-key batch dedups without changing either result.
        batch_vec = simulate_icache_batch(
            [core, core], code_bytes, [iterations] * 2, engine="vectorized"
        )
        batch_ref = simulate_icache_batch(
            [core, core], code_bytes, [iterations] * 2, engine="reference"
        )
        assert batch_vec == batch_ref == [reference] * 2
        assert reference == vectorized

    @pytest.mark.parametrize("warmup_fraction", WARMUP_FRACTIONS)
    def test_artifact_window_engines_agree(self, warmup_fraction):
        """Real schedules: every warmup boundary, both cores, all engines."""
        program = generate_test_case(KNOBS, GenerationOptions(seed=5))
        artifact = TraceArtifact.build(program, 8_000)
        cores = [SMALL_CORE, LARGE_CORE]
        iters = [
            artifact.schedule(core, warmup_fraction)[1] for core in cores
        ]
        singles_ref = [
            icache_events(core, artifact.code_bytes, m, engine="reference")
            for core, m in zip(cores, iters)
        ]
        singles_vec = [
            icache_events(core, artifact.code_bytes, m, engine="vectorized")
            for core, m in zip(cores, iters)
        ]
        batch = simulate_icache_batch(
            cores, artifact.code_bytes, iters, engine="vectorized"
        )
        assert singles_ref == singles_vec == batch


class TestBatchEntryPoint:
    CORES = [
        SMALL_CORE,
        LARGE_CORE,
        SMALL_CORE,  # duplicate key: must dedupe, not recompute
        replace(SMALL_CORE, l1i=replace(SMALL_CORE.l1i, assoc=2)),
        SMALL_CORE,
    ]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="iteration counts"):
            simulate_icache_batch([SMALL_CORE], 4096, [10, 20])

    def test_duplicate_keys_computed_once(self, monkeypatch):
        calls = []

        def counting(num_lines, num_sets, assoc, iterations):
            calls.append((num_sets, assoc, iterations))
            return cyclic_code_hits_closed(
                num_lines, num_sets, assoc, iterations
            )

        monkeypatch.setattr(
            events_mod, "cyclic_code_hits_closed", counting
        )
        # Small footprint: fits in every L2, so each distinct key costs
        # exactly one L1I-side call.
        results = simulate_icache_batch(
            self.CORES, 4096, [500] * len(self.CORES), engine="vectorized"
        )
        distinct = {
            events_mod.icache_event_key(core) for core in self.CORES
        }
        assert len(calls) == len(distinct)
        assert results[0] == results[2] == results[4]

    def test_artifact_batch_accessor_fills_memos_identically(self):
        program = generate_test_case(KNOBS, GenerationOptions(seed=7))
        batched = TraceArtifact.build(program, 8_000)
        single = TraceArtifact.build(program, 8_000)
        iters = [batched.schedule(core, 0.2)[1] for core in self.CORES]
        batch = batched.icache_events_batch(self.CORES, iters)
        singles = [
            single.icache_events_batch([core], [m])[0]
            for core, m in zip(self.CORES, iters)
        ]
        assert batch == singles
        assert batched._icache == single._icache

    def test_paths_recorded(self):
        obs.reset("engine_path.")
        icache_events(SMALL_CORE, 4096, 100, engine="reference")
        icache_events(SMALL_CORE, 4096, 100, engine="vectorized")
        simulate_icache_batch([SMALL_CORE, LARGE_CORE], 4096, [100, 100])
        # One count per batch call, whatever its engine or size.
        assert obs.counters("engine_path.") == {"engine_path.icache.batch": 3}
