"""Data-cache and prefetcher behaviour of the stage-2 memory engines,
and the I-cache steady-state model.

Data-side tests drive :func:`repro.sim.events.simulate_memory_batch` on
synthetic one-access-per-iteration traces, assert that both engines
agree, and check hand-computed counts.  Every access is a load unless
marked a store.
"""

import pytest

from repro.sim import LARGE_CORE, SMALL_CORE, Simulator
from repro.sim.cache import cyclic_code_hits
from repro.sim.config import CacheGeometry, custom_core
from repro.sim.events import ENGINES
from tests.sim.conftest import (
    idle_program,
    mem_trace,
    memory_events,
    memory_events_every_engine,
)


def small_l1d(size_bytes, assoc):
    """SMALL_CORE with a tiny L1D of 64-byte lines."""
    return custom_core(
        SMALL_CORE, l1d=CacheGeometry(size_bytes, assoc, latency=3)
    )


#: One set, two ways.
ONE_SET = small_l1d(128, 2)
#: Two sets, two ways: even lines map to set 0, odd lines to set 1.
TWO_SETS = small_l1d(256, 2)

#: One PC walking lines with stride 3 on LARGE_CORE (L2 stride
#: prefetcher, degree 2).  106 confirms the stride and prefetches 109
#: and 112; each confirmed access after that prefetches whichever of
#: its two targets is not yet resident.
STRIDE_3 = [100, 103, 106, 109]


class TestSetAssociativeCache:
    def test_cold_miss_then_hit(self):
        events = memory_events_every_engine(
            small_l1d(1024, 2), mem_trace([5, 5]), 0
        )
        assert events.l1d_accesses == 2
        assert events.l1d_hits == 1
        assert events.load_l1_misses == 1

    def test_lru_eviction_order(self):
        a, b, c = 0, 1, 2
        # a is MRU when c arrives, so c evicts b.  The measured window
        # re-reads a as a load and b as a store, which tells the one
        # hit from the one miss.
        trace = mem_trace(
            [a, b, a, c, a, b], stores=[False] * 5 + [True]
        )
        events = memory_events_every_engine(ONE_SET, trace, 4)
        assert events.l1d_hits == 1
        assert events.load_l1_misses == 0
        assert events.store_l1_misses == 1

    def test_set_isolation(self):
        # Lines 0 and 2 fill set 0; lines 1 and 3 fill set 1.
        trace = mem_trace([0, 2, 1, 3, 0, 1])
        events = memory_events_every_engine(TWO_SETS, trace, 4)
        assert events.l1d_accesses == 2
        assert events.l1d_hits == 2

    def test_install_does_not_count_access(self):
        # Prefetch fills (109, 112, 115, 118) count no L2 access, yet
        # 112 is resident when the stream reaches it.
        trace = mem_trace(STRIDE_3 + [112])
        events = memory_events_every_engine(LARGE_CORE, trace, 0)
        assert events.prefetch_installs == 4
        assert events.l2_accesses == 5  # one per L1 miss
        assert events.l2_hits == 2  # 109 and 112

    def test_prefetch_hit_accounting(self):
        # 109's first use consumes its prefetched mark: one prefetch
        # hit.  The re-read hits the L1 and counts none.
        trace = mem_trace(STRIDE_3 + [109])
        events = memory_events_every_engine(LARGE_CORE, trace, 0)
        assert events.prefetch_installs == 3
        assert events.prefetch_hits == 1
        assert events.l1d_hits == 1

    def test_reset_stats_keeps_contents(self):
        # The warmup boundary zeroes the counters but keeps the lines.
        events = memory_events_every_engine(
            small_l1d(1024, 2), mem_trace([1, 1]), 1
        )
        assert events.l1d_accesses == 1
        assert events.l1d_hits == 1
        assert events.load_l1_misses == 0

    def test_hit_rate_idle_is_one(self):
        # A loop with no memory accesses reports perfect cache rates.
        stats = Simulator(SMALL_CORE).run(idle_program(), instructions=4000)
        assert stats.extra["l1d_accesses"] == 0
        assert stats.l1d_hit_rate == 1.0
        assert stats.l2_hit_rate == 1.0

    def test_bad_geometry_raises(self):
        # 64 bytes cannot hold one set of two 64-byte ways.
        for engine in ENGINES:
            with pytest.raises(ValueError, match="smaller than one set"):
                memory_events(
                    small_l1d(64, 2), mem_trace([0, 1]), 0, engine=engine
                )


class TestStridePrefetcher:
    def test_constant_stride_confirms_and_prefetches(self):
        # After confirmation the stream's next lines are already
        # resident: 109 and 112 both hit prefetched L2 lines.
        trace = mem_trace(STRIDE_3 + [112])
        events = memory_events_every_engine(LARGE_CORE, trace, 0)
        assert events.prefetch_installs == 4
        assert events.prefetch_hits == 2

    def test_irregular_stride_does_not_prefetch(self):
        trace = mem_trace([10, 25, 11, 60, 13])
        events = memory_events_every_engine(LARGE_CORE, trace, 0)
        assert events.prefetch_installs == 0

    def test_distinct_pcs_tracked_separately(self):
        # Two interleaved PCs with strides 5 and 7.  A shared table
        # entry would never see a repeated stride.  Per-PC entries
        # confirm both streams (2 + 2 installs), and each stream's
        # fourth access hits its own prefetch and installs one more.
        lines, pcs = [], []
        for n in range(4):
            lines += [1000 + 5 * n, 9000 + 7 * n]
            pcs += [0x100, 0x200]
        events = memory_events_every_engine(
            LARGE_CORE, mem_trace(lines, pcs=pcs), 0
        )
        assert events.prefetch_installs == 6
        assert events.prefetch_hits == 2


class TestCyclicCodeHits:
    def test_fitting_loop_hits_in_steady_state(self):
        hits, misses = cyclic_code_hits(
            num_lines=8, num_sets=4, assoc=2, iterations=10
        )
        assert misses == 0          # cold misses belong to warmup
        assert hits == 8 * 10

    def test_thrashing_loop_mostly_misses(self):
        hits, misses = cyclic_code_hits(
            num_lines=64, num_sets=4, assoc=2, iterations=10
        )
        total = 64 * 10
        assert hits + misses == total
        # Random-replacement-like residency: hit rate near
        # assoc/lines_per_set * reorder factor = 2/16 * 0.85.
        assert hits / total == pytest.approx(2 / 16 * 0.85, abs=0.02)

    def test_zero_inputs(self):
        assert cyclic_code_hits(0, 4, 2, 10) == (0, 0)
        assert cyclic_code_hits(8, 4, 2, 0) == (0, 0)

    def test_hit_rate_monotone_in_code_size(self):
        rates = []
        for lines in (8, 32, 64, 128, 512):
            hits, misses = cyclic_code_hits(lines, 8, 4, 50)
            rates.append(hits / (hits + misses))
        assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))


class TestReplacementPolicies:
    def test_lru_protects_recently_used(self):
        # Re-touching line 0 makes line 1 the LRU victim of line 2, so
        # the measured re-read of line 0 hits.
        trace = mem_trace([0, 1, 0, 2, 0])
        events = memory_events_every_engine(ONE_SET, trace, 4)
        assert events.l1d_hits == 1
