"""Data-TLB behaviour of the stage-2 memory engines.

The DTLB is a fully-associative LRU over 4 KB pages: 48 entries on the
small family, 128 on the large one.  Engine tests drive
:func:`repro.sim.events.simulate_memory_batch` on synthetic traces of
byte addresses, assert that both engines agree, and check hand-computed
counts.
"""

import pytest

from repro.sim import LARGE_CORE, SMALL_CORE, Simulator
from repro.sim.config import CacheGeometry, custom_core
from repro.sim.events import ENGINES, memory_event_key
from tests.sim.conftest import (
    idle_program,
    mem_trace,
    memory_events,
    memory_events_every_engine,
)

PAGE = 4096


def page_trace(addresses, line_bytes=64):
    """A memory trace touching ``addresses`` (bytes) in order."""
    return mem_trace(
        [a // line_bytes for a in addresses], line_bytes=line_bytes
    )


def dtlb(core, addresses, warmup=0):
    """(misses, accesses) in the measured window."""
    events = memory_events_every_engine(core, page_trace(addresses), warmup)
    return events.dtlb_misses, events.dtlb_accesses


class TestDataTLB:
    def test_cold_miss_then_hit(self):
        assert dtlb(SMALL_CORE, [0, 64]) == (1, 2)  # same page

    def test_distinct_pages_miss(self):
        assert dtlb(SMALL_CORE, [0, PAGE, 2 * PAGE]) == (3, 3)

    def test_lru_eviction(self):
        # Fill all 48 entries, re-touch page 0 (now MRU), then page 48
        # evicts page 1.  Measured: page 0 hits, page 1 misses.
        pages = list(range(48)) + [0, 48, 0, 1]
        addresses = [p * PAGE for p in pages]
        assert dtlb(SMALL_CORE, addresses, warmup=50) == (1, 2)
        assert dtlb(SMALL_CORE, addresses, warmup=51) == (1, 1)

    def test_capacity_bound(self):
        # A cyclic walk over ``entries`` pages fits: the second lap
        # hits throughout.  One page more and LRU evicts each page
        # just before its reuse: the second lap misses throughout.
        for core, entries in ((SMALL_CORE, 48), (LARGE_CORE, 128)):
            for pages, misses in ((entries, 0), (entries + 1, entries + 1)):
                addresses = [p * PAGE for p in range(pages)] * 2
                assert dtlb(core, addresses, warmup=pages) == (misses, pages)

    def test_reset_stats_keeps_translations(self):
        # The warmup boundary zeroes the counters but keeps the
        # translations.
        assert dtlb(SMALL_CORE, [0, 0], warmup=1) == (0, 1)

    def test_idle_miss_rate_zero(self):
        stats = Simulator(SMALL_CORE).run(idle_program(), instructions=4000)
        assert stats.extra["l1d_accesses"] == 0
        assert stats.dtlb_miss_rate == 0.0

    def test_core_sizing(self):
        assert memory_event_key(SMALL_CORE)[-1] == 48
        assert memory_event_key(LARGE_CORE)[-1] == 128
        # Derived cores inherit their base family's size.
        large_bimodal = custom_core(LARGE_CORE, name="large-bimodal")
        assert memory_event_key(large_bimodal)[-1] == 128


def with_l1d_line(core, line_bytes):
    """``core`` with its L1D line size changed, all else kept."""
    l1d = core.l1d
    return custom_core(core, l1d=CacheGeometry(
        l1d.size_bytes, l1d.assoc, line_bytes=line_bytes,
        latency=l1d.latency,
    ))


class TestPageSize:
    """Pages are 4 KB of byte address whatever the L1D line size."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("line_bytes", [32, 64, 128])
    def test_pages_are_4kb_at_every_line_size(self, line_bytes, engine):
        # 200 pages, each touched at offsets 0 and 2048: one miss per
        # page.  A page of 64 lines would split each page in two at
        # 32-byte lines (400 misses) and merge page pairs at 128-byte
        # lines (100 misses).
        addresses = [p * PAGE + off for p in range(200) for off in (0, 2048)]
        core = with_l1d_line(SMALL_CORE, line_bytes)
        events = memory_events(
            core, page_trace(addresses, line_bytes), 0, engine=engine
        )
        assert (events.dtlb_misses, events.dtlb_accesses) == (200, 400)


class TestSimulatorIntegration:
    def _run(self, mem_size_kb, core=None):
        from repro.codegen import generate_test_case
        from repro.sim import SMALL_CORE, Simulator

        knobs = dict(ADD=4, BEQ=1, LD=3, SD=1, REG_DIST=6,
                     MEM_SIZE=mem_size_kb, MEM_STRIDE=64,
                     MEM_TEMP1=1, MEM_TEMP2=1, B_PATTERN=0.1)
        program = generate_test_case(knobs)
        return Simulator(core or SMALL_CORE).run(program, instructions=10_000)

    def test_metrics_include_dtlb(self):
        stats = self._run(16)
        assert "dtlb_miss_rate" in stats.metrics()
        assert 0.0 <= stats.dtlb_miss_rate <= 1.0

    def test_small_footprint_fits_tlb(self):
        # 16 KB = 4 pages << 48 entries: no steady-state TLB misses.
        assert self._run(16).dtlb_miss_rate < 0.02

    def test_huge_footprint_misses_tlb(self):
        # 2 MB = 512 pages >> 48 entries: the stream walks pages.
        small = self._run(16).dtlb_miss_rate
        huge = self._run(2048).dtlb_miss_rate
        assert huge > small

    def test_tlb_stall_in_breakdown(self):
        stats = self._run(2048)
        assert stats.breakdown["dtlb"] > 0

    @pytest.mark.parametrize("base", [SMALL_CORE, LARGE_CORE],
                             ids=lambda core: core.name)
    def test_dtlb_miss_rate_independent_of_line_size(self, base):
        # One program walks the same 4 KB pages whatever the L1D line
        # size, so its DTLB miss rate cannot depend on it.
        rates = [
            self._run(2048, with_l1d_line(base, line_bytes)).dtlb_miss_rate
            for line_bytes in (32, 64, 128)
        ]
        assert rates[1] > 0
        assert rates[0] == rates[1] == rates[2]
