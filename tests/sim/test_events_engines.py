"""Stage-2 event engines: warmup-accounting fixes and engine agreement.

The vectorized engine (numpy array kernels, steady-state extrapolation)
must be bit-identical to the reference per-access loops on every event
count, for every warmup boundary and footprint regime.  The reference
loops are the oracle; these tests also pin the fixed warmup semantics:

* a warmup at/past the end of the trace leaves an empty measurement
  window — everything (including the TLB counters that used to leak) is
  zero;
* a line prefetched *and first used* during warmup consumes its
  prefetched mark, so it can no longer inflate a later measured
  ``prefetch_hits``.
"""

import itertools
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.events as events_mod
from repro import obs
from repro.codegen.wrapper import GenerationOptions, generate_test_case
from repro.sim import LARGE_CORE, SMALL_CORE, Simulator
from repro.sim.artifact import TraceArtifact, TraceArtifactCache
from repro.sim.config import CacheGeometry
from repro.sim.events import (
    DEFAULT_ENGINE,
    ENGINE_ENV_VAR,
    ENGINES,
    MemoryEvents,
    branch_event_key,
    resolve_engine,
    simulate_branches_batch,
    simulate_memory_batch,
)
from tests.sim.conftest import (
    branch_events,
    branch_trace,
    loop_branch_trace,
    mem_trace,
    memory_events,
)

KNOBS = dict(ADD=5, MUL=1, FADDD=1, FMULD=1, BEQ=1, BNE=1,
             LD=3, LW=1, SD=1, SW=1,
             REG_DIST=4, MEM_STRIDE=64,
             MEM_TEMP1=2, MEM_TEMP2=1, B_PATTERN=0.3)

#: perfbench's core-sweep program (a 680-instruction loop of 127
#: branch sites).
SWEEP_KNOBS = dict(ADD=4, MUL=1, FADDD=1, FMULD=1, BEQ=2, BNE=1,
                   LD=3, LW=1, SD=1, SW=1,
                   REG_DIST=4, MEM_SIZE=2048, MEM_STRIDE=64,
                   MEM_TEMP1=2, MEM_TEMP2=7, B_PATTERN=0.3)

#: Footprint knob values (KB) spanning the hierarchy: fits in L1 /
#: fits in L2 / streams past the L2.
FOOTPRINTS = (8, 128, 2048)
WARMUP_FRACTIONS = (0.0, 0.2, 1.0)


class TestEngineSelection:
    def test_known_engines(self):
        assert DEFAULT_ENGINE in ENGINES
        for engine in ENGINES:
            assert resolve_engine(engine) == engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown event engine"):
            resolve_engine("warp-drive")

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        assert resolve_engine() == "reference"
        assert resolve_engine("vectorized") == "vectorized"
        monkeypatch.setenv(ENGINE_ENV_VAR, "bogus")
        with pytest.raises(ValueError):
            resolve_engine()


class TestWarmupOverrun:
    """Warmup boundaries at/past the trace end: empty measured window."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("overrun", [0, 1, 1000])
    def test_memory_overrun_counts_nothing(self, engine, overrun):
        trace = mem_trace([(16 * t) % 256 for t in range(24)])
        warmup = len(trace.mem_lines) + overrun
        events = memory_events(SMALL_CORE, trace, warmup, engine=engine)
        # Before the fix the counting flag never flipped, so the cache
        # counters were zero but dtlb_misses/dtlb_accesses still carried
        # the warmup-inclusive TLB totals.
        assert events == MemoryEvents()
        assert events.dtlb_accesses == 0

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("overrun", [0, 1, 1000])
    def test_branch_overrun_counts_nothing(self, engine, overrun):
        trace = branch_trace([8] * 31, [t % 3 == 0 for t in range(31)])
        warmup = len(trace.branch_pcs) + overrun
        assert branch_events(
            SMALL_CORE, trace, warmup, engine=engine
        ) == (0, 0)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_negative_warmup_clamps_to_zero(self, engine):
        trace = mem_trace([(64 * t) % 1024 for t in range(16)])
        assert memory_events(
            SMALL_CORE, trace, -5, engine=engine
        ) == memory_events(SMALL_CORE, trace, 0, engine=engine)


class TestPrefetchWarmupLeakage:
    """Warmup-covered prefetch first-uses must not count later."""

    #: Tiny direct-mapped L1 (every access misses to the L2) under a
    #: prefetching L2 the 32-line stream fits in, so after one sweep the
    #: steady state re-prefetches nothing.
    CORE = replace(
        LARGE_CORE,
        l1d=CacheGeometry(1024, 1, latency=3),
        l2=CacheGeometry(64 * 1024, 8, latency=12),
    )
    LINES = [(16 * t) % 512 for t in range(96)]

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "warmup,installs,hits",
        [
            # No warmup: every install/first-use is measured.
            (0, 31, 29),
            # The stride confirms during a 4-access warmup; first-uses
            # still land in the measured window.
            (4, 28, 28),
            # A 40-access warmup covers the whole first sweep: every
            # prefetch first-use happens during warmup, and the resident
            # stream re-prefetches nothing, so the measured counts are
            # zero.  The unfixed kernel kept the warmup-used lines in
            # the prefetched set and reported their next measured L2
            # hits as prefetch hits.
            (40, 0, 0),
        ],
    )
    def test_pinned_prefetch_accounting(self, engine, warmup, installs, hits):
        events = memory_events(
            self.CORE, mem_trace(self.LINES), warmup, engine=engine
        )
        assert events.prefetch_installs == installs
        assert events.prefetch_hits == hits


class TestEnginesBitIdentical:
    """Reference and vectorized engines agree event-for-event."""

    @pytest.mark.parametrize(
        "mem_size,warmup_fraction",
        list(itertools.product(FOOTPRINTS, WARMUP_FRACTIONS)),
    )
    @pytest.mark.parametrize("core", [SMALL_CORE, LARGE_CORE],
                             ids=["small", "large"])
    def test_generated_programs_agree(self, mem_size, warmup_fraction, core):
        program = generate_test_case(
            dict(KNOBS, MEM_SIZE=mem_size),
            GenerationOptions(loop_size=120),
        )
        artifact = TraceArtifact.build(program, 6_000)
        warmup_iters, measure_iters = artifact.schedule(
            core, warmup_fraction
        )
        trace = artifact.trace(
            warmup_iters + measure_iters, core.l1d.line_bytes
        )
        warmup_mem = warmup_iters * artifact.mem_per_iter
        warmup_br = warmup_iters * artifact.br_per_iter
        assert memory_events(
            core, trace, warmup_mem, engine="reference"
        ) == memory_events(core, trace, warmup_mem, engine="vectorized")
        assert branch_events(
            core, trace, warmup_br, engine="reference"
        ) == branch_events(core, trace, warmup_br, engine="vectorized")

    def test_full_simulator_stats_agree(self):
        program = generate_test_case(dict(KNOBS, MEM_SIZE=128))
        for core in (SMALL_CORE, LARGE_CORE):
            assert Simulator(core).run(
                program, instructions=8_000, engine="reference"
            ) == Simulator(core).run(
                program, instructions=8_000, engine="vectorized"
            )

    @pytest.mark.parametrize("history_pcs", [True, False])
    def test_gshare_scan_against_reference_on_random_traces(
        self, history_pcs
    ):
        # Aliasing-heavy random traces exercise the segmented
        # saturating-counter scan far from the periodic easy case.
        rng = np.random.default_rng(7)
        for trial in range(5):
            n = int(rng.integers(1, 400))
            pcs = (
                rng.integers(0, 64, n) * 4 if history_pcs
                else np.full(n, 16)
            )
            outcomes = rng.random(n) < 0.5
            trace = branch_trace(pcs, outcomes)
            warmup = int(rng.integers(0, n + 2))
            for core in (SMALL_CORE, LARGE_CORE):
                assert branch_events(
                    core, trace, warmup, engine="reference"
                ) == branch_events(
                    core, trace, warmup, engine="vectorized"
                )

    def test_memory_extrapolation_on_long_periodic_trace(self):
        # Long periodic trace with a warmup cutting mid-period: the
        # vectorized engine extrapolates whole steady-state cycles and
        # must still match the reference loop exactly.
        pattern = [(16 * t) % 512 for t in range(32)]
        lines = pattern * 40
        trace = mem_trace(lines)
        for warmup in (0, 7, 333, len(lines) - 1):
            for core in (SMALL_CORE, TestPrefetchWarmupLeakage.CORE):
                assert memory_events(
                    core, trace, warmup, engine="reference"
                ) == memory_events(
                    core, trace, warmup, engine="vectorized"
                )

    def test_memory_aperiodic_trace_agrees(self):
        # A non-repeating stream defeats period detection; the engine
        # takes the recency-rank rounds path and must still agree.
        rng = np.random.default_rng(11)
        lines = rng.integers(0, 4096, 300)
        stores = rng.random(300) < 0.3
        trace = mem_trace(lines.tolist(), stores=stores.tolist())
        for warmup in (0, 100):
            assert memory_events(
                LARGE_CORE, trace, warmup, engine="reference"
            ) == memory_events(
                LARGE_CORE, trace, warmup, engine="vectorized"
            )


class TestEngineMemoization:
    def test_memo_keys_are_engine_stamped(self):
        program = generate_test_case(dict(KNOBS, MEM_SIZE=16))
        artifact = TraceArtifact.build(program, 4_000)
        warmup, measure = artifact.schedule(SMALL_CORE, 0.2)
        for engine in ENGINES:
            artifact.memory_events_batch(
                [SMALL_CORE], [warmup], [warmup + measure], engine=engine
            )
            artifact.branch_events_batch(
                [SMALL_CORE], [warmup], [warmup + measure], engine=engine
            )
        # Identical results, but kept under distinct engine-stamped keys
        # so persisted artifacts can never mix engine provenance.
        assert len(artifact._memory) == len(ENGINES)
        assert len(artifact._branches) == len(ENGINES)
        assert len(set(artifact._memory)) == len(ENGINES)
        (first, second) = artifact._memory.values()
        assert first == second


class TestTracePeriodCandidates:
    def test_period_past_first_eight_candidates(self):
        # Nine identical leading rows produce eight bogus equal-row
        # candidates (offsets 1..8) before the true period of 10; the
        # old detector silently capped candidates at [:8] and
        # misclassified this trace as aperiodic.
        trace = mem_trace(([0] * 9 + [1]) * 6)
        assert events_mod._trace_period(trace) == 10

    def test_genuinely_aperiodic_stays_zero(self):
        rng = np.random.default_rng(2)
        trace = mem_trace(rng.integers(0, 1 << 20, 200).tolist())
        assert events_mod._trace_period(trace) == 0


class TestBranchEventKey:
    def test_predictor_kinds_do_not_collide(self):
        # gshare / bimodal / tournament variants of one family share
        # (entries, history_bits); the key must still distinguish them
        # or the branch-event memo serves one kind the other's counts.
        names = ["small", "small-bimodal", "small-tournament",
                 "large", "large-bimodal", "large-tournament"]
        keys = [
            branch_event_key(replace(SMALL_CORE, name=name))
            for name in names
        ]
        assert len(set(keys)) == len(keys)

    def test_tournament_key_carries_chooser_size(self):
        key = branch_event_key(replace(SMALL_CORE, name="small-tournament"))
        kind, bimodal_entries, _, _, chooser_entries = key
        assert kind == "tournament"
        # The vectorized chooser scan reuses the bimodal row's layout,
        # which is only sound when the two tables are sized alike.
        assert chooser_entries == bimodal_entries

    def test_kinds_produce_distinct_counts(self):
        # Few hot PCs, some with periodic per-PC patterns (gshare
        # learns them, bimodal cannot), some random — a trace where
        # the three kinds genuinely disagree.
        rng = np.random.default_rng(5)
        pcs = (rng.integers(0, 16, 600) * 4).tolist()
        outcomes = []
        per_pc = {}
        for pc in pcs:
            k = per_pc.get(pc, 0)
            outcomes.append(
                bool(k % 3) if pc % 8 == 0 else bool(rng.random() < 0.5)
            )
            per_pc[pc] = k + 1
        trace = branch_trace(pcs, outcomes)
        results = {
            name: branch_events(
                replace(SMALL_CORE, name=name), trace, 0
            )
            for name in ("small", "small-bimodal", "small-tournament")
        }
        assert len(set(results.values())) == 3


class TestEnginePathObservability:
    def setup_method(self):
        obs.reset("engine_path.")

    def test_periodic_aperiodic_and_reference_paths(self):
        periodic = mem_trace([(16 * t) % 512 for t in range(32)] * 40)
        rng = np.random.default_rng(3)
        aperiodic = mem_trace(rng.integers(0, 4096, 400).tolist())
        memory_events(SMALL_CORE, periodic, 10, engine="vectorized")
        memory_events(SMALL_CORE, aperiodic, 10, engine="vectorized")
        memory_events(SMALL_CORE, aperiodic, 10, engine="reference")
        counts = obs.counters("engine_path.")
        assert counts["engine_path.memory.batch"] == 2
        assert counts["engine_path.memory.vectorized.periodic"] == 1
        assert counts["engine_path.memory.vectorized.aperiodic"] == 1
        assert counts["engine_path.memory.reference"] == 1
        assert "engine_path.memory.vectorized.straight" not in counts

    def test_tiny_aperiodic_trace_takes_straight_path(self):
        rng = np.random.default_rng(4)
        tiny = mem_trace(rng.integers(0, 4096, 40).tolist())
        memory_events(SMALL_CORE, tiny, 0, engine="vectorized")
        counts = obs.counters("engine_path.")
        assert counts["engine_path.memory.vectorized.straight"] == 1

    def test_branch_paths(self):
        rng = np.random.default_rng(6)
        trace = branch_trace(
            (rng.integers(0, 1 << 12, 200) * 4).tolist(),
            (rng.random(200) < 0.5).tolist(),
        )
        branch_events(SMALL_CORE, trace, 0, engine="vectorized")
        branch_events(SMALL_CORE, trace, 0, engine="reference")
        counts = obs.counters("engine_path.")
        assert counts == {
            "engine_path.branch.batch": 1,
            "engine_path.branch.reference": 1,
        }

    def test_core_sweep_batch_scans_site_tables_in_loop_order(
        self, monkeypatch
    ):
        # perfbench's core-sweep program, one gshare core and its
        # tournament twin, as in that sweep.
        program = generate_test_case(
            SWEEP_KNOBS, GenerationOptions(loop_size=680)
        )
        artifact = TraceArtifact.build(program, 800_000)
        cores = [SMALL_CORE, replace(SMALL_CORE, name="small-tournament")]
        schedules = [artifact.schedule(core, 0.2) for core in cores]
        [iterations] = {w + m for w, m in schedules}
        trace = artifact.trace(iterations, SMALL_CORE.l1d.line_bytes)
        layouts = []
        counter_layout = events_mod._counter_layout

        def counting(indices):
            layouts.append(indices.shape)
            return counter_layout(indices)

        monkeypatch.setattr(events_mod, "_counter_layout", counting)
        simulate_branches_batch(
            cores, trace, [w * artifact.br_per_iter for w, _ in schedules]
        )
        counts = obs.counters("engine_path.")
        # Bimodal component and chooser scan in loop order; the gshare
        # core and the tournament's gshare component share one row.
        assert counts.get("engine_path.branch.sites") == 2
        assert "engine_path.branch.doubling" not in counts
        assert layouts == [(1, trace.branch_pcs.shape[0])]

    def test_reset_clears(self):
        branch_events(
            SMALL_CORE, branch_trace([4], [True]), 0, engine="reference"
        )
        assert obs.counters("engine_path.")
        obs.reset("engine_path.")
        assert obs.counters("engine_path.") == {}


class TestTournamentAndBimodalAgreement:
    """Cross-engine equality for the predictor kinds the scan engine
    gained in this change (chooser steps include the identity)."""

    @pytest.mark.parametrize(
        "name", ["small-bimodal", "small-tournament", "large-tournament"]
    )
    def test_random_traces_agree(self, name):
        core = replace(
            LARGE_CORE if name.startswith("large") else SMALL_CORE,
            name=name,
        )
        rng = np.random.default_rng(17)
        for trial in range(4):
            n = int(rng.integers(1, 800))
            pcs = (rng.integers(0, 1 << 13, n) * 4).tolist()
            outcomes = (rng.random(n) < rng.random()).tolist()
            trace = branch_trace(pcs, outcomes)
            for warmup in (0, n // 3, n):
                assert branch_events(
                    core, trace, warmup, engine="reference"
                ) == branch_events(
                    core, trace, warmup, engine="vectorized"
                )


def aliased_sites(rng, sites, alias):
    """``sites`` distinct branch PCs, with about half of them moved by a
    multiple of ``alias`` entries (0: none) onto another site's entry
    in every table of at most ``alias`` entries."""
    pc2 = rng.choice(1 << 12, sites, replace=False)
    if alias:
        moved = rng.choice(sites, sites // 2, replace=False)
        for i in moved:
            pc2[i] = pc2[rng.integers(sites)] % alias + alias * (
                1 + rng.integers(4)
            )
    return pc2 * 4


class TestLoopOrderBranchAgreement:
    """Site-indexed tables (bimodal, tournament chooser) scan loop traces
    in loop order; sites that alias in a table take its sorted layout.
    A mixed batch must equal batches of one and the reference loops
    whichever path each table takes."""

    CORES = [
        replace(base, name=base.name + suffix)
        for base in (SMALL_CORE, LARGE_CORE)
        for suffix in ("", "-bimodal", "-tournament")
    ] + [replace(SMALL_CORE, name="small-tournament")]  # second warmup

    @given(
        sites=st.integers(1, 64),
        iterations=st.integers(1, 400),
        alias=st.sampled_from([0, 4096, 16384]),
        taken=st.floats(0.5, 1.0),
        broken=st.booleans(),
        seed=st.integers(0, 2 ** 32 - 1),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_loop_traces_agree(
        self, sites, iterations, alias, taken, broken, seed, data
    ):
        rng = np.random.default_rng(seed)
        n = sites * iterations
        trace = loop_branch_trace(
            aliased_sites(rng, sites, alias), iterations,
            rng.random(n) < taken,
        )
        if broken:
            # One iteration visits its sites in another order: the
            # trace is no longer a loop.
            k = rng.integers(iterations) * sites
            trace.branch_pcs[k:k + sites] = np.roll(
                trace.branch_pcs[k:k + sites], 1
            )
        warmups = [
            data.draw(st.integers(0, n + 1)) for _ in self.CORES
        ]
        batch = simulate_branches_batch(self.CORES, trace, warmups)
        singles = [
            branch_events(core, trace, warmup)
            for core, warmup in zip(self.CORES, warmups)
        ]
        assert batch == singles
        assert batch == simulate_branches_batch(
            self.CORES, trace, warmups, engine="reference"
        )

    def test_aliased_table_takes_the_sorted_layout(self):
        # Two sites share an entry in 4,096-entry tables only: the small
        # bimodal table scans its sorted layout, the large one in loop
        # order.
        rng = np.random.default_rng(41)
        site_pcs = aliased_sites(rng, 32, 0)
        site_pcs[1] = site_pcs[0] + 4096 * 4
        trace = loop_branch_trace(
            site_pcs, 50, rng.random(32 * 50) < 0.8
        )
        for name, sites_paths in (("small-bimodal", 0), ("large-bimodal", 1)):
            base = LARGE_CORE if name.startswith("large") else SMALL_CORE
            core = replace(base, name=name)
            obs.reset("engine_path.")
            assert branch_events(core, trace, 10) == branch_events(
                core, trace, 10, engine="reference"
            )
            counts = obs.counters("engine_path.")
            assert counts.get("engine_path.branch.sites", 0) == sites_paths


class TestAperiodicVectorizedAgreement:
    """The recency-rank rounds kernel must match the reference loop on
    aperiodic streams — including prefetching cores, where the L2 sees
    an exactly-replayed miss substream."""

    @pytest.mark.parametrize("core", [SMALL_CORE, LARGE_CORE],
                             ids=lambda c: c.name)
    def test_random_aperiodic_streams_agree(self, core):
        rng = np.random.default_rng(23)
        for trial in range(4):
            n = int(rng.integers(150, 900))
            lines = rng.integers(0, 6000, n).tolist()
            stores = (rng.random(n) < 0.3).tolist()
            pcs = (rng.integers(0, 64, n) * 4).tolist()
            trace = mem_trace(lines, pcs=pcs, stores=stores)
            for warmup in (0, n // 4):
                assert memory_events(
                    core, trace, warmup, engine="reference"
                ) == memory_events(
                    core, trace, warmup, engine="vectorized"
                )

    def test_streaming_program_takes_rounds_path_and_agrees(self):
        # MEM_SIZE far past the L2 keeps the window inside one sweep:
        # no period, so this exercises the aperiodic kernel end-to-end.
        program = generate_test_case(
            dict(KNOBS, MEM_SIZE=2048), GenerationOptions(seed=9)
        )
        artifact = TraceArtifact.build(program, 20_000)
        warmup, measure = artifact.schedule(SMALL_CORE, 0.2)
        trace = artifact.trace(warmup + measure, SMALL_CORE.l1d.line_bytes)
        obs.reset("engine_path.")
        ref = memory_events(
            SMALL_CORE, trace, warmup * artifact.mem_per_iter,
            engine="reference",
        )
        vec = memory_events(
            SMALL_CORE, trace, warmup * artifact.mem_per_iter,
            engine="vectorized",
        )
        assert ref == vec
        counts = obs.counters("engine_path.")
        assert counts.get("engine_path.memory.vectorized.aperiodic") == 1
        assert "engine_path.memory.vectorized.straight" not in counts


class TestBatchEntryPoints:
    CORES = [
        SMALL_CORE,
        LARGE_CORE,
        replace(SMALL_CORE, name="small-tournament"),
        replace(LARGE_CORE, name="large-bimodal"),
        replace(SMALL_CORE,
                l1d=replace(SMALL_CORE.l1d, assoc=2)),
        SMALL_CORE,  # duplicate: must dedupe, not recompute
    ]

    def test_simulate_memory_batch_matches_singles(self):
        rng = np.random.default_rng(29)
        n = 1500
        trace = mem_trace(
            rng.integers(0, 4000, n).tolist(),
            pcs=(rng.integers(0, 64, n) * 4).tolist(),
            stores=(rng.random(n) < 0.3).tolist(),
        )
        warmups = [0, 13, 200, 13, 0, 0]
        batch = simulate_memory_batch(
            self.CORES, trace, warmups, engine="vectorized"
        )
        for engine in ENGINES:
            singles = [
                memory_events(core, trace, warmup, engine=engine)
                for core, warmup in zip(self.CORES, warmups)
            ]
            assert batch == singles, engine

    def test_simulate_branches_batch_matches_singles(self):
        rng = np.random.default_rng(31)
        n = 1200
        trace = branch_trace(
            (rng.integers(0, 1 << 13, n) * 4).tolist(),
            (rng.random(n) < 0.6).tolist(),
        )
        warmups = [0, 25, 100, 25, 0, n + 5]
        batch = simulate_branches_batch(
            self.CORES, trace, warmups, engine="vectorized"
        )
        for engine in ENGINES:
            singles = [
                branch_events(core, trace, warmup, engine=engine)
                for core, warmup in zip(self.CORES, warmups)
            ]
            assert batch == singles, engine

    def test_batch_length_mismatch_rejected(self):
        trace = branch_trace([4], [True])
        with pytest.raises(ValueError, match="warmup"):
            simulate_branches_batch([SMALL_CORE], trace, [0, 0])
        with pytest.raises(ValueError, match="warmup"):
            simulate_memory_batch([SMALL_CORE], mem_trace([1]), [])

    def test_artifact_batch_accessors_fill_memos_identically(self):
        program = generate_test_case(
            dict(KNOBS, MEM_SIZE=128), GenerationOptions(seed=12)
        )
        batched = TraceArtifact.build(program, 8_000)
        single = TraceArtifact.build(program, 8_000)
        cores = self.CORES
        schedules = [batched.schedule(core, 0.2) for core in cores]
        warmups = [w for w, _ in schedules]
        iterations = [w + m for w, m in schedules]
        mem_batch = batched.memory_events_batch(cores, warmups, iterations)
        br_batch = batched.branch_events_batch(cores, warmups, iterations)
        # The same cores as batches of one, on a second artifact.
        mem_single = [
            single.memory_events_batch([core], [w], [i])[0]
            for core, w, i in zip(cores, warmups, iterations)
        ]
        br_single = [
            single.branch_events_batch([core], [w], [i])[0]
            for core, w, i in zip(cores, warmups, iterations)
        ]
        assert mem_batch == mem_single
        assert br_batch == br_single
        assert batched._memory == single._memory
        assert batched._branches == single._branches

    @pytest.mark.parametrize("mem_size", [16, 2048])
    def test_run_many_config_batch_bit_identical(self, mem_size):
        program = generate_test_case(
            dict(KNOBS, MEM_SIZE=mem_size), GenerationOptions(seed=8)
        )
        runs = {
            engine: Simulator.run_many(
                self.CORES, program,
                artifact_cache=TraceArtifactCache(),
                engine=engine,
            )
            for engine in ENGINES
        }
        batches_of_one = [
            Simulator.run_many(
                [core], program, artifact_cache=TraceArtifactCache()
            )[0]
            for core in self.CORES
        ]
        assert runs["vectorized"] == batches_of_one == runs["reference"]


class TestBatchScratch:
    def test_batch_calls_leave_trace_pickle_unchanged(self):
        # Shared kernel columns live only for one batch call: neither the
        # trace object nor its pickle (so no persisted artifact) gains
        # anything.
        program = generate_test_case(
            dict(KNOBS, MEM_SIZE=2048), GenerationOptions(seed=8)
        )
        artifact = TraceArtifact.build(program, 8_000)
        warmup, measure = artifact.schedule(SMALL_CORE, 0.2)
        trace = artifact.trace(warmup + measure, 64)
        events_mod._trace_period(trace)  # the trace's own period memo
        before = (pickle.dumps(trace), pickle.dumps(vars(trace)))
        cores = TestBatchEntryPoints.CORES
        simulate_memory_batch(
            cores, trace, [warmup * artifact.mem_per_iter] * len(cores)
        )
        simulate_branches_batch(
            cores, trace, [warmup * artifact.br_per_iter] * len(cores)
        )
        assert (pickle.dumps(trace), pickle.dumps(vars(trace))) == before
