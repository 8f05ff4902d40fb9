"""Top-level simulator: program in, :class:`SimStats` out.

The simulation is an explicit three-stage pipeline:

1. **Trace artifact** (:mod:`repro.sim.artifact`) — expand the dynamic
   trace, analyze the dependency graph and characterize the instruction
   mix once per (program fingerprint, instruction budget);
2. **Event simulation** (:mod:`repro.sim.events`) — drive the cache
   hierarchies, branch predictors and TLBs of a batch of core configs
   over the shared trace in one config-batched pass per event family,
   memoized per the core parameters each event sim reads;
3. **Interval timing** (:mod:`repro.sim.interval`) — convert instruction
   mix + miss events into cycles, batched over core configs.

:meth:`Simulator.run_many` evaluates a batch of core configs against one
shared artifact, which is several times faster than independent runs
because stages 1-2 are shared wherever the configs' parameters cannot
distinguish them.  :meth:`Simulator.run` is a batch of one core, and
:meth:`Simulator.run_group` a batch of identical cores that dedups to one
event pass.
"""

from __future__ import annotations

from repro import obs
from repro.isa.program import Program
from repro.sim.artifact import (
    WARMUP_FRACTION,
    TraceArtifact,
    TraceArtifactCache,
    artifact_for,
    program_fingerprint,
)
from repro.sim.config import CoreConfig
from repro.sim.events import MemoryEvents
from repro.sim.interval import IntervalInputs, MissProfile, compute_cycles_batch
from repro.sim.stats import SimStats

#: Default dynamic-instruction budget per evaluation.  The paper runs 10M
#: dynamic instructions; our loops are periodic so steady-state metrics
#: converge far earlier (see EXPERIMENTS.md convergence check), and the
#: default keeps a full tuning run laptop-fast.  Pass a larger budget to
#: :meth:`Simulator.run` to match the paper exactly.
DEFAULT_INSTRUCTIONS = 20_000

#: Artifacts retained per Simulator instance (platforms re-evaluate the
#: same program under one core repeatedly during a tuning epoch).
_INSTANCE_CACHE_SIZE = 8


class Simulator:
    """Cycle-approximate simulator for one core configuration.

    Example::

        stats = Simulator(LARGE_CORE).run(program)
        print(stats.ipc, stats.metrics())

    For a multi-config sweep over one program, use the batched form,
    which shares the trace artifact across the whole batch::

        stats_list = Simulator.run_many([core_a, core_b], program)
    """

    def __init__(self, core: CoreConfig,
                 artifact_cache: TraceArtifactCache | None = None):
        self.core = core
        self._artifacts = artifact_cache or TraceArtifactCache(
            maxsize=_INSTANCE_CACHE_SIZE
        )

    # The artifact cache is per-process working state: excluding it from
    # the pickled form keeps worker shipping cheap and — critically —
    # keeps the pickled bytes identical to pre-pipeline Simulators, so
    # platform-identity hashes (disk-cache contexts) survive unchanged.
    # Unpickled simulators (i.e. worker-side platform clones) join the
    # process-wide cache rather than getting a private one, so every
    # chunk a worker evaluates — and the on-disk artifact store, when
    # one is attached — shares trace work across the whole process.
    def __getstate__(self) -> dict:
        return {"core": self.core}

    def __setstate__(self, state: dict) -> None:
        from repro.sim.artifact import GLOBAL_ARTIFACT_CACHE

        self.core = state["core"]
        self._artifacts = GLOBAL_ARTIFACT_CACHE

    # ------------------------------------------------------------------
    # staged pipeline
    # ------------------------------------------------------------------

    @staticmethod
    def _interval_inputs(
        core: CoreConfig,
        artifact: TraceArtifact,
        measure_iters: int,
        mem: MemoryEvents,
        mispredicts: int,
        icache: tuple[int, int, int],
    ) -> IntervalInputs:
        """One core's stage-2 results folded into interval inputs."""
        _, i_misses, i_l2_misses = icache
        class_counts = {
            c: n * measure_iters for c, n in artifact.static_counts.items()
        }
        return IntervalInputs(
            core=core,
            total_instructions=artifact.loop_size * measure_iters,
            class_counts=class_counts,
            dep_cycles_per_iteration=artifact.dep_cycles(core),
            loop_size=artifact.loop_size,
            misses=MissProfile(
                branch_mispredicts=mispredicts,
                icache_l1_misses=i_misses,
                icache_l2_misses=i_l2_misses,
                load_l1_misses=mem.load_l1_misses,
                load_l2_misses=mem.load_l2_misses,
                store_l1_misses=mem.store_l1_misses,
                store_l2_misses=mem.store_l2_misses,
                dtlb_misses=mem.dtlb_misses,
            ),
            dependency_distance=artifact.dependency_distance,
            parallel_streams=artifact.parallel_streams,
        )

    @staticmethod
    def _assemble_stats(
        core: CoreConfig,
        artifact: TraceArtifact,
        inputs: IntervalInputs,
        warmup_iters: int,
        measure_iters: int,
        mem: MemoryEvents,
        branch: tuple[int, int],
        icache: tuple[int, int, int],
        timing,
    ) -> SimStats:
        """Package one core's pipeline outputs into :class:`SimStats`."""
        mispredicts, branch_lookups = branch
        i_hits, i_misses, _ = icache
        total = inputs.total_instructions

        l1d_hit_rate = (
            mem.l1d_hits / mem.l1d_accesses if mem.l1d_accesses else 1.0
        )
        dtlb_miss_rate = (
            mem.dtlb_misses / mem.dtlb_accesses if mem.dtlb_accesses else 0.0
        )
        l2_hit_rate = mem.l2_hits / mem.l2_accesses if mem.l2_accesses else 1.0
        l1i_hit_rate = (
            i_hits / (i_hits + i_misses) if (i_hits + i_misses) else 1.0
        )
        mispredict_rate = (
            mispredicts / branch_lookups if branch_lookups else 0.0
        )

        cycles = timing.cycles
        return SimStats(
            core=core.name,
            instructions=total,
            cycles=cycles,
            ipc=total / cycles,
            l1i_hit_rate=l1i_hit_rate,
            l1d_hit_rate=l1d_hit_rate,
            l2_hit_rate=l2_hit_rate,
            mispredict_rate=mispredict_rate,
            dtlb_miss_rate=dtlb_miss_rate,
            group_fractions=dict(artifact.group_fractions),
            breakdown=timing.breakdown,
            binding_bound=timing.binding_bound,
            extra={
                "iterations": measure_iters,
                "warmup_iterations": warmup_iters,
                "dep_cycles_per_iteration": inputs.dep_cycles_per_iteration,
                "branch_lookups": branch_lookups,
                "l1d_accesses": mem.l1d_accesses,
                "l2_accesses": mem.l2_accesses,
                "load_l2_misses": mem.load_l2_misses,
                "store_l2_misses": mem.store_l2_misses,
                "prefetch_installs": mem.prefetch_installs,
                "prefetch_hits": mem.prefetch_hits,
                "class_counts": {
                    c.value: n for c, n in inputs.class_counts.items()
                },
            },
        )

    # ------------------------------------------------------------------
    # main entry points
    # ------------------------------------------------------------------

    def run(
        self,
        program: Program,
        instructions: int = DEFAULT_INSTRUCTIONS,
        artifact: TraceArtifact | None = None,
        engine: str | None = None,
    ) -> SimStats:
        """Simulate ``instructions`` dynamic instructions of ``program``.

        Args:
            program: generated test case (endless loop body).
            instructions: dynamic instruction budget; rounded to whole
                loop iterations (minimum 2).  The leading
                :data:`~repro.sim.artifact.WARMUP_FRACTION` of them (or
                more, until the streams wrap) warms caches and
                predictors outside the measured window.
            artifact: optionally, a prebuilt trace artifact for this
                (program, budget) pair — e.g. one shared by a
                :class:`~repro.core.platform.CompositePlatform`.
            engine: stage-2 event engine (``reference`` / ``vectorized``,
                see :mod:`repro.sim.events`); ``None`` uses the process
                default.  Engines are bit-identical.

        Returns:
            Measured-window statistics.
        """
        return self.run_many(
            [self.core],
            program,
            instructions=instructions,
            artifact=artifact,
            artifact_cache=self._artifacts,
            engine=engine,
        )[0]

    def run_group(
        self,
        program: Program,
        count: int,
        instructions: int = DEFAULT_INSTRUCTIONS,
        artifact: TraceArtifact | None = None,
        engine: str | None = None,
    ) -> list[SimStats]:
        """Simulate ``count`` equivalent evaluations of ``program``.

        The generation-batched tuning path collapses a group of knob
        configurations that provably generate this exact program into
        one dispatch; this is its entry point.  It is literally
        ``run_many([self.core] * count, ...)``: the group's identical
        cores dedup to one shared event pass, and each caller gets its
        own (bit-identical) :class:`SimStats` back.
        """
        return self.run_many(
            [self.core] * count,
            program,
            instructions=instructions,
            artifact=artifact,
            artifact_cache=self._artifacts,
            engine=engine,
        )

    @classmethod
    def run_many(
        cls,
        cores: list[CoreConfig],
        program: Program,
        instructions: int = DEFAULT_INSTRUCTIONS,
        artifact: TraceArtifact | None = None,
        artifact_cache: TraceArtifactCache | None = None,
        engine: str | None = None,
    ) -> list[SimStats]:
        """Simulate one program under a batch of core configurations.

        The trace artifact is computed (or fetched) once and shared by
        the whole batch: trace expansion, dependency analysis and every
        event simulation are memoized on the core parameters they read,
        so configs differing only in back-end structure reuse each
        other's event streams outright.  Stage 2 runs one config-batched
        pass per event family and trace window, evaluating every
        *distinct* event key over one shared block of precomputed trace
        columns, so a sweep pays for the trace-derived work once instead
        of once per config.  Results are bit-identical to
        ``[Simulator(c).run(program, ...) for c in cores]``.

        Args:
            cores: core configurations to evaluate, in order.
            program: generated test case (endless loop body).
            instructions: dynamic instruction budget per evaluation.
            artifact: optional prebuilt artifact for (program, budget).
            artifact_cache: cache to fetch/build the artifact through;
                defaults to the process-wide artifact cache.
            engine: stage-2 event engine (``reference`` / ``vectorized``);
                ``None`` uses the process default.  Engines are
                bit-identical, and event memoization is engine-stamped.

        Returns:
            One :class:`SimStats` per core, in input order.
        """
        with obs.span("sim.run_many"):
            return cls._run_many(
                cores, program, instructions, artifact, artifact_cache,
                engine,
            )

    @classmethod
    def _run_many(
        cls,
        cores: list[CoreConfig],
        program: Program,
        instructions: int,
        artifact: TraceArtifact | None,
        artifact_cache: TraceArtifactCache | None,
        engine: str | None,
    ) -> list[SimStats]:
        cache = None
        if artifact is None:
            from repro.sim.artifact import GLOBAL_ARTIFACT_CACHE

            cache = (
                artifact_cache if artifact_cache is not None
                else GLOBAL_ARTIFACT_CACHE
            )
            artifact = artifact_for(
                program, instructions, cache=artifact_cache
            )
        elif artifact.instructions != instructions:
            raise ValueError(
                f"artifact was built for a budget of "
                f"{artifact.instructions} instructions, not {instructions}"
            )
        elif (
            artifact.program is not program
            and artifact.fingerprint != program_fingerprint(program)
        ):
            # Same-object is the common sharing path (free to check);
            # otherwise the fingerprint catches an artifact reused
            # across the wrong program before it misattributes stats.
            raise ValueError(
                "artifact was built for a different program "
                f"(fingerprint {artifact.fingerprint})"
            )
        schedules = [
            artifact.schedule(core, WARMUP_FRACTION) for core in cores
        ]
        warmups = [w for w, _ in schedules]
        measures = [m for _, m in schedules]
        iterations = [w + m for w, m in schedules]
        mems = artifact.memory_events_batch(
            cores, warmups, iterations, engine=engine
        )
        branches = artifact.branch_events_batch(
            cores, warmups, iterations, engine=engine
        )
        icaches = artifact.icache_events_batch(cores, measures, engine=engine)
        # (core, warmup, measure, memory, branch, icache) per core.
        per_core = list(zip(cores, warmups, measures, mems, branches, icaches))
        inputs = [
            cls._interval_inputs(core, artifact, measure, mem, branch[0], icache)
            for core, _, measure, mem, branch, icache in per_core
        ]
        if cache is not None:
            # Capture the stages this batch memoized in the on-disk
            # artifact store (no-op unless one is attached).
            cache.persist(artifact)
        timings = compute_cycles_batch(inputs)
        return [
            cls._assemble_stats(core, artifact, core_inputs, *results, timing)
            for (core, *results), core_inputs, timing in zip(
                per_core, inputs, timings
            )
        ]
