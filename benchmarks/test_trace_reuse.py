"""Trace-once/simulate-many harness for the staged simulator pipeline.

Not a paper figure: this benchmark records the engineering win of the
``TraceArtifact`` pipeline.  One generated program is evaluated under
eight core configurations twice — as eight independent ``Simulator.run``
calls (each re-expanding the trace and re-simulating every event
stream), and as one ``Simulator.run_many`` batch sharing a single trace
artifact.  The batch must be bit-identical and at least 2x faster; the
measured times land in ``results/BENCH_sim.json`` so the speedup is
tracked across runs (and uploaded as a CI artifact).
"""

import time
from dataclasses import replace

from repro.codegen.wrapper import GenerationOptions, generate_test_case
from repro.sim import Simulator, TraceArtifactCache
from repro.sim.artifact import GLOBAL_ARTIFACT_CACHE
from repro.sim.config import CacheGeometry, core_by_name

from harness import BUDGETS, print_header, save_artifact

SPEEDUP_TARGET = 2.0
#: Instruction budget: independent of quick/full mode so the recorded
#: speedup is comparable across runs (timing noise shrinks with size).
INSTRUCTIONS = max(BUDGETS.stress_instructions, 20_000)

KNOBS = dict(ADD=5, MUL=1, FADDD=1, FMULD=1, BEQ=2, BNE=1,
             LD=3, LW=1, SD=1, SW=1,
             REG_DIST=4, MEM_SIZE=512, MEM_STRIDE=64,
             MEM_TEMP1=2, MEM_TEMP2=1, B_PATTERN=0.3)


def sweep_cores():
    """An 8-config sensitivity-style sweep around the Large core: six
    back-end variants (which share every event simulation) plus two
    distinct cache hierarchies (which do not)."""
    base = core_by_name("large")
    return [
        base,
        replace(base, rob=80, lsq=32, rse=64),
        replace(base, front_end_width=4),
        replace(base, alu_units=3, simd_units=2, fp_units=2),
        replace(base, mispredict_penalty=20),
        replace(base, memory_latency=270),
        replace(base, l1d=CacheGeometry(16 * 1024, 4, latency=4)),
        replace(base, l2=CacheGeometry(512 * 1024, 8, latency=14)),
    ]


class TestTraceReuse:
    def test_run_many_beats_independent_runs(self):
        print_header(
            "Staged pipeline: 8-config sweep, independent runs vs run_many",
            f"engineering target: >={SPEEDUP_TARGET}x from trace reuse",
        )
        program = generate_test_case(
            KNOBS, GenerationOptions(loop_size=BUDGETS.stress_loop)
        )
        cores = sweep_cores()

        # Warm the interpreter/allocator so neither path pays first-run
        # costs; fresh caches below keep the measurement itself cold.
        Simulator(cores[0]).run(program, instructions=INSTRUCTIONS)

        def independent_run(core):
            # Every independent run starts from an empty artifact cache.
            GLOBAL_ARTIFACT_CACHE.clear()
            return Simulator(core).run(program, instructions=INSTRUCTIONS)

        start = time.perf_counter()
        independent = [independent_run(core) for core in cores]
        independent_s = time.perf_counter() - start

        batch_cache = TraceArtifactCache(maxsize=2)
        start = time.perf_counter()
        batched = Simulator.run_many(
            cores,
            program,
            instructions=INSTRUCTIONS,
            artifact_cache=batch_cache,
        )
        batched_s = time.perf_counter() - start

        speedup = independent_s / max(batched_s, 1e-9)
        print(f"cores       : {len(cores)} configurations")
        print(f"independent : {independent_s:6.3f} s  (8x full pipeline)")
        print(f"run_many    : {batched_s:6.3f} s  (one shared artifact)")
        print(f"speedup     : {speedup:5.2f}x")
        save_artifact("BENCH_sim", {
            "cores": len(cores),
            "instructions": INSTRUCTIONS,
            "loop_size": BUDGETS.stress_loop,
            "independent_s": independent_s,
            "run_many_s": batched_s,
            "speedup": speedup,
            "bit_identical": batched == independent,
        })

        assert batched == independent  # bit-identical SimStats
        assert speedup >= SPEEDUP_TARGET, (
            f"expected >={SPEEDUP_TARGET}x from trace reuse, "
            f"got {speedup:.2f}x"
        )
