"""Table II — the Small and Large core configurations.

Asserts the simulated cores match the paper's table and benchmarks one
full simulator evaluation on each core (the unit of work every tuning
epoch multiplies).
"""

import pytest

from repro.codegen import generate_test_case
from repro.sim import LARGE_CORE, SMALL_CORE, Simulator
from repro.sim.artifact import GLOBAL_ARTIFACT_CACHE

from benchmarks.harness import print_header

PAPER_TABLE_II = {
    "small": dict(width=3, rob=40, lsq=16, rse=32, alu=3, simd=2, fp=2,
                  l1_kb=16, l2_kb=256, prefetch=False),
    "large": dict(width=8, rob=160, lsq=64, rse=128, alu=6, simd=4, fp=4,
                  l1_kb=32, l2_kb=1024, prefetch=True),
}

_KNOBS = dict(ADD=5, MUL=1, FADDD=1, FMULD=1, BEQ=1, BNE=1, LD=3, LW=1,
              SD=1, SW=1, REG_DIST=6, MEM_SIZE=32, MEM_STRIDE=64,
              MEM_TEMP1=4, MEM_TEMP2=2, B_PATTERN=0.2)


def test_table2_core_configurations():
    print_header(
        "Table II: core configurations",
        "2GHz; Small 3-wide 40/16/32 3/2/2 16k/256k; "
        "Large 8-wide 160/64/128 6/4/4 32k/1M+prefetch",
    )
    for core in (SMALL_CORE, LARGE_CORE):
        paper = PAPER_TABLE_II[core.name]
        measured = dict(
            width=core.front_end_width, rob=core.rob, lsq=core.lsq,
            rse=core.rse, alu=core.alu_units, simd=core.simd_units,
            fp=core.fp_units, l1_kb=core.l1i.size_bytes // 1024,
            l2_kb=core.l2.size_bytes // 1024, prefetch=core.l2_prefetcher,
        )
        print(f"{core.name:<6} paper={paper}")
        print(f"{'':<6} built={measured}")
        assert measured == paper
        assert core.frequency_ghz == 2.0
        assert core.memory_gb == 1


@pytest.mark.parametrize("core", [SMALL_CORE, LARGE_CORE],
                         ids=["small", "large"])
def test_simulation_cost_per_evaluation(benchmark, core):
    """Time one knob-config evaluation (generation + simulation)."""
    program = generate_test_case(_KNOBS)

    def one_evaluation():
        GLOBAL_ARTIFACT_CACHE.clear()  # each round pays the full pipeline
        return Simulator(core).run(program, instructions=8_000)

    stats = benchmark(one_evaluation)
    assert stats.ipc > 0


def test_design_space_corners_behave():
    """Sanity: the Large core outruns the Small core on compute."""
    compute = dict(_KNOBS, ADD=10, MUL=0, FADDD=0, FMULD=0, BEQ=0, BNE=0,
                   LD=0, LW=0, SD=0, SW=0, REG_DIST=10, B_PATTERN=0.0)
    program = generate_test_case(compute)
    small_ipc = Simulator(SMALL_CORE).run(program).ipc
    large_ipc = Simulator(LARGE_CORE).run(program).ipc
    print(f"compute-bound IPC: small {small_ipc:.2f}, large {large_ipc:.2f}")
    assert large_ipc > small_ipc
