"""Property tests: stage 1 equals scalar oracles, bit for bit.

Trace expansion evaluates every memory address in one ``(K, M)`` matrix
and every branch outcome in one ``(K, B)`` matrix, and the critical
path runs its dynamic program over dense register ids.  The oracles
here are the plain-Python definitions those replace: the documented
address formula evaluated one access at a time, two separate
``random(K)`` draws from a ``default_rng(seed)`` per randomized branch,
numpy's own ``SeedSequence`` per seed, and the register-keyed dict DP.
Equality is exact, dtype included.
"""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.isa.instructions import INSTRUCTION_SET, InstrClass, instruction_def
from repro.isa.program import (
    BranchBehavior,
    Instruction,
    MemoryAccess,
    Program,
    _seed_states,
)
from repro.isa.registers import Register, RegisterKind
from repro.sim.config import LARGE_CORE, SMALL_CORE
from repro.sim.depgraph import critical_path_per_iteration, instruction_latency
from repro.sim.trace import expand

# -- oracles --------------------------------------------------------------


def oracle_index(mem: MemoryAccess, t: int) -> int:
    """``index(t)``: position ``phase + step * t`` of the stream walk,
    revisiting windows of ``reuse_count`` elements ``reuse_period``
    times each."""
    position = mem.phase + mem.step * t
    window = mem.reuse_count * mem.reuse_period
    return (position // window) * mem.reuse_count + (
        position % window
    ) % mem.reuse_count


def oracle_address(mem: MemoryAccess, t: int) -> int:
    return mem.base + (oracle_index(mem, t) * mem.stride) % mem.footprint


def oracle_outcomes(branch: BranchBehavior, iterations: int) -> list[bool]:
    """Base pattern, with iteration ``t`` replaced by a coin flip when
    the first ``random(K)`` draw fires; the coin is the second draw."""
    pattern = [branch.pattern[t % len(branch.pattern)]
               for t in range(iterations)]
    if branch.random_ratio == 0.0:
        return pattern
    rng = np.random.default_rng(branch.seed)
    randomized = rng.random(iterations)
    coins = rng.random(iterations)
    return [
        bool(coins[t] < branch.taken_bias)
        if randomized[t] < branch.random_ratio else pattern[t]
        for t in range(iterations)
    ]


def oracle_critical_path(program: Program, core, unroll: int) -> float:
    """The register-keyed dict DP the dense-id version replaced."""
    if not program.body:
        return 0.0
    last_write: dict = {}
    totals: list[float] = []
    finish_max = 0.0
    for _ in range(unroll):
        for instr in program.body:
            ready = 0.0
            for src in instr.srcs:
                ready = max(ready, last_write.get(src, 0.0))
            finish = ready + instruction_latency(
                instr.idef.latency, instr.iclass, core
            )
            for dst in instr.dests:
                last_write[dst] = finish
            if finish > finish_max:
                finish_max = finish
        totals.append(finish_max)
    if len(totals) < 2:
        return totals[0]
    return max(0.0, totals[-1] - totals[-2])


# -- strategies -----------------------------------------------------------

memory_accesses = st.builds(
    MemoryAccess,
    stream_id=st.integers(0, 8),
    base=st.integers(0, 1 << 34),
    footprint=st.integers(1, 1 << 22),
    stride=st.integers(1, 4096),
    reuse_count=st.integers(1, 64),
    reuse_period=st.integers(1, 16),
    phase=st.integers(0, 600),
    step=st.integers(1, 600),
)

branch_behaviors = st.builds(
    BranchBehavior,
    pattern=st.lists(st.booleans(), min_size=1, max_size=9).map(tuple),
    random_ratio=st.one_of(
        st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)
    ),
    # Seeds from 2**32 up take two entropy words.
    seed=st.integers(0, 2**63 - 1),
    taken_bias=st.floats(0.0, 1.0),
)

MEMORY_MNEMONICS = ("LD", "LW", "FLD", "SD", "SW", "FSD")


@st.composite
def trace_programs(draw):
    """A body mixing memory instructions, branches and ALU filler, each
    at its sequential address from the default entry point."""
    kinds = draw(st.lists(st.sampled_from(["mem", "br", "alu"]),
                          min_size=1, max_size=24))
    entry = Program().entry_address
    body = []
    for n, kind in enumerate(kinds):
        address = entry + 4 * n
        if kind == "mem":
            instr = Instruction(
                instruction_def(draw(st.sampled_from(MEMORY_MNEMONICS))),
                address=address,
                memory=draw(memory_accesses),
            )
        elif kind == "br":
            instr = Instruction(instruction_def("BEQ"), address=address,
                                branch=draw(branch_behaviors))
        else:
            instr = Instruction(instruction_def("ADD"), address=address)
        body.append(instr)
    return Program(body=body)


registers = st.builds(
    Register,
    kind=st.sampled_from(list(RegisterKind)),
    index=st.integers(0, 40),
)


@st.composite
def dependency_programs(draw):
    """Arbitrary operand lists: ``x<i>`` beside ``f<i>``, indices past
    31, and instructions with no sources or no destinations."""
    defs = st.sampled_from(sorted(INSTRUCTION_SET.values(),
                                  key=lambda d: d.mnemonic))
    body = [
        Instruction(
            draw(defs),
            dests=draw(st.lists(registers, max_size=2)),
            srcs=draw(st.lists(registers, max_size=3)),
        )
        for _ in range(draw(st.integers(1, 30)))
    ]
    return Program(body=body)


cores = st.one_of(
    st.sampled_from([SMALL_CORE, LARGE_CORE]),
    st.integers(1, 12).map(
        lambda latency: replace(
            SMALL_CORE, l1d=replace(SMALL_CORE.l1d, latency=latency)
        )
    ),
)

iteration_counts = st.integers(1, 500)


# -- tests ----------------------------------------------------------------


class TestExpansionMatchesOracle:
    @given(trace_programs(), iteration_counts,
           st.sampled_from([16, 32, 64, 128]))
    @settings(max_examples=80, deadline=None)
    def test_expand_columns(self, program, iterations, line_bytes):
        trace = expand(program, iterations, line_bytes=line_bytes)
        mems = program.memory_instructions()
        branches = program.branch_instructions()
        outcomes = [oracle_outcomes(b.branch, iterations) for b in branches]
        expected = {
            "mem_pcs": np.array(
                [m.address for _ in range(iterations) for m in mems],
                dtype=np.int64),
            "mem_lines": np.array(
                [oracle_address(m.memory, t) // line_bytes
                 for t in range(iterations) for m in mems],
                dtype=np.int64),
            "mem_is_store": np.array(
                [m.iclass is InstrClass.STORE
                 for _ in range(iterations) for m in mems],
                dtype=bool),
            "branch_pcs": np.array(
                [b.address for _ in range(iterations) for b in branches],
                dtype=np.int64),
            "branch_outcomes": np.array(
                [column[t] for t in range(iterations) for column in outcomes],
                dtype=bool),
        }
        for name, want in expected.items():
            got = getattr(trace, name)
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name
            assert np.array_equal(got, want), name
        assert trace.class_counts == {
            c: n * iterations for c, n in program.class_counts().items()
        }

    @given(memory_accesses, iteration_counts)
    @settings(max_examples=80, deadline=None)
    def test_memory_methods(self, mem, iterations):
        indices = mem.indices(iterations)
        addresses = mem.addresses(iterations)
        assert indices.dtype == addresses.dtype == np.int64
        assert indices.tolist() == [
            oracle_index(mem, t) for t in range(iterations)
        ]
        assert addresses.tolist() == [
            oracle_address(mem, t) for t in range(iterations)
        ]

    @given(branch_behaviors, iteration_counts)
    @settings(max_examples=80, deadline=None)
    def test_branch_outcomes_method(self, branch, iterations):
        outcomes = branch.outcomes(iterations)
        assert outcomes.dtype == bool
        assert outcomes.tolist() == oracle_outcomes(branch, iterations)


class TestSeedStatesMatchNumpy:
    @given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=40))
    @example([0, 1, 2**32 - 1, 2**32, 2**63 - 1])
    @settings(max_examples=100, deadline=None)
    def test_equals_seed_sequence(self, seeds):
        states = _seed_states(np.array(seeds, dtype=np.int64))
        assert states.dtype == np.uint64
        assert states.tolist() == [
            np.random.SeedSequence(s).generate_state(4, np.uint64).tolist()
            for s in seeds
        ]


class TestCriticalPathMatchesOracle:
    @given(dependency_programs(), cores, st.integers(1, 8))
    @settings(max_examples=150, deadline=None)
    def test_equals_dict_dp(self, program, core, unroll):
        assert critical_path_per_iteration(
            program, core, unroll=unroll
        ) == oracle_critical_path(program, core, unroll)
