"""Dynamic trace expansion.

Generated test cases are fixed loop bodies, so the dynamic trace is the
static body repeated ``K`` iterations with per-iteration memory addresses
and branch outcomes expanded from the program's memory and branch
tables (the columns of each instruction's declarative
:class:`~repro.isa.program.MemoryAccess` / ``BranchBehavior``).
Expansion is one vectorized pass per event kind: every memory
instruction's addresses come from one ``(K, M)`` evaluation
(:func:`~repro.isa.program.address_matrix`) and every branch outcome
from one ``(K, B)`` evaluation
(:func:`~repro.isa.program.outcome_matrix`), flattened row-major into
dynamic order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.isa.instructions import InstrClass
from repro.isa.program import (
    NONE,
    OP_IS_STORE,
    Program,
    address_matrix,
    outcome_matrix,
)


@dataclass
class ExpandedTrace:
    """The dynamic trace of ``iterations`` runs of a loop body.

    Memory and branch event arrays are flattened in dynamic order
    (iteration-major, program order within an iteration).

    Attributes:
        iterations: number of loop iterations expanded.
        loop_size: static instructions per iteration.
        mem_pcs / mem_lines / mem_is_store: one entry per dynamic memory
            access (line addresses use the given line size).
        branch_pcs / branch_outcomes: one entry per dynamic conditional
            branch instance.
        class_counts: dynamic instruction count per class.
    """

    iterations: int
    loop_size: int
    line_bytes: int
    mem_pcs: np.ndarray
    mem_lines: np.ndarray
    mem_is_store: np.ndarray
    branch_pcs: np.ndarray
    branch_outcomes: np.ndarray
    class_counts: dict[InstrClass, int]
    #: Memoized minimal iteration period of the memory access pattern
    #: (see repro.sim.events._trace_period); None until first computed.
    #: Core-independent, so one detection serves a whole config sweep.
    min_period: int | None = field(default=None, repr=False)

    @property
    def total_instructions(self) -> int:
        return self.iterations * self.loop_size


def expand(program: Program, iterations: int, line_bytes: int = 64) -> ExpandedTrace:
    """Expand ``iterations`` loop iterations of ``program`` into a trace.

    Args:
        program: a generated (validated) test case.
        iterations: loop iterations to expand (>= 1).
        line_bytes: cache line size used for line-address conversion.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    # An instruction without an address expands at PC 0.
    pcs = np.where(program.addresses == NONE, 0, program.addresses)
    mem = program.memory
    # (K, M) address matrix, flattened row-major: iteration-major,
    # program order within an iteration.
    lines = address_matrix(mem, iterations).reshape(-1) // line_bytes
    mem_pcs = np.tile(pcs[mem["slot"]], iterations)
    stores = np.tile(OP_IS_STORE[program.ops[mem["slot"]]], iterations)

    branches = program.branches
    outcomes = outcome_matrix(
        branches, program.patterns, iterations
    ).reshape(-1)
    br_pcs = np.tile(pcs[branches["slot"]], iterations)

    static_counts = program.class_counts()
    class_counts = {c: n * iterations for c, n in static_counts.items()}

    return ExpandedTrace(
        iterations=iterations,
        loop_size=len(program),
        line_bytes=line_bytes,
        mem_pcs=mem_pcs,
        mem_lines=lines,
        mem_is_store=stores,
        branch_pcs=br_pcs,
        branch_outcomes=outcomes,
        class_counts=class_counts,
    )
