"""Register dependency-graph analysis of the loop body.

The timing model needs the data-dependency throughput bound: the critical
path length added per loop iteration in steady state, including loop-carried
dependencies.  Unrolling the body a few iterations and taking the increment
of the longest finish time converges to that bound because the dependence
structure is periodic.

The dynamic program runs over plain lists: each register gets a dense
int id, looked up by ``2 * index + (kind is FP)`` (so ``x5`` and ``f5``
stay apart without hashing a :class:`~repro.isa.registers.Register`),
and each instruction becomes one ``(source ids, latency, destination
ids)`` row.
"""

from __future__ import annotations

from repro.isa.instructions import InstrClass
from repro.isa.program import Program
from repro.isa.registers import RegisterKind
from repro.sim.config import CoreConfig


def instruction_latency(iclass_latency: int, iclass: InstrClass,
                        core: CoreConfig) -> float:
    """Effective dataflow latency of one instruction.

    Loads use the L1D hit latency (miss stalls are charged separately by
    the interval model); everything else uses its definition latency.
    """
    if iclass is InstrClass.LOAD:
        return float(core.l1d.latency)
    if iclass is InstrClass.STORE:
        return 1.0
    return float(iclass_latency)


def critical_path_per_iteration(
    program: Program, core: CoreConfig, unroll: int = 6
) -> float:
    """Steady-state critical path cycles added per loop iteration.

    Performs longest-path dynamic programming over ``unroll`` copies of the
    body, honouring register dependencies (including loop-carried ones),
    and returns the increment between the last two iterations' completion
    times.

    Raises:
        ValueError: if ``unroll`` is below 1.
    """
    if unroll < 1:
        raise ValueError("unroll must be >= 1")
    if not program.body:
        return 0.0
    fp = RegisterKind.FP
    # Register key 2 * index + (kind is FP) -> dense id, by first use.
    ids: dict[int, int] = {}
    rows = [
        (
            [ids.setdefault(2 * r.index + (r.kind is fp), len(ids))
             for r in instr.srcs],
            instruction_latency(instr.idef.latency, instr.idef.iclass, core),
            [ids.setdefault(2 * r.index + (r.kind is fp), len(ids))
             for r in instr.dests],
        )
        for instr in program.body
    ]
    last_write = [0.0] * len(ids)
    finish_max = previous = 0.0
    for _ in range(unroll):
        previous = finish_max
        for srcs, latency, dests in rows:
            ready = 0.0
            for src in srcs:
                if last_write[src] > ready:
                    ready = last_write[src]
            finish = ready + latency
            for dst in dests:
                last_write[dst] = finish
            if finish > finish_max:
                finish_max = finish
    # With unroll == 1, previous is 0.0 and this is the one iteration's
    # completion time.
    return max(0.0, finish_max - previous)
