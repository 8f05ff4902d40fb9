"""Register dependency-graph analysis of the loop body.

The timing model needs the data-dependency throughput bound: the critical
path length added per loop iteration in steady state, including loop-carried
dependencies.  Unrolling the body a few iterations and taking the increment
of the longest finish time converges to that bound because the dependence
structure is periodic.

The dynamic program runs over plain lists built from the program's
columns: registers are the int ids ``2 * index + (kind is FP)`` the
columns already hold (so ``x5`` and ``f5`` stay apart without hashing a
:class:`~repro.isa.registers.Register`), and each instruction becomes
one ``(source ids, latency, destination ids)`` row.
"""

from __future__ import annotations

import numpy as np

from repro.isa.instructions import InstrClass
from repro.isa.program import OPS, Program
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
    if not len(program):
        return 0.0
    latency_of = [
        instruction_latency(d.latency, d.iclass, core) for d in OPS
    ]
    # Operand pads (-1) become two extra register slots: sources read
    # ``top``, which is never written (0.0 never raises ``ready``), and
    # destinations write ``top + 1``, which is never read.
    top = int(max(program.srcs.max(initial=-1),
                  program.dests.max(initial=-1))) + 1
    rows = list(zip(
        np.where(program.srcs < 0, top, program.srcs).tolist(),
        [latency_of[op] for op in program.ops.tolist()],
        np.where(program.dests < 0, top + 1, program.dests).tolist(),
    ))
    last_write = [0.0] * (top + 2)
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
