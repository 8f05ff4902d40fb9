"""Interval-analysis timing model.

Combines throughput bounds (front-end width, functional-unit contention,
data-dependency chains) with miss-event penalties (branch mispredicts,
I-cache fills, load/store misses with memory-level-parallelism overlap)
into a cycle count — the standard cycle-approximate substitute for a
detailed out-of-order simulator, preserving Gem5-like sensitivities.

:func:`compute_cycles` evaluates one core; :func:`compute_cycles_batch`
is stage 3 of the staged pipeline, one :func:`compute_cycles` call per
core of a sweep.  A stage-3 batch is small (nearly always one core during
tuning, 16 in the benchmark's core sweep): too small for a numpy column
layout to pay for itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.isa.instructions import InstrClass
from repro.sim.config import CoreConfig

#: Unpipelined units occupy their pipe for several cycles; these factors
#: convert a divide into equivalent issue slots.
DIV_OCCUPANCY = 8.0
FP_DIV_OCCUPANCY = 9.0


@dataclass
class MissProfile:
    """Dynamic miss/mispredict event counts for the measurement window."""

    branch_mispredicts: int = 0
    icache_l1_misses: int = 0
    icache_l2_misses: int = 0
    load_l1_misses: int = 0
    load_l2_misses: int = 0
    store_l1_misses: int = 0
    store_l2_misses: int = 0
    dtlb_misses: int = 0


#: Page-walk latency charged per DTLB miss (cycles).
TLB_WALK_LATENCY = 30.0

#: Throughput-bound names, in the tie-breaking order the binding bound
#: is chosen (first maximal bound wins).
BOUND_NAMES = ("width", "alu", "simd", "fp", "mem_ports")


@dataclass
class IntervalResult:
    """One core's timing-model output.

    Attributes:
        cycles: total cycles for the measurement window.
        breakdown: cycle contribution per component (base + each penalty
            class); purely numeric, so consumers may sum or plot
            ``breakdown.values()`` directly.
        binding_bound: name of the binding throughput bound (one of
            :data:`BOUND_NAMES`, or ``"dependency"`` when the critical
            path dominates).  Kept out of ``breakdown`` so the dict
            stays ``dict[str, float]``.
    """

    cycles: float
    breakdown: dict[str, float]
    binding_bound: str


def effective_mlp(core: CoreConfig, dependency_distance: float,
                  parallel_streams: int = 1) -> float:
    """Memory-level parallelism the window can sustain.

    Independent chains (dependency distance) and distinct streams expose
    parallel misses; the LSQ bounds how many can be outstanding.
    """
    exposed = 1.0 + 0.6 * max(0.0, dependency_distance - 1.0)
    exposed *= max(1, parallel_streams) ** 0.25
    return max(1.0, min(exposed, core.lsq / 4.0))


def throughput_cpi(core: CoreConfig, class_counts: dict[InstrClass, int],
                   total: int) -> dict[str, float]:
    """Per-resource cycles-per-instruction lower bounds."""
    n = max(1, total)
    count = lambda *cs: sum(class_counts.get(c, 0) for c in cs)

    alu_slots = count(InstrClass.INT_ALU, InstrClass.BRANCH, InstrClass.NOP)
    simd_slots = (
        count(InstrClass.INT_MUL) + DIV_OCCUPANCY * count(InstrClass.INT_DIV)
    )
    fp_slots = (
        count(InstrClass.FP_ADD, InstrClass.FP_MUL)
        + FP_DIV_OCCUPANCY * count(InstrClass.FP_DIV)
    )
    mem_slots = count(InstrClass.LOAD, InstrClass.STORE)

    return {
        "width": 1.0 / core.front_end_width,
        "alu": alu_slots / (core.alu_units * n),
        "simd": simd_slots / (core.simd_units * n),
        "fp": fp_slots / (core.fp_units * n),
        "mem_ports": mem_slots / (core.mem_ports * n),
    }


@dataclass
class IntervalInputs:
    """One core's inputs to the interval model.

    ``Simulator.run_many`` produces one of these per core config from a
    shared :class:`~repro.sim.artifact.TraceArtifact` (stages 1-2) and
    hands the whole batch to :func:`compute_cycles_batch` (stage 3).
    """

    core: CoreConfig
    total_instructions: int
    class_counts: dict[InstrClass, int]
    dep_cycles_per_iteration: float
    loop_size: int
    misses: MissProfile = field(default_factory=MissProfile)
    dependency_distance: float = 4.0
    parallel_streams: int = 1


def compute_cycles_batch(
    batch: Sequence[IntervalInputs],
) -> list[IntervalResult]:
    """Evaluate a batch of core configs through the interval model.

    Returns:
        One :class:`IntervalResult` per input, in input order — each the
        :func:`compute_cycles` result for that input's fields.
    """
    if not batch:
        return []
    with obs.span("interval.batch"):
        return [
            compute_cycles(
                inputs.core,
                inputs.total_instructions,
                inputs.class_counts,
                inputs.dep_cycles_per_iteration,
                inputs.loop_size,
                inputs.misses,
                dependency_distance=inputs.dependency_distance,
                parallel_streams=inputs.parallel_streams,
            )
            for inputs in batch
        ]


def compute_cycles(
    core: CoreConfig,
    total_instructions: int,
    class_counts: dict[InstrClass, int],
    dep_cycles_per_iteration: float,
    loop_size: int,
    misses: MissProfile,
    dependency_distance: float = 4.0,
    parallel_streams: int = 1,
) -> IntervalResult:
    """Total cycles for the measurement window, with a breakdown.

    Returns:
        An :class:`IntervalResult`; ``breakdown`` maps component names
        to numeric cycle contributions, and the binding throughput bound
        travels separately in ``binding_bound``.
    """
    if total_instructions <= 0:
        raise ValueError("total_instructions must be positive")

    bounds = throughput_cpi(core, class_counts, total_instructions)
    dep_cpi = dep_cycles_per_iteration / max(1, loop_size)
    base_cpi = max(max(bounds.values()), dep_cpi)
    base_cycles = total_instructions * base_cpi

    mlp = effective_mlp(core, dependency_distance, parallel_streams)
    l2_fill = max(0, core.l2.latency - core.l1d.latency)

    load_stall = (
        misses.load_l1_misses * l2_fill
        + misses.load_l2_misses * core.memory_latency
    ) / mlp
    # Stores retire through the store buffer; only a fraction of their miss
    # latency surfaces as pipeline stall (write-allocate port pressure).
    store_stall = 0.15 * (
        misses.store_l1_misses * l2_fill
        + misses.store_l2_misses * core.memory_latency
    ) / mlp

    branch_stall = misses.branch_mispredicts * core.mispredict_penalty
    icache_stall = (
        misses.icache_l1_misses * core.l2.latency
        + misses.icache_l2_misses * core.memory_latency
    )
    # Page walks overlap less than data misses (translations serialize
    # the dependent access), so only half the MLP applies.
    tlb_stall = misses.dtlb_misses * TLB_WALK_LATENCY / max(1.0, mlp / 2.0)

    breakdown = {
        "base": base_cycles,
        "load_miss": load_stall,
        "store_miss": store_stall,
        "branch_mispredict": branch_stall,
        "icache": icache_stall,
        "dtlb": tlb_stall,
    }
    binding_bound = (
        max(bounds, key=bounds.get)
        if max(bounds.values()) >= dep_cpi else "dependency"
    )
    cycles = (base_cycles + load_stall + store_stall + branch_stall
              + icache_stall + tlb_stall)
    return IntervalResult(
        cycles=cycles, breakdown=breakdown, binding_bound=binding_bound
    )
