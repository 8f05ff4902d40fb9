"""Shared simulator-test helpers: synthetic traces, batch-of-one and
every-engine runners for the stage-2 engines, and an idle program."""

import numpy as np

from repro.codegen import generate_test_case
from repro.sim.events import (
    ENGINES,
    MemoryEvents,
    simulate_branches_batch,
    simulate_memory_batch,
)
from repro.sim.trace import ExpandedTrace


def memory_events(core, trace, warmup, engine=None) -> MemoryEvents:
    """One core's memory events: a batch of one."""
    [events] = simulate_memory_batch([core], trace, [warmup], engine=engine)
    return events


def branch_events(core, trace, warmup, engine=None) -> tuple[int, int]:
    """One core's (mispredicts, lookups): a batch of one."""
    [result] = simulate_branches_batch(
        [core], trace, [warmup], engine=engine
    )
    return result


def mem_trace(lines, pcs=None, stores=None, line_bytes=64) -> ExpandedTrace:
    """A synthetic one-access-per-iteration memory trace."""
    n = len(lines)
    return ExpandedTrace(
        iterations=n,
        loop_size=1,
        line_bytes=line_bytes,
        mem_pcs=np.asarray(
            pcs if pcs is not None else [4] * n, dtype=np.int64
        ),
        mem_lines=np.asarray(lines, dtype=np.int64),
        mem_is_store=np.asarray(
            stores if stores is not None else [False] * n, dtype=bool
        ),
        branch_pcs=np.empty(0, dtype=np.int64),
        branch_outcomes=np.empty(0, dtype=bool),
        class_counts={},
    )


def branch_trace(pcs, outcomes) -> ExpandedTrace:
    """A synthetic one-branch-per-iteration outcome trace."""
    n = len(pcs)
    return ExpandedTrace(
        iterations=n,
        loop_size=1,
        line_bytes=64,
        mem_pcs=np.empty(0, dtype=np.int64),
        mem_lines=np.empty(0, dtype=np.int64),
        mem_is_store=np.empty(0, dtype=bool),
        branch_pcs=np.asarray(pcs, dtype=np.int64),
        branch_outcomes=np.asarray(outcomes, dtype=bool),
        class_counts={},
    )


def loop_branch_trace(site_pcs, iterations, outcomes) -> ExpandedTrace:
    """A synthetic branch trace of ``iterations`` loop iterations over
    the same ``site_pcs`` (iteration-major, like an expanded program)."""
    return ExpandedTrace(
        iterations=iterations,
        loop_size=len(site_pcs),
        line_bytes=64,
        mem_pcs=np.empty(0, dtype=np.int64),
        mem_lines=np.empty(0, dtype=np.int64),
        mem_is_store=np.empty(0, dtype=bool),
        branch_pcs=np.tile(np.asarray(site_pcs, dtype=np.int64), iterations),
        branch_outcomes=np.asarray(outcomes, dtype=bool),
        class_counts={},
    )


def memory_events_every_engine(core, trace, warmup) -> MemoryEvents:
    """One core's memory events, asserted equal under every engine."""
    first, *rest = (
        memory_events(core, trace, warmup, engine=engine)
        for engine in ENGINES
    )
    assert all(events == first for events in rest)
    return first


def branch_events_every_engine(core, trace, warmup) -> tuple[int, int]:
    """One core's (mispredicts, lookups), asserted equal under every
    engine."""
    first, *rest = (
        branch_events(core, trace, warmup, engine=engine)
        for engine in ENGINES
    )
    assert all(result == first for result in rest)
    return first


def idle_program():
    """A generated loop with no memory accesses and no branches."""
    return generate_test_case(dict(ADD=4, MUL=1))
