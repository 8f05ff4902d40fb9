"""Memory stream pass (``GenericMemoryStreamsPass`` in Listing 2).

Distributes the program's loads and stores over a set of strided memory
streams.  Each stream is described the way Listing 2 writes it —
``[stream_id, size, ratio, stride, reuse_count, reuse_period]`` — and
every memory instruction assigned to a stream receives a row of the
program's memory table (the fields of a declarative
:class:`~repro.isa.program.MemoryAccess`) from which the simulator
expands concrete addresses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codegen.synthesizer import GenerationContext, Pass
from repro.isa.program import MEMORY_DTYPE, OP_IS_MEMORY, Program

#: Streams are laid out in a 1 GB region (Table II: Memory 1GB) with
#: separation so distinct streams never alias.
_STREAM_REGION_BASE = 0x1000_0000
_STREAM_REGION_SIZE = 0x0400_0000  # 64 MB per stream slot


@dataclass(frozen=True)
class StreamSpec:
    """One memory stream: footprint/stride/locality knob values.

    Attributes:
        stream_id: stable identifier (also selects the address region).
        size: footprint in bytes.
        ratio: weight of this stream when distributing memory instructions.
        stride: bytes between consecutive distinct accesses.
        reuse_count: distinct addresses per temporal-reuse window.
        reuse_period: sweeps of each window before moving on.
    """

    stream_id: int
    size: int
    ratio: float
    stride: int
    reuse_count: int = 1
    reuse_period: int = 1

    def __post_init__(self) -> None:
        if self.size <= 0 or self.stride <= 0:
            raise ValueError("stream size and stride must be positive")
        if self.ratio < 0:
            raise ValueError("stream ratio must be non-negative")
        if self.size > _STREAM_REGION_SIZE:
            raise ValueError(
                f"stream footprint {self.size} exceeds the region size"
            )


class GenericMemoryStreamsPass(Pass):
    """Assign loads/stores to streams proportionally to stream ratios.

    Accepts either :class:`StreamSpec` objects or the raw Listing 2 list
    form ``[id, size, ratio, stride, reuse_count, reuse_period]``.
    """

    requires = ("profile",)
    provides = ("memory_streams",)

    def __init__(self, streams: list[StreamSpec | list]):
        self.streams = [
            s if isinstance(s, StreamSpec) else StreamSpec(*s) for s in streams
        ]
        if not self.streams:
            raise ValueError("at least one memory stream is required")
        if sum(s.ratio for s in self.streams) <= 0:
            raise ValueError("stream ratios sum to zero")

    def run(self, program: Program, context: GenerationContext) -> None:
        slots = np.flatnonzero(OP_IS_MEMORY[program.ops])
        if not len(slots):
            program.metadata["memory_streams"] = []
            return
        if len(self.streams) == 1:
            picks, phases = np.zeros(len(slots), np.int64), range(len(slots))
        else:
            # Deterministic proportional assignment: walk instructions in
            # program order, assigning each to the stream furthest behind
            # its quota, so streams interleave the way Microprobe
            # interleaves them.
            total_ratio = sum(s.ratio for s in self.streams)
            assigned = {s.stream_id: 0 for s in self.streams}
            picks, phases = [], []
            for n in range(1, len(slots) + 1):
                _, pick = min(
                    (assigned[s.stream_id] - n * s.ratio / total_ratio, i)
                    for i, s in enumerate(self.streams)
                )
                stream_id = self.streams[pick].stream_id
                picks.append(pick)
                phases.append(assigned[stream_id])
                assigned[stream_id] += 1
        table = np.zeros(len(slots), dtype=MEMORY_DTYPE)
        table["slot"] = slots
        table["phase"] = phases
        fields = ("stream_id", "footprint", "stride", "reuse_count",
                  "reuse_period")
        for name, column in zip(fields, np.array(
            [(s.stream_id, s.size, s.stride, s.reuse_count, s.reuse_period)
             for s in self.streams], dtype=np.int64,
        )[picks].T):
            table[name] = column
        stream_ids = table["stream_id"]
        table["base"] = _STREAM_REGION_BASE + stream_ids * _STREAM_REGION_SIZE
        ids, members, counts = np.unique(
            stream_ids, return_inverse=True, return_counts=True
        )
        # Each stream advances collectively: every member instruction
        # steps by the stream's population per iteration.
        table["step"] = counts[members]
        program.memory = table
        population = dict(zip(ids.tolist(), counts.tolist()))
        program.metadata["memory_streams"] = [
            {
                "stream_id": s.stream_id,
                "size": s.size,
                "ratio": s.ratio,
                "stride": s.stride,
                "reuse_count": s.reuse_count,
                "reuse_period": s.reuse_period,
                "instructions": population.get(s.stream_id, 0),
            }
            for s in self.streams
        ]
