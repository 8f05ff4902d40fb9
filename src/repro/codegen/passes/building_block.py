"""Loop skeleton pass (``SimpleBuildingBlockPass`` in Listing 2)."""

from __future__ import annotations

import numpy as np

from repro.codegen.synthesizer import GenerationContext, Pass
from repro.isa.program import OP_IDS, Program


class SimpleBuildingBlockPass(Pass):
    """Create a container (loop body) of ``loop_size`` placeholder slots.

    The placeholders are NOPs; the instruction-profile pass rewrites them.
    The paper's test cases use ~500 static instructions in an endless loop.
    """

    provides = ("building_block",)

    def __init__(self, loop_size: int):
        if loop_size < 1:
            raise ValueError("loop_size must be >= 1")
        self.loop_size = loop_size

    def run(self, program: Program, context: GenerationContext) -> None:
        program.reset(np.full(self.loop_size, OP_IDS["NOP"]))
        program.metadata["loop_size"] = self.loop_size
