"""Address update pass (``UpdateInstructionAddressesPass`` in Listing 2)."""

from __future__ import annotations

import numpy as np

from repro.codegen.synthesizer import GenerationContext, Pass
from repro.isa.program import NONE, OP_IS_BRANCH, Program

#: RISC-V fixed 4-byte encoding.
INSTRUCTION_BYTES = 4


class UpdateInstructionAddressesPass(Pass):
    """Assign sequential PCs starting at the program entry point.

    Branch immediates are pointed at the loop top (the generated test cases
    are single endless loops, so intra-loop branch targets reduce to the
    back edge in this substrate).
    """

    requires = ("building_block",)
    provides = ("addresses",)

    def __init__(self, instruction_bytes: int = INSTRUCTION_BYTES):
        self.instruction_bytes = instruction_bytes

    def run(self, program: Program, context: GenerationContext) -> None:
        entry = program.entry_address
        n = len(program)
        program.addresses = entry + self.instruction_bytes * np.arange(
            n, dtype=np.int64
        )
        program.immediates = np.where(
            OP_IS_BRANCH[program.ops] & (program.immediates == NONE),
            entry, program.immediates,
        )
        program.metadata["code_bytes"] = self.instruction_bytes * n
