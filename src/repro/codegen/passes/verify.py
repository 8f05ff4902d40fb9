"""Final structural verification pass."""

from __future__ import annotations

from repro.codegen.synthesizer import GenerationContext, Pass
from repro.isa.program import NONE, Program


class VerifyProgramPass(Pass):
    """Validate the finished program (operand counts, attachments, PCs).

    Equivalent to Microprobe's built-in consistency checking: catches
    mis-ordered pipelines before the broken test case reaches the
    evaluation platform.
    """

    requires = ("register_allocation", "addresses")
    provides = ("verified",)

    def run(self, program: Program, context: GenerationContext) -> None:
        program.validate()
        if (program.addresses == NONE).any():
            raise ValueError("instruction without an address after layout")
