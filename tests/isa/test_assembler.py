"""Unit tests for the assembly writer."""

import pytest

from repro.codegen import generate_test_case
from repro.codegen.phased import generate_phased_test_case
from repro.isa.assembler import instruction_to_asm, program_to_asm
from repro.isa.instructions import instruction_def
from repro.isa.program import (
    BranchBehavior,
    Instruction,
    MemoryAccess,
    Program,
)
from repro.isa.registers import Register, RegisterKind


def _knobs(**overrides):
    base = dict(ADD=4, MUL=1, BEQ=1, LD=2, SD=1, REG_DIST=3,
                MEM_SIZE=64, B_PATTERN=0.2)
    base.update(overrides)
    return base


class TestInstructionToAsm:
    def test_alu_format(self):
        instr = Instruction(
            idef=instruction_def("ADD"),
            dests=[Register(RegisterKind.INT, 1)],
            srcs=[Register(RegisterKind.INT, 2), Register(RegisterKind.INT, 3)],
        )
        assert instruction_to_asm(instr) == "add x1, x2, x3"

    def test_load_uses_base_offset_form(self):
        instr = Instruction(
            idef=instruction_def("LD"),
            dests=[Register(RegisterKind.INT, 6)],
            srcs=[Register(RegisterKind.INT, 2)],
            immediate=16,
            memory=MemoryAccess(stream_id=1, base=0, footprint=64, stride=8),
        )
        assert instruction_to_asm(instr) == "ld x6, 16(x2)"

    def test_branch_names_loop_target(self):
        instr = Instruction(
            idef=instruction_def("BEQ"),
            srcs=[Register(RegisterKind.INT, 1), Register(RegisterKind.INT, 2)],
            branch=BranchBehavior(),
        )
        text = instruction_to_asm(instr)
        assert text.startswith("beq x1, x2")

    def test_comment_is_carried(self):
        instr = Instruction(
            idef=instruction_def("NOP"), comment="filler"
        )
        assert "# filler" in instruction_to_asm(instr)


class TestProgramToAsm:
    def test_full_program_shape(self):
        program = generate_test_case(_knobs())
        text = program_to_asm(program)
        lines = text.splitlines()
        assert lines[0].strip() == ".text"
        assert "loop:" in text
        assert lines[-1].startswith("    j loop")
        # One line per instruction plus the wrapper lines.
        assert len(lines) == len(program) + 5

    def test_every_instruction_has_its_pc_annotated(self):
        program = generate_test_case(_knobs())
        text = program_to_asm(program)
        assert text.count("/* 0x") == len(program)

    def test_asm_is_deterministic(self):
        a = program_to_asm(generate_test_case(_knobs()))
        b = program_to_asm(generate_test_case(_knobs()))
        assert a == b

    @pytest.mark.parametrize("build", [
        lambda: generate_test_case(_knobs()),
        lambda: generate_phased_test_case(
            [_knobs(), _knobs(ADD=1, BEQ=3, REG_DIST=1)]
        ),
        # A forward branch to the third instruction, then a back edge.
        lambda: Program(body=[
            Instruction(instruction_def(m), address=0x10000 + 4 * n,
                        immediate=target, srcs=srcs,
                        branch=BranchBehavior() if srcs else None)
            for n, (m, target, srcs) in enumerate([
                ("BEQ", 0x10008, [Register(RegisterKind.INT, 1)] * 2),
                ("NOP", None, []),
                ("NOP", None, []),
                ("BNE", 0x10000, [Register(RegisterKind.INT, 2)] * 2),
            ])
        ]),
    ], ids=["generated", "phased", "forward-branch"])
    def test_every_branch_target_label_is_defined(self, build):
        text = program_to_asm(build())
        defined = {line[:-1] for line in text.splitlines()
                   if line.endswith(":")}
        named = [line.split()[-4] for line in text.splitlines()
                 if line.split()[0] in ("beq", "bne")]
        assert named
        assert set(named) <= defined, sorted(set(named) - defined)
