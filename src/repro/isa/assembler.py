"""Textual assembly writer.

The paper's framework emits a compilable test-case binary; in this
reproduction the simulator consumes :class:`~repro.isa.program.Program`
objects directly, and this module provides the human-readable equivalent of
the emitted assembly for inspection, diffing and archival (the "clone
binary" output of Section III-F).
"""

from __future__ import annotations

from dataclasses import replace

from repro.isa.program import Instruction, Program


def _operand_string(instr: Instruction) -> str:
    idef = instr.idef
    parts = [r.name for r in instr.dests]
    if idef.is_memory:
        # Loads/stores use base+offset addressing: reg, imm(base).
        base = instr.srcs[-1].name if instr.srcs else "x0"
        data = [r.name for r in (instr.dests if idef.num_dst else instr.srcs[:-1])]
        offset = instr.immediate or 0
        return ", ".join(data + [f"{offset}({base})"])
    parts += [r.name for r in instr.srcs]
    if idef.is_branch:
        target = instr.immediate if instr.immediate is not None else 0
        parts.append(f".L{target:x}" if target else "loop")
    elif idef.has_immediate and instr.immediate is not None:
        parts.append(str(instr.immediate))
    return ", ".join(parts)


def instruction_to_asm(instr: Instruction) -> str:
    """Render one instruction as an assembly line (without label)."""
    ops = _operand_string(instr)
    text = instr.mnemonic.lower() if not ops else f"{instr.mnemonic.lower()} {ops}"
    if instr.comment:
        text = f"{text:<40}# {instr.comment}"
    return text


def program_to_asm(program: Program) -> str:
    """Render a whole program as GNU-assembler-flavoured text.

    The output is an endless loop: a ``loop:`` label at the top and the
    implicit back edge noted at the bottom, mirroring the shape of the
    paper's generated test cases.  A branch to the entry address names
    ``loop``; a branch to another instruction's address names a
    ``.L<hex>:`` label defined before that instruction.
    """
    entry = program.entry_address
    targets = {i.immediate for i in program if i.idef.is_branch} - {entry}
    lines = [
        "    .text",
        "    .globl _start",
        "_start:",
        "loop:",
    ]
    for instr in program.body:
        if instr.address is not None and instr.address in targets:
            lines.append(f".L{instr.address:x}:")
        if instr.label:
            lines.append(f"{instr.label}:")
        addr = f"{instr.address:#08x}" if instr.address is not None else " " * 8
        if instr.idef.is_branch and instr.immediate == entry:
            instr = replace(instr, immediate=None)  # renders as ``loop``
        lines.append(f"    {instruction_to_asm(instr)}    /* {addr} */")
    lines.append("    j loop                              # endless loop back edge")
    return "\n".join(lines) + "\n"
