"""Structural invariants after every pass, and a guard against views.

Production validates a program once, in ``VerifyProgramPass``.  Here
every pass of the knob-level and instruction-level pipelines is followed
by a structural check of the columns it left behind, so a pass that
breaks an invariant is named in the failure instead of surfacing as a
wrong trace later.  The guard asserts that a tuning epoch never builds
``Instruction`` views: codegen and stage 1 read columns only.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import instlevel
from repro.codegen.instlevel import InstructionLevelSpace, genome_to_program
from repro.codegen.synthesizer import GenerationContext, Pass, Synthesizer
from repro.codegen.wrapper import (
    GenerationOptions,
    default_pass_list,
    generate_test_case,
)
from repro.core.config import MicroGradConfig
from repro.core.framework import MicroGrad
from repro.isa import program as program_module
from repro.isa.program import (
    OP_IS_BRANCH,
    OP_IS_MEMORY,
    OPS,
    Program,
)
from repro.sim.artifact import GLOBAL_ARTIFACT_CACHE, program_fingerprint
from tests.codegen.test_property_codegen import lattice_config

#: Register ids of the architectural files: x0-x31 and f0-f31.
REGISTER_IDS = 64


def structural_problems(program: Program) -> list[str]:
    """Invariants every pass must leave intact, whatever it has filled."""
    n = len(program.ops)
    problems = []
    for name in ("immediates", "addresses"):
        if getattr(program, name).shape != (n,):
            problems.append(f"{name} has shape {getattr(program, name).shape}")
    if not ((program.ops >= 0) & (program.ops < len(OPS))).all():
        problems.append("op id out of range")
    for name in ("srcs", "dests"):
        ids = getattr(program, name)
        if ids.ndim != 2 or ids.shape[0] != n:
            problems.append(f"{name} has shape {ids.shape}")
            continue
        if not ((ids >= -1) & (ids < REGISTER_IDS)).all():
            problems.append(f"{name} register id out of range")
        if (np.diff((ids >= 0).astype(int), axis=1) > 0).any():
            problems.append(f"{name} has an operand after a pad")
    for name, is_class in (("memory", OP_IS_MEMORY),
                           ("branches", OP_IS_BRANCH)):
        slots = getattr(program, name)["slot"]
        if (np.diff(slots) <= 0).any():
            problems.append(f"{name} rows out of slot order")
        if not ((slots >= 0) & (slots < n)).all():
            problems.append(f"{name} row slot out of range")
        elif not is_class[program.ops[slots]].all():
            problems.append(f"{name} row at a slot of another class")
    patterns = program.branches["pattern"]
    if not ((patterns >= 0) & (patterns < len(program.patterns))).all():
        problems.append("branch pattern id out of range")
    return problems


def run_checked(passes: list[Pass], seed: int) -> Program:
    """The synthesizer's pass loop, checking structure after each pass."""
    program = Program()
    context = GenerationContext(rng=np.random.default_rng(seed))
    for p in passes:
        p.run(program, context)
        context.provides.update(p.provides)
        problems = structural_problems(program)
        assert not problems, f"{p.name} broke the program: {problems}"
    return program


class CheckedSynthesizer(Synthesizer):
    """A synthesizer that checks structure after every pass."""

    def synthesize(self) -> Program:
        return run_checked(self.passes, self.seed)


class TestEveryPassKeepsStructure:
    @given(lattice_config, st.integers(1, 300), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_default_pass_list(self, config, loop_size, seed):
        options = GenerationOptions(loop_size=loop_size, seed=seed)
        checked = run_checked(default_pass_list(config, options), seed)
        assert program_fingerprint(checked) == program_fingerprint(
            generate_test_case(config, options)
        )

    @given(st.integers(2, 60), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_instruction_level_pass_list(self, length, seed):
        genome = InstructionLevelSpace(length).random_genome(
            np.random.default_rng(seed)
        )
        expected = program_fingerprint(genome_to_program(genome))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(instlevel, "Synthesizer", CheckedSynthesizer)
            assert program_fingerprint(genome_to_program(genome)) == expected

    def test_a_breaking_pass_is_named(self):
        class StrayStreamPass(Pass):
            def run(self, program, context):
                program.memory = np.resize(program.memory, 1)
                program.memory["slot"] = int(
                    np.flatnonzero(~OP_IS_MEMORY[program.ops])[0]
                )

        passes = default_pass_list(dict(ADD=1, LD=1))
        passes.insert(-1, StrayStreamPass())
        with pytest.raises(AssertionError, match="StrayStreamPass broke"):
            run_checked(passes, seed=0)


class TestNoViewsOnTheTuningPath:
    def test_a_stress_epoch_builds_no_instruction_views(self, monkeypatch):
        built = []
        build_views = program_module.instruction_views

        def counting(program):
            built.append(len(program))
            return build_views(program)

        monkeypatch.setattr(program_module, "instruction_views", counting)
        GLOBAL_ARTIFACT_CACHE.clear()
        # perfbench's gd-stress-small knobs (perfbench/workloads.py).
        mg = MicroGrad(MicroGradConfig(
            use_case="stress", metrics=("ipc",), core="small", tuner="gd",
            knobs=("ADD", "FMULD", "BEQ", "LD", "SD"),
            fixed_knobs={
                "REG_DIST": 10, "MEM_SIZE": 16, "MEM_STRIDE": 64,
                "MEM_TEMP1": 1, "MEM_TEMP2": 1, "B_PATTERN": 0.1,
                "MUL": 0, "FADDD": 0, "BNE": 0, "LW": 0, "SW": 0,
            },
            max_epochs=1, seed=0,
        ))
        try:
            result = mg.run()
        finally:
            mg.close()
        assert result.tuning.unique_evaluations > 0
        assert built == []
        # The counter is live: one view build is seen.
        generate_test_case(dict(ADD=1)).body
        assert built == [500]
