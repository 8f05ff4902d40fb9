"""Instruction-level generation model (the GeST-style alternative).

Section II-B1 contrasts two stress-test generation models: the abstract
workload model MicroGrad adopts (few, well-defined knobs) and the
instruction-level model of GeST/Audit (per-instruction control, tuned
directly on the assembly).  This module implements the latter so the
paper's model comparison can be reproduced on the same substrate:

* a genome is an explicit mnemonic sequence (one gene per static
  instruction slot);
* :class:`SequenceProfilePass` materializes a genome into the loop body,
  after which the ordinary register/memory/branch passes apply;
* :class:`InstructionLevelSpace` provides the GA operators for which the
  paper says "important GA operators like crossover are much more
  valuable in an instruction-level model" — crossover splices
  instruction subsequences, mutation rewrites single slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codegen.passes.addresses import UpdateInstructionAddressesPass
from repro.codegen.passes.branches import RandomizeByTypePass
from repro.codegen.passes.memory import GenericMemoryStreamsPass, StreamSpec
from repro.codegen.passes.registers import (
    DefaultRegisterAllocationPass,
    InitializeRegistersPass,
    ReserveRegistersPass,
)
from repro.codegen.passes.verify import VerifyProgramPass
from repro.codegen.synthesizer import GenerationContext, Pass, Synthesizer
from repro.codegen.wrapper import RESERVED_REGISTERS
from repro.isa.instructions import instruction_def
from repro.isa.program import OP_IDS, Program

#: Default gene alphabet: the Listing 1 mix mnemonics.
DEFAULT_ALPHABET = (
    "ADD", "MUL", "FADD.D", "FMUL.D", "BEQ", "BNE", "LD", "LW", "SD", "SW",
)


class SequenceProfilePass(Pass):
    """Materialize an explicit mnemonic sequence into the loop body.

    The instruction-level equivalent of
    :class:`~repro.codegen.passes.profile.SetInstructionTypeByProfilePass`:
    instead of apportioning fractions, the caller controls every slot.
    """

    provides = ("building_block", "profile")

    def __init__(self, mnemonics: list[str]):
        if not mnemonics:
            raise ValueError("sequence must be non-empty")
        self.defs = [instruction_def(m) for m in mnemonics]

    def run(self, program: Program, context: GenerationContext) -> None:
        program.reset([OP_IDS[d.mnemonic] for d in self.defs])
        program.metadata["loop_size"] = len(self.defs)
        counts: dict[str, int] = {}
        for d in self.defs:
            counts[d.mnemonic] = counts.get(d.mnemonic, 0) + 1
        program.metadata["profile"] = counts


@dataclass(frozen=True)
class FixedCodeParams:
    """Non-genome parameters of instruction-level generation.

    The instruction-level model tunes the sequence; memory/branch/ILP
    context stays fixed (GeST fixes them in its templates similarly).
    """

    dependency_distance: int = 10
    mem_footprint_bytes: int = 16 * 1024
    mem_stride: int = 64
    branch_random_ratio: float = 0.1
    seed: int = 0


def genome_to_program(
    genome: list[str] | tuple[str, ...],
    params: FixedCodeParams | None = None,
) -> Program:
    """Generate the program encoded by a mnemonic genome."""
    params = params or FixedCodeParams()
    has_mem = any(
        instruction_def(m).is_memory for m in genome
    )
    passes: list[Pass] = [
        SequenceProfilePass(list(genome)),
        ReserveRegistersPass(list(RESERVED_REGISTERS)),
        InitializeRegistersPass(value="RNDINT"),
        RandomizeByTypePass(params.branch_random_ratio),
    ]
    if has_mem:
        passes.append(
            GenericMemoryStreamsPass(
                [StreamSpec(1, params.mem_footprint_bytes, 1.0,
                            params.mem_stride)]
            )
        )
    passes += [
        DefaultRegisterAllocationPass(dd=params.dependency_distance),
        UpdateInstructionAddressesPass(),
        VerifyProgramPass(),
    ]
    program = Synthesizer(passes, seed=params.seed).synthesize()
    program.metadata["genome"] = tuple(genome)
    program.metadata["model"] = "instruction-level"
    return program


class InstructionLevelSpace:
    """Genome space + GA operators for the instruction-level model.

    Attributes:
        length: genome length (static instructions; Table I's
            "Individual Size" is 25 for the prior-work GA).
        alphabet: mnemonics a gene may take.
    """

    def __init__(self, length: int = 25,
                 alphabet: tuple[str, ...] = DEFAULT_ALPHABET):
        if length < 2:
            raise ValueError("genome length must be >= 2")
        if not alphabet:
            raise ValueError("alphabet must be non-empty")
        for mnemonic in alphabet:
            instruction_def(mnemonic)  # validate eagerly
        self.length = length
        self.alphabet = tuple(alphabet)

    def random_genome(self, rng: np.random.Generator) -> tuple[str, ...]:
        """A uniformly random mnemonic sequence."""
        picks = rng.integers(0, len(self.alphabet), self.length)
        return tuple(self.alphabet[i] for i in picks)

    def crossover(self, a: tuple[str, ...], b: tuple[str, ...],
                  rng: np.random.Generator) -> tuple[str, ...]:
        """Single-point crossover: splice an instruction subsequence."""
        point = int(rng.integers(1, self.length))
        return a[:point] + b[point:]

    def mutate(self, genome: tuple[str, ...], rate: float,
               rng: np.random.Generator) -> tuple[str, ...]:
        """Rewrite each slot with probability ``rate``."""
        out = list(genome)
        for i in range(len(out)):
            if rng.random() < rate:
                out[i] = self.alphabet[int(rng.integers(0, len(self.alphabet)))]
        return tuple(out)


class GenomeEvaluator:
    """Memoizing genome -> metrics evaluator (Evaluator duck-type)."""

    def __init__(self, evaluate_program, params: FixedCodeParams | None = None):
        self._evaluate_program = evaluate_program
        self.params = params or FixedCodeParams()
        self._cache: dict[tuple[str, ...], dict[str, float]] = {}
        self.requested_evaluations = 0
        self.unique_evaluations = 0

    def evaluate_genome(self, genome: tuple[str, ...]) -> dict[str, float]:
        self.requested_evaluations += 1
        if genome in self._cache:
            return self._cache[genome]
        program = genome_to_program(genome, self.params)
        metrics = self._evaluate_program(program)
        self.unique_evaluations += 1
        self._cache[genome] = metrics
        return metrics

    def reset_counters(self) -> None:
        self.requested_evaluations = 0
        self.unique_evaluations = 0
