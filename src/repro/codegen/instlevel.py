"""Instruction-level generation model (the GeST-style alternative).

Section II-B1 contrasts two stress-test generation models: the abstract
workload model MicroGrad adopts (few, well-defined knobs) and the
instruction-level model of GeST/Audit (per-instruction control, tuned
directly on the assembly).  This module implements the latter so the
paper's model comparison can be reproduced on the same substrate:

* a genome names one mnemonic per static instruction slot;
* :class:`SequenceProfilePass` materializes a genome into the loop body,
  after which the ordinary register/memory/branch passes apply;
* :class:`InstructionLevelSpace` is the genome lattice (a gene is its
  slot's alphabet index), so the Table I
  :class:`~repro.tuning.genetic.GeneticTuner` tunes it like a knob space:
  crossover splices instruction subsequences and mutation rewrites single
  slots, the operators the paper calls "much more valuable in an
  instruction-level model";
* :func:`evaluate_genome` is the evaluator's config function, bound as
  ``partial(evaluate_genome, platform.evaluate, params)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
    """Genome lattice of the instruction-level model: the
    :class:`~repro.tuning.knobs.KnobSpace` interface, with gene ``i``
    slot ``i``'s index into ``alphabet``.

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

    def __len__(self) -> int:
        return self.length

    def upper_bounds(self) -> np.ndarray:
        """Maximum gene value per slot: the last alphabet index."""
        return np.full(self.length, len(self.alphabet) - 1, dtype=float)

    def random_vector(self, rng: np.random.Generator) -> np.ndarray:
        """A uniformly random genome (one alphabet index per slot)."""
        return rng.integers(0, len(self.alphabet), self.length).astype(float)

    def materialize(self, genes: np.ndarray) -> dict:
        """The mnemonic sequence a genome encodes, as ``{"GENOME": ...}``."""
        if len(genes) != self.length:
            raise ValueError(f"expected {self.length} genes, got {len(genes)}")
        return {"GENOME": tuple(self.alphabet[int(g)] for g in genes)}


def evaluate_genome(
    evaluate_program: Callable[[Program], dict[str, float]],
    params: FixedCodeParams | None,
    config: dict,
) -> dict[str, float]:
    """Metrics of the program a ``{"GENOME": ...}`` config encodes."""
    return evaluate_program(genome_to_program(config["GENOME"], params))
