"""Unit tests for the instruction-level generation model."""

from functools import partial

import numpy as np
import pytest

from repro.codegen.instlevel import (
    DEFAULT_ALPHABET,
    FixedCodeParams,
    InstructionLevelSpace,
    SequenceProfilePass,
    evaluate_genome,
    genome_to_program,
)
from repro.tuning.evaluator import Evaluator
from repro.tuning.genetic import GAParams, GeneticTuner
from repro.tuning.loss import StressLoss


class TestSequenceProfilePass:
    def test_exact_sequence_materialized(self):
        genome = ("ADD", "LD", "FMUL.D", "BEQ", "SD")
        program = genome_to_program(genome)
        assert tuple(i.mnemonic for i in program) == genome

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            SequenceProfilePass([])

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(KeyError):
            SequenceProfilePass(["WARP"])


class TestGenomeToProgram:
    def test_program_validates(self):
        genome = ("ADD",) * 10 + ("LD", "SD", "BEQ", "FMUL.D") * 3
        genome_to_program(genome).validate()

    def test_memoryless_genome(self):
        program = genome_to_program(("ADD", "MUL", "BEQ", "ADD"))
        assert program.memory_instructions() == []
        program.validate()

    def test_params_flow_through(self):
        params = FixedCodeParams(dependency_distance=3,
                                 mem_footprint_bytes=8192, mem_stride=16)
        program = genome_to_program(("LD", "SD", "ADD", "ADD"), params)
        assert program.metadata["dependency_distance"] == 3
        mem = program.memory_instructions()
        assert all(i.memory.footprint == 8192 for i in mem)

    def test_genome_recorded_in_metadata(self):
        genome = ("ADD", "LW")
        program = genome_to_program(genome)
        assert program.metadata["genome"] == genome
        assert program.metadata["model"] == "instruction-level"

    def test_simulates_end_to_end(self):
        from repro.sim import SMALL_CORE, Simulator

        genome = ("ADD", "LD", "FADD.D", "BNE", "SW") * 20
        stats = Simulator(SMALL_CORE).run(
            genome_to_program(genome), instructions=4_000
        )
        assert stats.ipc > 0


class TestSpaceOperators:
    """The GA operators, run by GeneticTuner over the genome lattice."""

    def setup_method(self):
        self.space = InstructionLevelSpace(length=20)
        self.rng = np.random.default_rng(0)

    def _tuner(self, **params):
        evaluator = Evaluator(self.space, lambda config: {"y": 0.0})
        return GeneticTuner(evaluator, StressLoss(metric="y"),
                            GAParams(**params), seed=0)

    def _genes(self, mnemonic):
        return np.full(20, float(self.space.alphabet.index(mnemonic)))

    def test_random_genome_shape_and_alphabet(self):
        genome = self.space.materialize(
            self.space.random_vector(self.rng)
        )["GENOME"]
        assert len(genome) == 20
        assert set(genome) <= set(DEFAULT_ALPHABET)

    def test_random_vector_draws_one_index_per_slot(self):
        genes = self.space.random_vector(np.random.default_rng(0))
        expected = np.random.default_rng(0).integers(
            0, len(DEFAULT_ALPHABET), 20
        )
        assert np.array_equal(genes, expected)
        assert np.array_equal(
            self.space.upper_bounds(), np.full(20, len(DEFAULT_ALPHABET) - 1)
        )
        assert len(self.space) == 20

    def test_materialize_maps_indices_to_mnemonics(self):
        genes = [i % len(DEFAULT_ALPHABET) for i in range(20)]
        assert self.space.materialize(genes) == {
            "GENOME": tuple(DEFAULT_ALPHABET[g] for g in genes)
        }
        with pytest.raises(ValueError):
            self.space.materialize(genes[:-1])

    def test_crossover_splices_subsequences(self):
        tuner = self._tuner(crossover_rate=1.0)
        child = self.space.materialize(
            tuner._crossover(self._genes("ADD"), self._genes("SD"))
        )["GENOME"]
        assert len(child) == 20
        point = child.index("SD")
        assert all(g == "ADD" for g in child[:point])
        assert all(g == "SD" for g in child[point:])

    def test_mutation_rate_zero_is_identity(self):
        genes = np.round(self.space.random_vector(self.rng))
        mutated = self._tuner(mutation_rate=0.0)._mutate(genes)
        assert np.array_equal(mutated, genes)

    def test_mutation_rate_one_rewrites_most_slots(self):
        genes = self._genes("ADD")
        mutated = self._tuner(mutation_rate=1.0)._mutate(genes)
        changed = int(np.sum(mutated != genes))
        assert changed > 12  # redraw may pick ADD again ~1/10 of the time

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            InstructionLevelSpace(length=1)
        with pytest.raises(ValueError):
            InstructionLevelSpace(alphabet=())
        with pytest.raises(KeyError):
            InstructionLevelSpace(alphabet=("NOPE",))


class TestGenomeEvaluator:
    """Genome configs through the shared Evaluator: memo and accounting."""

    def test_memoizes_identical_genomes(self):
        calls = []
        evaluator = Evaluator(
            InstructionLevelSpace(length=2),
            partial(evaluate_genome,
                    lambda program: calls.append(1)
                    or {"y": float(len(program))}, None),
        )
        genes = np.array([0.0, 8.0])  # ("ADD", "SD")
        evaluator.evaluate(genes)
        evaluator.evaluate(genes)
        assert evaluator.requested_evaluations == 2
        assert evaluator.unique_evaluations == 1
        assert len(calls) == 1

    def test_params_reach_generation(self):
        seen = []
        params = FixedCodeParams(dependency_distance=3)
        evaluate_genome(
            lambda program: seen.append(program) or {},
            params, {"GENOME": ("LD", "ADD")},
        )
        assert seen[0].metadata["genome"] == ("LD", "ADD")
        assert seen[0].metadata["dependency_distance"] == 3
