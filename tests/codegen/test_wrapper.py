"""Unit tests for the knob-to-program wrapper."""

import pytest

from repro.codegen.wrapper import (
    DEFAULT_LOOP_SIZE,
    GenerationOptions,
    KNOB_INSTRUCTIONS,
    generate_test_case,
)


def _knobs(**overrides):
    base = dict(ADD=5, MUL=1, FADDD=1, FMULD=1, BEQ=1, BNE=1,
                LD=3, LW=1, SD=1, SW=1,
                REG_DIST=4, MEM_SIZE=64, MEM_STRIDE=16,
                MEM_TEMP1=4, MEM_TEMP2=2, B_PATTERN=0.3)
    base.update(overrides)
    return base


class TestGenerateTestCase:
    def test_default_loop_size_matches_paper(self):
        program = generate_test_case(_knobs())
        assert len(program) == DEFAULT_LOOP_SIZE == 500

    def test_program_is_valid(self):
        generate_test_case(_knobs()).validate()

    def test_metadata_records_knobs(self):
        program = generate_test_case(_knobs())
        assert program.metadata["knobs"]["ADD"] == 5
        assert program.metadata["dependency_distance"] == 4

    def test_mix_fractions_follow_weights(self):
        program = generate_test_case(_knobs(ADD=8, MUL=0, FADDD=0, FMULD=0,
                                             BEQ=1, BNE=0, LD=1, LW=0,
                                             SD=0, SW=0))
        fr = program.group_fractions()
        assert fr["integer"] == pytest.approx(0.8, abs=0.01)
        assert fr["branch"] == pytest.approx(0.1, abs=0.01)
        assert fr["load"] == pytest.approx(0.1, abs=0.01)

    def test_mem_size_knob_is_kilobytes(self):
        program = generate_test_case(_knobs(MEM_SIZE=128))
        footprints = {i.memory.footprint for i in program.memory_instructions()}
        assert footprints == {128 * 1024}

    def test_streams_override_beats_scalar_knobs(self):
        program = generate_test_case(
            _knobs(STREAMS=[[1, 4096, 0.5, 8, 1, 1], [2, 8192, 0.5, 16, 1, 1]])
        )
        ids = {i.memory.stream_id for i in program.memory_instructions()}
        assert ids == {1, 2}

    def test_no_positive_instruction_weight_falls_back_to_alu(self):
        # The all-zero mix corner degenerates to a pure ALU loop rather
        # than raising, so lattice-edge tuner probes stay evaluable.
        program = generate_test_case({"REG_DIST": 2})
        assert program.group_fractions() == {"integer": 1.0}

    def test_memoryless_config_generates(self):
        program = generate_test_case(
            dict(ADD=5, BEQ=1, REG_DIST=3, B_PATTERN=0.2)
        )
        assert program.memory_instructions() == []
        program.validate()

    def test_custom_loop_size(self):
        program = generate_test_case(
            _knobs(), GenerationOptions(loop_size=800)
        )
        assert len(program) == 800

    def test_generation_is_deterministic(self):
        a = generate_test_case(_knobs())
        b = generate_test_case(_knobs())
        assert [i.mnemonic for i in a] == [i.mnemonic for i in b]
        assert [i.srcs for i in a] == [i.srcs for i in b]

    def test_different_seeds_differ(self):
        a = generate_test_case(_knobs(), GenerationOptions(seed=1))
        b = generate_test_case(_knobs(), GenerationOptions(seed=2))
        assert [i.mnemonic for i in a] != [i.mnemonic for i in b]

    def test_knob_instruction_table_is_consistent(self):
        from repro.isa.instructions import instruction_def

        for knob, mnemonic in KNOB_INSTRUCTIONS.items():
            instruction_def(mnemonic)  # must not raise


class TestGenerationFingerprint:
    """Equal fingerprints must mean identical generated programs."""

    def _fp(self, knobs, **opt):
        from repro.codegen.wrapper import generation_fingerprint

        return generation_fingerprint(knobs, GenerationOptions(**opt))

    def _program_id(self, knobs, **opt):
        from repro.sim.artifact import program_fingerprint

        return program_fingerprint(
            generate_test_case(knobs, GenerationOptions(**opt))
        )

    def test_identical_knobs_merge(self):
        assert self._fp(_knobs()) == self._fp(_knobs())

    def test_proportionally_scaled_profiles_merge(self):
        base = _knobs()
        tripled = {
            k: v * 3 if k in KNOB_INSTRUCTIONS else v
            for k, v in base.items()
        }
        assert self._fp(base) == self._fp(tripled)
        assert self._program_id(base) == self._program_id(tripled)

    def test_b_pattern_inert_without_branches(self):
        base = dict(ADD=5, LD=2, REG_DIST=3, MEM_SIZE=16, B_PATTERN=0.1)
        other = dict(base, B_PATTERN=0.9)
        assert self._fp(base) == self._fp(other)
        assert self._program_id(base) == self._program_id(other)

    def test_b_pattern_matters_with_branches(self):
        assert self._fp(_knobs(B_PATTERN=0.1)) != \
            self._fp(_knobs(B_PATTERN=0.9))

    def test_memory_knobs_inert_without_memory_instructions(self):
        base = dict(ADD=5, BEQ=1, REG_DIST=3, B_PATTERN=0.2,
                    MEM_SIZE=16, MEM_STRIDE=64, MEM_TEMP1=1, MEM_TEMP2=1)
        other = dict(base, MEM_SIZE=2048, MEM_STRIDE=16,
                     MEM_TEMP1=9, MEM_TEMP2=7)
        assert self._fp(base) == self._fp(other)
        assert self._program_id(base) == self._program_id(other)

    def test_memory_knobs_matter_with_memory_instructions(self):
        assert self._fp(_knobs(MEM_SIZE=16)) != \
            self._fp(_knobs(MEM_SIZE=2048))

    def test_reg_dist_splits(self):
        assert self._fp(_knobs(REG_DIST=2)) != self._fp(_knobs(REG_DIST=8))

    def test_unknown_knob_splits_conservatively(self):
        assert self._fp(_knobs()) != self._fp(_knobs(FUTURE_KNOB=1))

    def test_options_split(self):
        assert self._fp(_knobs(), seed=1) != self._fp(_knobs(), seed=2)
        assert self._fp(_knobs(), loop_size=300) != \
            self._fp(_knobs(), loop_size=500)

    def test_equal_fingerprints_generate_identical_programs(self):
        """The grouping contract, spot-checked across merge classes."""
        pairs = [
            (_knobs(), {k: v * 2 if k in KNOB_INSTRUCTIONS else v
                        for k, v in _knobs().items()}),
            (dict(ADD=4, REG_DIST=2, B_PATTERN=0.0),
             dict(ADD=4, REG_DIST=2, B_PATTERN=0.8)),
        ]
        for a, b in pairs:
            assert self._fp(a) == self._fp(b)
            assert self._program_id(a) == self._program_id(b)
