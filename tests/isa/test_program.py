"""Unit tests for the program representation and dynamic attachments."""

import numpy as np
import pytest

from repro.isa.instructions import instruction_def
from repro.isa.program import BranchBehavior, Instruction, MemoryAccess, Program
from repro.isa.registers import Register, RegisterKind


def _reg(i, kind=RegisterKind.INT):
    return Register(kind, i)


def _add(dst=1, srcs=(2, 3)):
    return Instruction(
        idef=instruction_def("ADD"),
        dests=[_reg(dst)],
        srcs=[_reg(s) for s in srcs],
    )


class TestMemoryAccess:
    def test_pure_stream_addresses(self):
        ma = MemoryAccess(stream_id=1, base=0, footprint=1024, stride=64)
        addrs = ma.addresses(8)
        assert list(addrs[:4]) == [0, 64, 128, 192]

    def test_footprint_wraps(self):
        ma = MemoryAccess(stream_id=1, base=0, footprint=128, stride=64)
        addrs = ma.addresses(4)
        assert list(addrs) == [0, 64, 0, 64]

    def test_addresses_stay_inside_footprint(self):
        ma = MemoryAccess(stream_id=1, base=1000, footprint=256, stride=48)
        addrs = ma.addresses(50)
        assert (addrs >= 1000).all()
        assert (addrs < 1000 + 256).all()

    def test_temporal_reuse_window(self):
        # 2 distinct addresses swept 3 times each window.
        ma = MemoryAccess(
            stream_id=1, base=0, footprint=4096, stride=64,
            reuse_count=2, reuse_period=3,
        )
        idx = ma.indices(6)
        assert list(idx) == [0, 1, 0, 1, 0, 1]
        idx_next = ma.indices(12)[6:]
        assert list(idx_next) == [2, 3, 2, 3, 2, 3]

    def test_step_advances_collectively(self):
        ma = MemoryAccess(
            stream_id=1, base=0, footprint=1 << 20, stride=64, step=10, phase=3
        )
        idx = ma.indices(3)
        assert list(idx) == [3, 13, 23]

    @pytest.mark.parametrize(
        "kwargs",
        [dict(footprint=0), dict(stride=0), dict(reuse_count=0),
         dict(reuse_period=0), dict(step=0)],
    )
    def test_invalid_parameters_raise(self, kwargs):
        base = dict(stream_id=1, base=0, footprint=64, stride=8)
        base.update(kwargs)
        with pytest.raises(ValueError):
            MemoryAccess(**base)


class TestBranchBehavior:
    def test_pure_pattern_repeats(self):
        bb = BranchBehavior(pattern=(True, False), random_ratio=0.0)
        assert list(bb.outcomes(5)) == [True, False, True, False, True]

    def test_randomization_ratio_flips_roughly_that_many(self):
        bb = BranchBehavior(pattern=(True,), random_ratio=0.5, seed=7)
        outcomes = bb.outcomes(4000)
        # Half the slots are randomized at 50% bias: ~25% not-taken.
        not_taken = float(np.mean(~outcomes))
        assert 0.18 < not_taken < 0.32

    def test_outcomes_deterministic_for_seed(self):
        a = BranchBehavior(random_ratio=0.7, seed=3).outcomes(100)
        b = BranchBehavior(random_ratio=0.7, seed=3).outcomes(100)
        assert (a == b).all()

    def test_empty_pattern_raises(self):
        with pytest.raises(ValueError):
            BranchBehavior(pattern=())

    def test_bad_ratio_raises(self):
        with pytest.raises(ValueError):
            BranchBehavior(random_ratio=1.5)

    def test_negative_seed_raises_only_when_drawn(self):
        with pytest.raises(ValueError):
            BranchBehavior(random_ratio=0.5, seed=-1).outcomes(10)
        # A branch that randomizes nothing never reads its seed.
        fixed = BranchBehavior(pattern=(True, False, False), seed=-1)
        assert fixed.outcomes(6).tolist() == [True, False, False] * 2


class TestInstructionValidation:
    """Per-instruction checks, run by ``Program.validate`` on the
    columns of a one-instruction program."""

    def test_valid_add(self):
        Program(body=[_add()]).validate()

    def test_wrong_dest_count(self):
        instr = _add()
        instr.dests = []
        with pytest.raises(ValueError, match="dests"):
            Program(body=[instr]).validate()

    def test_wrong_src_count(self):
        instr = _add()
        instr.srcs = [_reg(2)]
        with pytest.raises(ValueError, match="srcs"):
            Program(body=[instr]).validate()

    def test_memory_instruction_requires_stream(self):
        load = Instruction(
            idef=instruction_def("LD"), dests=[_reg(1)], srcs=[_reg(2)]
        )
        with pytest.raises(ValueError, match="lacks a stream"):
            Program(body=[load]).validate()

    def test_non_memory_instruction_rejects_stream(self):
        instr = _add()
        instr.memory = MemoryAccess(stream_id=1, base=0, footprint=64, stride=8)
        with pytest.raises(ValueError, match="has a stream"):
            Program(body=[instr]).validate()

    def test_branch_requires_behavior(self):
        br = Instruction(
            idef=instruction_def("BEQ"), srcs=[_reg(1), _reg(2)]
        )
        with pytest.raises(ValueError, match="lacks a behaviour"):
            Program(body=[br]).validate()


class TestProgram:
    def test_empty_program_invalid(self):
        with pytest.raises(ValueError, match="empty"):
            Program().validate()

    def test_len_and_iter(self):
        p = Program(body=[_add(), _add()])
        assert len(p) == 2
        assert all(i.mnemonic == "ADD" for i in p)

    def test_class_counts(self):
        p = Program(body=[_add(), _add(), _add(4, (5, 6))])
        counts = p.class_counts()
        assert sum(counts.values()) == 3

    def test_group_fractions_sum_to_one(self):
        p = Program(body=[_add() for _ in range(10)])
        fractions = p.group_fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-12
        assert fractions["integer"] == 1.0

    def test_memory_and_branch_selectors(self):
        br = Instruction(
            idef=instruction_def("BNE"),
            srcs=[_reg(1), _reg(2)],
            branch=BranchBehavior(),
        )
        p = Program(body=[_add(), br])
        assert p.memory_instructions() == []
        assert p.branch_instructions() == [br]
