"""Unit tests for dynamic trace expansion."""

import numpy as np
import pytest

from repro.codegen import generate_test_case
from repro.codegen.wrapper import GenerationOptions
from repro.isa.instructions import InstrClass
from repro.sim import trace as trace_module
from repro.sim.trace import expand


def _program(loop_size=100, **overrides):
    knobs = dict(ADD=4, MUL=1, BEQ=1, BNE=1, LD=2, SD=1,
                 REG_DIST=3, MEM_SIZE=64, MEM_STRIDE=16,
                 MEM_TEMP1=1, MEM_TEMP2=1, B_PATTERN=0.5)
    knobs.update(overrides)
    return generate_test_case(knobs, GenerationOptions(loop_size=loop_size))


class TestExpand:
    def test_total_instructions(self):
        trace = expand(_program(100), iterations=7)
        assert trace.total_instructions == 700
        assert trace.iterations == 7
        assert trace.loop_size == 100

    def test_memory_event_count(self):
        program = _program(100)
        trace = expand(program, iterations=5)
        per_iter = len(program.memory_instructions())
        assert len(trace.mem_lines) == 5 * per_iter
        assert len(trace.mem_pcs) == 5 * per_iter
        assert len(trace.mem_is_store) == 5 * per_iter

    def test_branch_event_count(self):
        program = _program(100)
        trace = expand(program, iterations=4)
        per_iter = len(program.branch_instructions())
        assert len(trace.branch_outcomes) == 4 * per_iter

    def test_iteration_major_interleaving(self):
        program = _program(100)
        trace = expand(program, iterations=3)
        mem = program.memory_instructions()
        m = len(mem)
        # First block of m PCs equals the static PC order.
        static_pcs = [i.address for i in mem]
        assert list(trace.mem_pcs[:m]) == static_pcs
        assert list(trace.mem_pcs[m:2 * m]) == static_pcs

    def test_store_flags_match_static_classes(self):
        program = _program(100)
        trace = expand(program, iterations=2)
        mem = program.memory_instructions()
        expected = [i.iclass is InstrClass.STORE for i in mem]
        assert list(trace.mem_is_store[:len(mem)]) == expected

    def test_class_counts_scale_with_iterations(self):
        program = _program(100)
        t1 = expand(program, iterations=1)
        t5 = expand(program, iterations=5)
        for iclass, count in t1.class_counts.items():
            assert t5.class_counts[iclass] == count * 5

    def test_memoryless_program(self):
        program = _program(60, LD=0, SD=0)
        trace = expand(program, iterations=3)
        assert len(trace.mem_lines) == 0
        assert trace.total_instructions == 180

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            expand(_program(50), iterations=0)

    def test_line_addresses_use_line_size(self):
        program = _program(100, MEM_STRIDE=64)
        trace = expand(program, iterations=2, line_bytes=64)
        byte_addrs = np.concatenate(
            [i.memory.addresses(2) for i in program.memory_instructions()]
        )
        assert set(trace.mem_lines) <= set(byte_addrs // 64)


def _counting(calls: list, name: str, real):
    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    return counted


class TestOutcomeSeeding:
    def test_at_most_one_generator_per_outcome_matrix(self, monkeypatch):
        # Each randomized branch draws what default_rng(seed) draws, from
        # one generator per call, not one generator per branch.
        program = _program(1200)
        assert (program.branches["random_ratio"] > 0).sum() >= 200
        built, matrices = [], []
        for name in ("default_rng", "SeedSequence", "PCG64"):
            monkeypatch.setattr(np.random, name, _counting(
                built, name, getattr(np.random, name)))
        monkeypatch.setattr(trace_module, "outcome_matrix", _counting(
            matrices, "outcome_matrix", trace_module.outcome_matrix))
        expand(program, iterations=40)
        assert len(matrices) == 1
        assert len(built) <= len(matrices)
