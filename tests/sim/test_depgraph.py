"""Unit tests for the dependency-graph critical-path analysis."""

import pytest

from repro.codegen import generate_test_case
from repro.codegen.wrapper import GenerationOptions
from repro.sim.config import SMALL_CORE
from repro.sim.depgraph import critical_path_per_iteration, instruction_latency
from repro.isa.instructions import InstrClass


def _chain_program(dd, loop_size=100, mnemonic_weights=None):
    knobs = dict(mnemonic_weights or {"ADD": 1})
    knobs.update(REG_DIST=dd, B_PATTERN=0.0)
    return generate_test_case(knobs, GenerationOptions(loop_size=loop_size))


class TestCriticalPath:
    def test_serial_chain_costs_one_latency_per_instruction(self):
        program = _chain_program(dd=1, loop_size=100)
        cp = critical_path_per_iteration(program, SMALL_CORE)
        # dd=1 on single-cycle ADDs: ~1 cycle per instruction.
        assert cp == pytest.approx(100, rel=0.1)

    def test_parallel_chains_divide_the_path(self):
        cp1 = critical_path_per_iteration(_chain_program(1), SMALL_CORE)
        cp5 = critical_path_per_iteration(_chain_program(5), SMALL_CORE)
        assert cp5 < cp1 / 3

    def test_critical_path_monotone_in_dependency_distance(self):
        values = [
            critical_path_per_iteration(_chain_program(dd), SMALL_CORE)
            for dd in (1, 2, 4, 8)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_fp_latency_lengthens_the_path(self):
        int_cp = critical_path_per_iteration(
            _chain_program(2, mnemonic_weights={"ADD": 1}), SMALL_CORE
        )
        fp_cp = critical_path_per_iteration(
            _chain_program(2, mnemonic_weights={"FMULD": 1}), SMALL_CORE
        )
        assert fp_cp > int_cp * 2

    def test_empty_program_zero_path(self):
        from repro.isa.program import Program

        assert critical_path_per_iteration(Program(), SMALL_CORE) == 0.0

    @pytest.mark.parametrize("unroll", [0, -1])
    def test_unroll_below_one_rejected(self, unroll):
        with pytest.raises(ValueError, match="unroll must be >= 1"):
            critical_path_per_iteration(
                _chain_program(2), SMALL_CORE, unroll=unroll
            )

    def test_steady_state_increment_stable(self):
        program = _chain_program(3, loop_size=80)
        cp4 = critical_path_per_iteration(program, SMALL_CORE, unroll=4)
        cp8 = critical_path_per_iteration(program, SMALL_CORE, unroll=8)
        assert cp4 == pytest.approx(cp8, rel=0.05)


class TestInstructionLatency:
    def test_loads_use_l1d_latency(self):
        assert instruction_latency(3, InstrClass.LOAD, SMALL_CORE) == float(
            SMALL_CORE.l1d.latency
        )

    def test_stores_cost_one(self):
        assert instruction_latency(1, InstrClass.STORE, SMALL_CORE) == 1.0

    def test_alu_uses_definition_latency(self):
        assert instruction_latency(4, InstrClass.FP_ADD, SMALL_CORE) == 4.0
