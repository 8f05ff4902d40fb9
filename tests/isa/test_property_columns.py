"""Property tests: program columns and ``Instruction`` views round-trip.

A program stores its body as columns; ``program.body`` decodes them into
``Instruction`` views and ``Program(body=...)`` encodes views back.  The
two directions must be inverse on every program the suites build:
generated ones (the knob lattice of the codegen property tests) and
hand-built ones (the stage-1 property strategies, including operand
counts no instruction definition allows).  Pickling, which carries
programs inside persisted trace artifacts, must round-trip too.
"""

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.wrapper import GenerationOptions, generate_test_case
from repro.isa.program import Program
from repro.sim.artifact import program_fingerprint
from repro.sim.trace import expand
from tests.codegen.test_property_codegen import lattice_config
from tests.sim.test_property_stage1 import (
    dependency_programs,
    trace_programs,
)

COLUMNS = ("ops", "srcs", "dests", "immediates", "addresses", "memory",
           "branches", "patterns", "labels", "comments")
TRACE_FIELDS = ("mem_pcs", "mem_lines", "mem_is_store", "branch_pcs",
                "branch_outcomes")

generated_programs = st.builds(
    lambda config, loop_size, seed: generate_test_case(
        config, GenerationOptions(loop_size=loop_size, seed=seed)
    ),
    lattice_config,
    st.integers(1, 300),
    st.integers(0, 2**16),
)

programs = st.one_of(generated_programs, trace_programs(),
                     dependency_programs())


def assert_same_columns(a: Program, b: Program) -> None:
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, name
            assert x.shape == y.shape, name
            assert np.array_equal(x, y), name
        else:
            assert x == y, name


class TestViewsRoundTrip:
    @given(programs)
    @settings(max_examples=80, deadline=None)
    def test_views_encode_back_to_the_same_program(self, program):
        copy = Program(body=program.body,
                       entry_address=program.entry_address,
                       metadata=program.metadata)
        assert_same_columns(copy, program)
        assert copy == program
        assert program_fingerprint(copy) == program_fingerprint(program)
        assert list(copy.class_counts().items()) == list(
            program.class_counts().items()
        )
        ours, theirs = expand(copy, 5), expand(program, 5)
        for name in TRACE_FIELDS:
            assert np.array_equal(getattr(ours, name),
                                  getattr(theirs, name)), name
        assert ours.class_counts == theirs.class_counts

    @given(programs)
    @settings(max_examples=40, deadline=None)
    def test_views_are_copies(self, program):
        before = pickle.dumps(program)
        for instr in program.body:
            instr.address = 1
            instr.dests = []
        assert pickle.dumps(program) == before


class TestPickleRoundTrip:
    @given(programs)
    @settings(max_examples=80, deadline=None)
    def test_pickle_keeps_columns_and_views(self, program):
        views = program.body
        clone = pickle.loads(pickle.dumps(program))
        assert clone == program
        assert_same_columns(clone, program)
        assert clone.body == views


class TestBatchedDraws:
    """Codegen draws its register-init values and branch seeds as one
    batch each; that equals one scalar draw at a time, state included."""

    @given(st.integers(0, 2**32 - 1), st.integers(0, 300),
           st.integers(0, 600))
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_scalar_draws(self, seed, shuffle, n):
        scalar = np.random.default_rng(seed)
        batch = np.random.default_rng(seed)
        scalar.permutation(shuffle)
        batch.permutation(shuffle)
        expected = [int(scalar.integers(0, 2**31)) for _ in range(n)]
        assert batch.integers(0, 2**31, size=n).tolist() == expected
        assert batch.bit_generator.state == scalar.bit_generator.state
