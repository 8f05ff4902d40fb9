"""Branch randomization pass (``RandomizeByTypePass`` in Listing 2).

Attaches a :class:`~repro.isa.program.BranchBehavior` to every conditional
branch: a periodic, fully predictable base pattern with a knob-controlled
fraction of outcomes replaced by coin flips (the ``B_PATTERN`` knob).  The
misprediction rate seen by the simulator's history-based predictor scales
with that fraction.
"""

from __future__ import annotations

import numpy as np

from repro.codegen.synthesizer import GenerationContext, Pass
from repro.isa.program import BRANCH_DTYPE, OP_IS_BRANCH, Program


class RandomizeByTypePass(Pass):
    """Randomize branch directions at a given probability.

    Args:
        random_ratio: fraction of branch outcomes drawn at random
            (0 = fully periodic/predictable, 1 = fully random).
        base_pattern: periodic pattern used for non-randomized outcomes.
        taken_bias: probability a randomized outcome is taken.
    """

    requires = ("profile",)
    provides = ("branch_behaviour",)

    def __init__(
        self,
        random_ratio: float,
        base_pattern: tuple[bool, ...] = (True, True, False, True),
        taken_bias: float = 0.5,
    ):
        if not 0.0 <= random_ratio <= 1.0:
            raise ValueError("random_ratio must be within [0, 1]")
        self.random_ratio = random_ratio
        self.base_pattern = tuple(base_pattern)
        self.taken_bias = taken_bias

    def run(self, program: Program, context: GenerationContext) -> None:
        slots = np.flatnonzero(OP_IS_BRANCH[program.ops])
        table = np.zeros(len(slots), dtype=BRANCH_DTYPE)
        table["slot"] = slots
        table["random_ratio"] = self.random_ratio
        # One draw per branch; a batch equals scalar draws (tests/isa).
        table["seed"] = context.rng.integers(
            0, 2**31, size=len(slots)
        ) + np.arange(len(slots))
        table["taken_bias"] = self.taken_bias
        program.branches = table
        program.patterns = [self.base_pattern] if len(slots) else []
        program.metadata["branch_random_ratio"] = self.random_ratio
