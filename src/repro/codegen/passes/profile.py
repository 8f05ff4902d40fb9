"""Instruction profile pass (``SetInstructionTypeByProfilePass``).

Rewrites the placeholder slots so the static instruction distribution
matches the requested profile exactly (largest-remainder apportionment),
then shuffles slot order deterministically so same-class instructions are
interleaved rather than clustered.
"""

from __future__ import annotations

import numpy as np

from repro.codegen.synthesizer import GenerationContext, Pass
from repro.isa.instructions import instruction_def
from repro.isa.program import OP_IDS, Program


def apportion(weights: dict[str, float], total: int) -> dict[str, int]:
    """Distribute ``total`` slots proportionally to ``weights``.

    Uses the largest-remainder method so the result sums exactly to
    ``total`` and each count is within one slot of the ideal share.

    Raises:
        ValueError: if weights are empty, negative, or sum to zero.
    """
    if not weights:
        raise ValueError("profile is empty")
    if any(w < 0 for w in weights.values()):
        raise ValueError("profile weights must be non-negative")
    weight_sum = sum(weights.values())
    if weight_sum <= 0:
        raise ValueError("profile weights sum to zero")

    ideal = {k: w / weight_sum * total for k, w in weights.items()}
    counts = {k: int(v) for k, v in ideal.items()}
    shortfall = total - sum(counts.values())
    # Hand remaining slots to the largest fractional remainders
    # (ties broken by name for determinism).
    remainders = sorted(
        weights, key=lambda k: (ideal[k] - counts[k], k), reverse=True
    )
    for k in remainders[:shortfall]:
        counts[k] += 1
    return counts


class SetInstructionTypeByProfilePass(Pass):
    """Assign mnemonics to the loop body according to a weighted profile.

    Args:
        profile: mapping of mnemonic to weight.  Weights are the raw
            instruction-fraction knob values of Listing 1; they need not
            sum to one.
    """

    requires = ("building_block",)
    provides = ("profile",)

    def __init__(self, profile: dict[str, float]):
        self.profile = {m.upper(): w for m, w in profile.items()}
        # Validate mnemonics eagerly so bad knobs fail at construction.
        for mnemonic in self.profile:
            instruction_def(mnemonic)

    def run(self, program: Program, context: GenerationContext) -> None:
        total = len(program)
        counts = apportion(self.profile, total)
        mnemonics = sorted(counts)
        # Deterministic interleaving: a fixed permutation from the context
        # RNG scatters the sorted mnemonics through the loop body.
        order = context.rng.permutation(total)
        ops = np.empty(total, dtype=np.int64)
        ops[order] = np.repeat(
            [OP_IDS[m] for m in mnemonics], [counts[m] for m in mnemonics]
        )
        program.reset(ops)
        program.metadata["profile"] = dict(counts)
