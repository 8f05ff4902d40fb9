"""Register passes: reservation, initialization and allocation.

``DefaultRegisterAllocationPass`` implements the paper's register dependency
distance knob (``REG_DIST``): each instruction's sources are wired to the
destination of the instruction ``dd`` producers back, so the generated code
has ``dd`` independent dependency chains — the ILP the out-of-order core can
extract scales with the knob.
"""

from __future__ import annotations

import numpy as np

from repro.codegen.synthesizer import GenerationContext, Pass
from repro.isa.program import (
    OP_IS_FP,
    OP_NUM_DST,
    OP_NUM_SRC,
    Program,
    register_id,
)
from repro.isa.registers import Register, RegisterFile, RegisterKind


class ReserveRegistersPass(Pass):
    """Reserve registers so later passes cannot allocate them.

    MicroGrad reserves loop counters and memory-stream base pointers.
    """

    provides = ("reserved_registers",)

    def __init__(self, registers: list[Register | str]):
        self.registers = [
            RegisterFile.parse(r) if isinstance(r, str) else r for r in registers
        ]

    def run(self, program: Program, context: GenerationContext) -> None:
        for reg in self.registers:
            context.registers.reserve(reg)
        program.metadata["reserved_registers"] = [r.name for r in self.registers]


class InitializeRegistersPass(Pass):
    """Record initial register values for the test-case prologue.

    Args:
        value: either a literal integer applied to all registers or the
            string ``"RNDINT"`` for per-register deterministic random values
            (Listing 2 uses ``value=RNDINT``).
    """

    provides = ("initialized_registers",)

    def __init__(self, value: int | str = "RNDINT"):
        self.value = value

    def run(self, program: Program, context: GenerationContext) -> None:
        names = [reg.name for reg in context.registers.all_registers()]
        if isinstance(self.value, int):
            values = dict.fromkeys(names, self.value)
        else:
            # One batch equals scalar draws (pinned in tests/isa).
            values = dict(zip(names, context.rng.integers(
                0, 2**31, size=len(names)
            ).tolist()))
        program.metadata["register_init"] = values


class DefaultRegisterAllocationPass(Pass):
    """Allocate destination and source operands at a dependency distance.

    Destinations rotate through the allocatable pool of each register file.
    Each source operand reads the destination written ``dd`` same-kind
    instructions earlier (falling back to a pool register before enough
    producers exist), which creates exactly ``dd`` parallel dependency
    chains per register file.

    Args:
        dd: register dependency distance knob (>= 1).
    """

    requires = ("profile",)
    provides = ("register_allocation",)

    def __init__(self, dd: int = 1):
        if dd < 1:
            raise ValueError("dependency distance must be >= 1")
        self.dd = dd

    def run(self, program: Program, context: GenerationContext) -> None:
        pools = {
            RegisterKind.INT: context.registers.allocatable(RegisterKind.INT),
            RegisterKind.FP: context.registers.allocatable(RegisterKind.FP),
        }
        for kind, pool in pools.items():
            if len(pool) < self.dd + 1:
                raise ValueError(
                    f"dependency distance {self.dd} needs at least "
                    f"{self.dd + 1} allocatable {kind.value} registers, "
                    f"have {len(pool)}"
                )
        # With h the number of earlier producers of an instruction's
        # register kind, its destination is pool[h % window] (a window
        # strictly larger than dd, so no live chain's register is
        # rewritten).  Source n reads producer h - dd, or the producers
        # just before it for extra sources, or a pool register while
        # fewer than dd producers exist.
        ops = program.ops
        num_src = OP_NUM_SRC[ops]
        produces = OP_NUM_DST[ops]  # 0 or 1 for every instruction def
        srcs = np.full((len(ops), num_src.max(initial=0)), -1, np.int64)
        dests = np.full((len(ops), 1), -1, np.int64)
        for kind, pool in pools.items():
            ids = np.array([register_id(r) for r in pool])
            window = min(len(pool), max(self.dd + 1, 4))
            mine = OP_IS_FP[ops] == (kind is RegisterKind.FP)
            made = produces * mine
            h = np.cumsum(made) - made
            dests[made == 1, 0] = ids[h[made == 1] % window]
            for n in range(srcs.shape[1]):
                rows = mine & (num_src > n)
                hn = h[rows]
                back = hn - self.dd - np.minimum(n, hn - self.dd)
                srcs[rows, n] = np.where(
                    hn >= self.dd, ids[back % window], ids[n * 7 % len(pool)]
                )
        program.srcs = srcs
        program.dests = dests[:, :produces.max(initial=0)]
        program.metadata["dependency_distance"] = self.dd
