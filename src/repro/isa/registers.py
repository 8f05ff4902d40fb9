"""Architectural register files for the RISC-V-like target.

The code generator allocates operands from these pools; the
``ReserveRegistersPass`` removes registers (loop counters, stream base
pointers) from the allocatable set, mirroring Microprobe's register
reservation mechanism.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class RegisterKind(enum.Enum):
    """Register file a register belongs to."""

    INT = "int"
    FP = "fp"


@dataclass(frozen=True, order=True)
class Register:
    """A single architectural register.

    Attributes:
        kind: which register file (integer or floating point).
        index: architectural index within the file (0-31).
    """

    kind: RegisterKind
    index: int

    @property
    def name(self) -> str:
        """RISC-V style name, e.g. ``x5`` or ``f12``."""
        prefix = "x" if self.kind is RegisterKind.INT else "f"
        return f"{prefix}{self.index}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


# x0 is hardwired zero in RISC-V: never allocated as a destination.
ZERO = Register(RegisterKind.INT, 0)


@dataclass
class RegisterFile:
    """The complete architectural register state available to codegen.

    A fresh file exposes x1-x31 and f0-f31 as allocatable.  Reservations
    (see :class:`repro.codegen.passes.registers.ReserveRegistersPass`)
    remove registers from the allocatable pools without forgetting them.
    """

    num_int: int = 32
    num_fp: int = 32
    _reserved: set[Register] = field(default_factory=set)

    def all_registers(self) -> list[Register]:
        """Every architectural register, reserved or not."""
        ints = [Register(RegisterKind.INT, i) for i in range(self.num_int)]
        fps = [Register(RegisterKind.FP, i) for i in range(self.num_fp)]
        return ints + fps

    def reserve(self, reg: Register) -> None:
        """Mark ``reg`` unavailable for operand allocation."""
        self._reserved.add(reg)

    def release(self, reg: Register) -> None:
        """Return a previously reserved register to the pool."""
        self._reserved.discard(reg)

    def is_reserved(self, reg: Register) -> bool:
        """Whether ``reg`` is currently reserved."""
        return reg in self._reserved

    @property
    def reserved(self) -> frozenset[Register]:
        """The current reservation set (read-only view)."""
        return frozenset(self._reserved)

    def allocatable(self, kind: RegisterKind) -> list[Register]:
        """Registers of ``kind`` that codegen may assign as operands.

        x0 is excluded: it is the hardwired zero register.
        """
        if kind is RegisterKind.INT:
            pool = [Register(kind, i) for i in range(1, self.num_int)]
        else:
            pool = [Register(kind, i) for i in range(self.num_fp)]
        return [r for r in pool if r not in self._reserved]

    @staticmethod
    def parse(name: str) -> Register:
        """Parse ``x12`` / ``f3`` style names into a :class:`Register`."""
        name = name.strip().lower()
        if not name or name[0] not in "xf" or not name[1:].isdigit():
            raise ValueError(f"not a register name: {name!r}")
        kind = RegisterKind.INT if name[0] == "x" else RegisterKind.FP
        index = int(name[1:])
        if not 0 <= index < 32:
            raise ValueError(f"register index out of range: {name!r}")
        return Register(kind, index)
