"""Program representation shared by the code generator and the simulator.

A :class:`Program` is a straight-line body of ~500 static instructions wrapped
in an endless loop (the paper's test-case shape, Section IV-A1).  Dynamic
behaviour that varies per loop iteration is attached declaratively:

* memory instructions carry a :class:`MemoryAccess` describing the stream
  they belong to (base, footprint, stride, temporal-locality window), from
  which the simulator expands the exact address of every dynamic instance;
* conditional branches carry a :class:`BranchBehavior` mixing a fully
  predictable periodic pattern with per-iteration random outcomes at the
  knob-controlled randomization ratio.

A program stores its body as integer columns, which codegen writes and
stage 1 reads; :class:`Instruction` objects are views built on demand.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from repro.isa.instructions import (
    INSTRUCTION_SET,
    InstrClass,
    InstructionDef,
    class_of_group,
)
from repro.isa.registers import Register, RegisterKind

#: Every instruction definition, in ``INSTRUCTION_SET`` order: a program's
#: op column indexes this tuple.
OPS: tuple[InstructionDef, ...] = tuple(INSTRUCTION_SET.values())
#: Mnemonic -> op id.
OP_IDS: dict[str, int] = {d.mnemonic: n for n, d in enumerate(OPS)}

#: Per-op properties, indexed by op id.
OP_NUM_SRC = np.array([d.num_src for d in OPS])
OP_NUM_DST = np.array([d.num_dst for d in OPS])
OP_IS_FP = np.array([d.operand_kind is RegisterKind.FP for d in OPS])
OP_IS_MEMORY = np.array([d.is_memory for d in OPS])
OP_IS_BRANCH = np.array([d.is_branch for d in OPS])
OP_IS_STORE = np.array([d.iclass is InstrClass.STORE for d in OPS])

#: An absent immediate or address in the int64 columns.
NONE = int(np.iinfo(np.int64).min)

#: One row per memory instruction: its slot, then the
#: :class:`MemoryAccess` fields in declaration order.
MEMORY_DTYPE = np.dtype([
    (name, np.int64)
    for name in ("slot", "stream_id", "base", "footprint", "stride",
                 "reuse_count", "reuse_period", "phase", "step")
])
#: One row per branch: its slot, an index into ``Program.patterns``, then
#: the remaining :class:`BranchBehavior` fields.
BRANCH_DTYPE = np.dtype([
    ("slot", np.int64), ("pattern", np.int64),
    ("random_ratio", np.float64), ("seed", np.int64),
    ("taken_bias", np.float64),
])


def register_id(reg: Register) -> int:
    """Column id of a register: ``2 * index + (kind is FP)``."""
    return 2 * reg.index + (reg.kind is RegisterKind.FP)


def register_of(rid: int) -> Register:
    """The register a column id names (inverse of :func:`register_id`)."""
    return Register(RegisterKind.FP if rid & 1 else RegisterKind.INT, rid >> 1)


@dataclass
class MemoryAccess:
    """Declarative address generator for one memory instruction.

    The dynamic instance ``t`` (0-based loop iteration) of the owning
    instruction accesses::

        base + (index(t) * stride) % footprint

    where ``index`` walks the stream honouring temporal locality: addresses
    are revisited in windows of ``reuse_count`` distinct elements, each
    window being swept ``reuse_period`` times before the stream moves on.
    ``reuse_period == 1`` degenerates to a pure strided stream.

    Attributes:
        stream_id: identifier of the generating memory stream.
        base: starting virtual address of the stream.
        footprint: stream footprint in bytes (wraps around).
        stride: bytes between consecutive distinct accesses.
        reuse_count: distinct addresses per temporal-reuse window (>= 1).
        reuse_period: sweeps of each window before advancing (>= 1).
        phase: position of this instruction within the stream's collective
            walk (its order among the stream's instructions).
        step: stream positions consumed per loop iteration — the number of
            instructions sharing the stream, so the stream advances
            collectively instead of once per instruction.
    """

    stream_id: int
    base: int
    footprint: int
    stride: int
    reuse_count: int = 1
    reuse_period: int = 1
    phase: int = 0
    step: int = 1

    def __post_init__(self) -> None:
        _check_memory(self._table())

    def indices(self, iterations: int) -> np.ndarray:
        """Distinct-address index for iterations ``0..iterations-1``."""
        return index_matrix(self._table(), iterations)[:, 0]

    def addresses(self, iterations: int) -> np.ndarray:
        """Virtual address of each dynamic instance of the instruction."""
        return address_matrix(self._table(), iterations)[:, 0]

    def _table(self) -> np.ndarray:
        return np.array([(0,) + astuple(self)], dtype=MEMORY_DTYPE)


def _check_memory(memory: np.ndarray) -> None:
    for bad, message in (
        (memory["footprint"] <= 0, "footprint must be positive"),
        (memory["stride"] <= 0, "stride must be positive"),
        ((memory["reuse_count"] < 1) | (memory["reuse_period"] < 1),
         "temporal locality parameters must be >= 1"),
        (memory["step"] < 1, "step must be >= 1"),
    ):
        if bad.any():
            raise ValueError(message)


def index_matrix(memory: np.ndarray, iterations: int) -> np.ndarray:
    """Distinct-address indices of many accesses in one evaluation.

    ``memory`` holds :data:`MEMORY_DTYPE` rows.  Returns an
    ``(iterations, len(memory))`` int64 matrix whose column ``j`` is the
    index walk ``index(t)`` of row ``j`` (see :class:`MemoryAccess`).
    """
    count = memory["reuse_count"]
    t = memory["phase"] + memory["step"] * np.arange(iterations)[:, None]
    window = count * memory["reuse_period"]
    return t // window * count + t % window % count


def address_matrix(memory: np.ndarray, iterations: int) -> np.ndarray:
    """Virtual addresses of many accesses in one evaluation.

    Returns an ``(iterations, len(memory))`` int64 matrix: row ``t`` is
    loop iteration ``t``, column ``j`` is
    ``base + (index(t) * stride) % footprint`` for row ``j`` of
    ``memory``.
    """
    return memory["base"] + index_matrix(
        memory, iterations
    ) * memory["stride"] % memory["footprint"]


@dataclass
class BranchBehavior:
    """Per-iteration outcome generator for one conditional branch.

    Outcomes follow a fully predictable periodic base pattern; each
    iteration is independently replaced by a random outcome with
    probability ``random_ratio`` (the paper's ``B_PATTERN`` knob).

    Attributes:
        pattern: base taken/not-taken pattern, repeated cyclically.
        random_ratio: fraction of outcomes drawn at random (0..1).
        seed: RNG seed so expansion is deterministic per instruction.
        taken_bias: probability a randomized outcome is taken.
    """

    pattern: tuple[bool, ...] = (True, False)
    random_ratio: float = 0.0
    seed: int = 0
    taken_bias: float = 0.5

    def __post_init__(self) -> None:
        _check_branches(self._table(), [self.pattern])

    def outcomes(self, iterations: int) -> np.ndarray:
        """Boolean taken/not-taken outcome per loop iteration."""
        return outcome_matrix(self._table(), [self.pattern], iterations)[:, 0]

    def _table(self) -> np.ndarray:
        row = (0, 0, self.random_ratio, self.seed, self.taken_bias)
        return np.array([row], dtype=BRANCH_DTYPE)


def _check_branches(branches: np.ndarray, patterns: list) -> None:
    if not all(patterns):
        raise ValueError("pattern must be non-empty")
    ratio = branches["random_ratio"]
    if not ((ratio >= 0.0) & (ratio <= 1.0)).all():
        raise ValueError("random_ratio must be within [0, 1]")


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k mod 2**32`` for ``k < count``: the running
    constant of ``count - 1`` successive ``SeedSequence`` hash steps."""
    return np.array(
        [init * pow(mult, k, 1 << 32) % (1 << 32) for k in range(count)],
        dtype=np.uint32,
    )


#: numpy's ``SeedSequence`` constants for a pool of 4 words: 16
#: ``hashmix`` steps while seeding (4 to fill the pool, 12 to mix it),
#: 8 steps for ``generate_state(4, np.uint64)``, and ``mix``'s factors.
_HASHMIX = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_GENERATE = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
#: PCG64's 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """One hash step per row of ``words``: xor the step's constant,
    multiply by the next one, fold the high half into the low."""
    words = (words ^ constants[:-1, None]) * constants[1:, None]
    return words ^ words >> np.uint32(16)


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of every seed.

    numpy's hash, evaluated over uint32 columns with one row per pool
    word.  A seed below ``2**64`` is at most two little-endian 32-bit
    entropy words, and a pool word past the entropy hashes a 0, so every
    seed fills the pool as ``(low, high, 0, 0)``.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & np.uint64(0xFFFFFFFF)
    pool[1] = seeds >> np.uint64(32)
    pool = _hash(pool, _HASHMIX[:5])
    # Mix each word into every other one, so late bits reach early ones.
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        step = 4 + 3 * src
        mixed = _MIX_L * pool[dst] - _MIX_R * _hash(
            pool[src], _HASHMIX[step:step + 4]
        )
        pool[dst] = mixed ^ mixed >> np.uint32(16)
    # generate_state cycles the pool for 8 words; uint64 ``k`` is words
    # ``2k`` (low half) and ``2k + 1`` (high half).
    words = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _GENERATE).astype(np.uint64)
    return (words[0::2] | words[1::2] << np.uint64(32)).T


def _draw_uniforms(draws: np.ndarray, rows: np.ndarray,
                   seeds: np.ndarray) -> None:
    """Fill ``draws[row]`` with what ``default_rng(seed).random`` draws,
    for each ``(row, seed)`` pair.

    One generator serves every row: it is set to the PCG64 state that
    seeding with ``seed`` leaves (``pcg64_set_seed``: two LCG steps from
    0, adding the seed's first 128 bits between them).
    """
    if (seeds < 0).any():
        raise ValueError("a randomized branch's seed must be non-negative")
    generator = np.random.default_rng(0)
    bit_generator = generator.bit_generator
    pcg = {}
    state = {"bit_generator": "PCG64", "state": pcg,
             "has_uint32": 0, "uinteger": 0}
    for row, (s_hi, s_lo, q_hi, q_lo) in zip(
        rows.tolist(), _seed_states(seeds).tolist()
    ):
        inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
        seeded = ((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc
        pcg.update(state=seeded & _MASK128, inc=inc)
        bit_generator.state = state
        generator.random(out=draws[row])


def outcome_matrix(
    branches: np.ndarray, patterns: list[tuple[bool, ...]], iterations: int
) -> np.ndarray:
    """Taken/not-taken outcomes of many branches in one evaluation.

    ``branches`` holds :data:`BRANCH_DTYPE` rows whose ``pattern`` field
    indexes ``patterns``.  Returns an ``(iterations, len(branches))``
    bool matrix: column ``j`` repeats row ``j``'s pattern cyclically,
    except where that branch's randomization fires.  A randomized branch
    (``random_ratio > 0``) draws the ``2 * iterations`` uniforms that
    ``default_rng(seed)`` draws: draw ``t`` below ``random_ratio``
    randomizes iteration ``t``, whose outcome is then draw
    ``iterations + t`` below ``taken_bias``.
    """
    if not len(branches):
        return np.empty((iterations, 0), dtype=bool)
    # Branch-major (one row per branch), so each branch draws into one
    # contiguous row in place; returned transposed.
    base = np.stack(
        [np.resize(np.asarray(p, dtype=bool), iterations) for p in patterns]
    )[branches["pattern"]]
    # A branch with random_ratio 0 draws nothing: its zero row is never
    # below its threshold of 0.0, so it keeps its base pattern.
    draws = np.zeros((len(branches), 2 * iterations))
    ratios = branches["random_ratio"]
    randomized = np.flatnonzero(ratios != 0.0)
    if len(randomized):
        _draw_uniforms(draws, randomized, branches["seed"][randomized])
    thresholds = np.stack([ratios, branches["taken_bias"]], axis=1)
    fired = (
        draws.reshape(len(branches), 2, iterations) < thresholds[:, :, None]
    )
    return np.where(fired[:, 0], fired[:, 1], base).T


@dataclass
class Instruction:
    """One static instruction of the loop body: a view of a
    :class:`Program`'s columns, or hand-built for ``Program(body=...)``.

    Attributes:
        idef: static definition (mnemonic, class, latency, ...).
        dests: destination registers (possibly empty).
        srcs: source registers.
        immediate: immediate operand when the encoding carries one.
        address: byte address (PC) assigned by the address-update pass.
        memory: address generator, for loads/stores only.
        branch: outcome generator, for conditional branches only.
        label: optional label preceding the instruction.
        comment: free-form annotation carried into the assembly dump.
    """

    idef: InstructionDef
    dests: list[Register] = field(default_factory=list)
    srcs: list[Register] = field(default_factory=list)
    immediate: int | None = None
    address: int | None = None
    memory: MemoryAccess | None = None
    branch: BranchBehavior | None = None
    label: str | None = None
    comment: str | None = None

    @property
    def mnemonic(self) -> str:
        return self.idef.mnemonic

    @property
    def iclass(self) -> InstrClass:
        return self.idef.iclass


class Program:
    """A generated test case: a loop body plus metadata.

    The body executes as an endless loop (a final always-taken back edge is
    implicit; the generator materializes it as the last instruction).  The
    ``metadata`` dict records provenance, e.g. the knob configuration the
    generator was invoked with.

    The body is stored as columns, one entry per instruction slot unless
    noted: ``ops`` (op ids into :data:`OPS`); ``srcs``/``dests``
    (:func:`register_id` matrices, rows padded with -1, so any operand
    count round-trips); ``immediates``/``addresses`` (:data:`NONE` where
    absent); ``memory``/``branches`` (one row per attached stream or
    behaviour, in slot order; ``patterns`` holds the distinct branch
    patterns); ``labels``/``comments`` (sparse ``{slot: text}``).
    Writers assign whole columns; :attr:`body` views are copies.
    """

    def __init__(
        self,
        body: list[Instruction] | None = None,
        entry_address: int = 0x10000,
        metadata: dict | None = None,
    ):
        self.entry_address = entry_address
        self.metadata = {} if metadata is None else metadata
        self._load(body or [])

    def __setattr__(self, name: str, value) -> None:
        # Writing any column drops the views built from the old ones.
        object.__setattr__(self, name, value)
        self.__dict__["_views"] = None

    def __getstate__(self) -> dict:
        return dict(self.__dict__, _views=None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        theirs = other.__getstate__()
        return self.__dict__.keys() == theirs.keys() and all(
            np.array_equal(value, theirs[name])
            if isinstance(value, np.ndarray) else value == theirs[name]
            for name, value in self.__getstate__().items()
        )

    def reset(self, ops) -> None:
        """Replace the body with fresh instructions of op ids ``ops``:
        no operands, attachments, addresses or labels."""
        self.ops = np.asarray(ops, dtype=np.int64)
        n = len(self.ops)
        self.srcs, self.dests = np.empty((2, n, 0), dtype=np.int64)
        self.immediates, self.addresses = np.full((2, n), NONE)
        self.memory = np.empty(0, dtype=MEMORY_DTYPE)
        self.branches = np.empty(0, dtype=BRANCH_DTYPE)
        self.patterns: list[tuple[bool, ...]] = []
        self.labels: dict[int, str] = {}
        self.comments: dict[int, str] = {}

    def _load(self, body: list[Instruction]) -> None:
        """Convert hand-built instructions to columns."""
        self.reset([_op_id(instr.idef) for instr in body])
        self.srcs = _operand_matrix(
            [[register_id(r) for r in i.srcs] for i in body])
        self.dests = _operand_matrix(
            [[register_id(r) for r in i.dests] for i in body])
        self.immediates, self.addresses = np.array(
            [[NONE if v is None else v for v in (i.immediate, i.address)]
             for i in body], dtype=np.int64,
        ).reshape(-1, 2).T
        self.memory = np.array(
            [(slot,) + astuple(instr.memory)
             for slot, instr in enumerate(body) if instr.memory is not None],
            dtype=MEMORY_DTYPE,
        )
        patterns: dict[tuple[bool, ...], int] = {}
        self.branches = np.array(
            [(slot,
              patterns.setdefault(tuple(b.pattern), len(patterns)),
              b.random_ratio, b.seed, b.taken_bias)
             for slot, b in enumerate(i.branch for i in body)
             if b is not None],
            dtype=BRANCH_DTYPE,
        )
        self.patterns = list(patterns)
        self.labels = {n: i.label for n, i in enumerate(body)
                       if i.label is not None}
        self.comments = {n: i.comment for n, i in enumerate(body)
                         if i.comment is not None}

    @property
    def body(self) -> list[Instruction]:
        """The body as :class:`Instruction` views, built on first use."""
        if self._views is None:
            self.__dict__["_views"] = instruction_views(self)
        return self._views

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.body)

    def validate(self) -> None:
        """Check operand counts, per-class attachments and attachment
        parameters; raise ``ValueError`` on the first violation."""
        ops = self.ops
        if not len(ops):
            raise ValueError("program body is empty")
        n_dst = (self.dests >= 0).sum(axis=1)
        n_src = (self.srcs >= 0).sum(axis=1)
        has_mem, has_br = np.zeros((2, len(ops)), dtype=bool)
        has_mem[self.memory["slot"]] = has_br[self.branches["slot"]] = True
        is_mem, is_br = OP_IS_MEMORY[ops], OP_IS_BRANCH[ops]
        checks = (
            (n_dst != OP_NUM_DST[ops], "expected {d.num_dst} dests, got {dst}"),
            (n_src != OP_NUM_SRC[ops], "expected {d.num_src} srcs, got {src}"),
            (is_mem & ~has_mem, "memory instruction lacks a stream"),
            (has_mem & ~is_mem, "non-memory instruction has a stream"),
            (is_br & ~has_br, "branch lacks a behaviour"),
            (has_br & ~is_br, "non-branch instruction has a behaviour"),
        )
        bad = np.stack([failed for failed, _ in checks])
        if bad.any():
            slot = int(bad.any(axis=0).argmax())
            idef = OPS[ops[slot]]
            problem = checks[int(bad[:, slot].argmax())][1].format(
                d=idef, dst=n_dst[slot], src=n_src[slot]
            )
            raise ValueError(f"{idef.mnemonic}: {problem}")
        _check_memory(self.memory)
        _check_branches(self.branches, self.patterns)

    def class_counts(self) -> dict[InstrClass, int]:
        """Static instruction count per microarchitectural class, in
        order of first appearance."""
        ops, first, counts = np.unique(
            self.ops, return_index=True, return_counts=True
        )
        out: dict[InstrClass, int] = {}
        for _, op, n in sorted(zip(first.tolist(), ops.tolist(),
                                   counts.tolist())):
            out[OPS[op].iclass] = out.get(OPS[op].iclass, 0) + n
        return out

    def group_fractions(self) -> dict[str, float]:
        """Static distribution over reporting groups (sums to 1)."""
        return group_fractions(self.class_counts())

    def memory_instructions(self) -> list[Instruction]:
        """All loads and stores, in program order (views)."""
        return [self.body[s] for s in self.memory["slot"].tolist()]

    def branch_instructions(self) -> list[Instruction]:
        """All conditional branches, in program order (views)."""
        return [self.body[s] for s in self.branches["slot"].tolist()]


def instruction_views(program: Program) -> list[Instruction]:
    """Build one :class:`Instruction` per slot from ``program``'s columns."""
    def optional(value: int) -> int | None:
        return None if value == NONE else value

    body = [
        Instruction(
            OPS[op], [register_of(r) for r in dests if r >= 0],
            [register_of(r) for r in srcs if r >= 0], optional(imm),
            optional(addr), label=program.labels.get(n),
            comment=program.comments.get(n),
        )
        for n, (op, dests, srcs, imm, addr) in enumerate(zip(
            program.ops.tolist(), program.dests.tolist(),
            program.srcs.tolist(), program.immediates.tolist(),
            program.addresses.tolist(),
        ))
    ]
    for slot, *fields in program.memory.tolist():
        body[slot].memory = MemoryAccess(*fields)
    for slot, pattern, *fields in program.branches.tolist():
        body[slot].branch = BranchBehavior(program.patterns[pattern], *fields)
    return body


def _op_id(idef: InstructionDef) -> int:
    op = OP_IDS.get(idef.mnemonic)
    if op is None or OPS[op] != idef:
        raise ValueError(f"{idef.mnemonic}: not in the instruction set")
    return op


def _operand_matrix(rows: list[list[int]]) -> np.ndarray:
    """Register-id rows, padded with -1 to the longest."""
    width = max(map(len, rows), default=0)
    return np.array(
        [row + [-1] * (width - len(row)) for row in rows], dtype=np.int64
    ).reshape(len(rows), width)


def group_fractions(class_counts: dict[InstrClass, int]) -> dict[str, float]:
    """Distribution over reporting groups of per-class instruction counts.

    Groups appear in the order their first class appears in
    ``class_counts``, so counts in program order give groups in program
    order.
    """
    total = sum(class_counts.values())
    counts: dict[str, int] = {}
    for iclass, n in class_counts.items():
        group = class_of_group(iclass)
        counts[group] = counts.get(group, 0) + n
    return {g: n / total for g, n in counts.items()}
