"""High-level knob-to-program wrapper.

This is the boundary the tuning mechanism talks to (Section III-B/III-C):
it receives a knob configuration — the Listing 1 dictionary — and builds
the Listing 2 pass pipeline that realizes it, returning the generated
program.

Knob vocabulary (matching Listing 1):

========== ====================================================
``ADD`` .. ``SW``   instruction-fraction knobs (relative weights)
``REG_DIST``        register dependency distance
``MEM_SIZE``        memory footprint in KB
``MEM_STRIDE``      access stride in bytes
``MEM_TEMP1``       temporal locality: distinct addresses to repeat
``MEM_TEMP2``       temporal locality: how often each is repeated
``B_PATTERN``       branch pattern randomization ratio
========== ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.codegen.passes.addresses import UpdateInstructionAddressesPass
from repro.codegen.passes.branches import RandomizeByTypePass
from repro.codegen.passes.building_block import SimpleBuildingBlockPass
from repro.codegen.passes.memory import GenericMemoryStreamsPass, StreamSpec
from repro.codegen.passes.profile import SetInstructionTypeByProfilePass
from repro.codegen.passes.registers import (
    DefaultRegisterAllocationPass,
    InitializeRegistersPass,
    ReserveRegistersPass,
)
from repro.codegen.passes.verify import VerifyProgramPass
from repro.codegen.synthesizer import Pass, Synthesizer
from repro.isa.program import Program

#: Knob name → ISA mnemonic for the instruction-fraction knobs of
#: Listing 1 (``FADDD`` is Listing 1's spelling of ``FADD.D``).
KNOB_INSTRUCTIONS: dict[str, str] = {
    "ADD": "ADD",
    "MUL": "MUL",
    "DIV": "DIV",
    "FADDD": "FADD.D",
    "FMULD": "FMUL.D",
    "FDIVD": "FDIV.D",
    "BEQ": "BEQ",
    "BNE": "BNE",
    "LD": "LD",
    "LW": "LW",
    "SD": "SD",
    "SW": "SW",
}

#: Registers MicroGrad keeps out of operand allocation: loop counter,
#: stream base pointers and the stack pointer.
RESERVED_REGISTERS = ("x1", "x2", "x3", "x4", "x5")

#: Default static loop size (Section IV-A1: "roughly 500 static
#: instructions in an endless loop").
DEFAULT_LOOP_SIZE = 500

MemoryStreamSpec = StreamSpec


@dataclass(frozen=True)
class GenerationOptions:
    """Non-knob generation parameters.

    Attributes:
        loop_size: static instructions in the loop body.
        seed: RNG seed for deterministic generation.
        base_pattern: periodic branch pattern before randomization.
    """

    loop_size: int = DEFAULT_LOOP_SIZE
    seed: int = 0
    base_pattern: tuple[bool, ...] = (True, True, False, True)


def _profile_from_knobs(knobs: dict) -> dict[str, float]:
    profile = {}
    for knob_name, mnemonic in KNOB_INSTRUCTIONS.items():
        weight = float(knobs.get(knob_name, 0.0))
        if weight > 0:
            profile[mnemonic] = weight
    if not profile:
        # The all-zero corner of the knob lattice: fall back to a pure
        # ALU loop so tuners exploring the corner still get a (terrible
        # for their loss) measurable program instead of an exception.
        profile["ADD"] = 1.0
    return profile


def _streams_from_knobs(knobs: dict) -> list[StreamSpec]:
    explicit = knobs.get("STREAMS")
    if explicit is not None:
        return [s if isinstance(s, StreamSpec) else StreamSpec(*s) for s in explicit]
    return [
        StreamSpec(
            stream_id=1,
            size=int(float(knobs.get("MEM_SIZE", 64)) * 1024),
            ratio=1.0,
            stride=int(knobs.get("MEM_STRIDE", 64)),
            reuse_count=int(knobs.get("MEM_TEMP1", 1)),
            reuse_period=int(knobs.get("MEM_TEMP2", 1)),
        )
    ]


def default_pass_list(
    knobs: dict, options: GenerationOptions | None = None
) -> list[Pass]:
    """The Listing 2 pipeline for a knob configuration."""
    options = options or GenerationOptions()
    has_mem = any(knobs.get(k, 0) > 0 for k in ("LD", "LW", "SD", "SW")) or (
        knobs.get("STREAMS")
    )
    passes: list[Pass] = [
        SimpleBuildingBlockPass(options.loop_size),
        ReserveRegistersPass(list(RESERVED_REGISTERS)),
        SetInstructionTypeByProfilePass(_profile_from_knobs(knobs)),
        InitializeRegistersPass(value="RNDINT"),
        RandomizeByTypePass(
            float(knobs.get("B_PATTERN", 0.0)), base_pattern=options.base_pattern
        ),
    ]
    if has_mem:
        passes.append(GenericMemoryStreamsPass(_streams_from_knobs(knobs)))
    passes += [
        DefaultRegisterAllocationPass(dd=int(knobs.get("REG_DIST", 1))),
        UpdateInstructionAddressesPass(),
        VerifyProgramPass(),
    ]
    return passes


def generation_fingerprint(
    knobs: dict, options: GenerationOptions | None = None
) -> tuple:
    """Equivalence key: equal fingerprints generate identical programs.

    Tuning epochs are full of knob configurations that differ only in
    ways the generator cannot see — proportionally scaled instruction
    weights (``apportion`` normalizes by the weight sum before rounding),
    ``B_PATTERN`` on a profile with no branches (the branch pass draws
    RNG per branch instruction, so zero branches means the knob never
    touches the program or the RNG stream), or memory-locality knobs
    when no memory instruction has weight (the memory pass is absent
    from the pipeline entirely).  This function maps a knob dict to a
    hashable key that quotients out exactly those differences, so
    :func:`repro.exec.jobs.evaluate_configs` can dispatch one generation
    + one simulation per group and fan the result back out.

    Safety over sharpness: the key errs toward *splitting*.  Unknown
    knob names are folded in verbatim (a future knob is never wrongly
    merged), and every parameter the pass pipeline reads — normalized
    profile, ``REG_DIST``, streams (only when the memory pass runs),
    ``B_PATTERN`` (only when the profile has branches), loop size, seed
    and base pattern — is part of the key.  Two configs with equal
    fingerprints satisfy ``program_fingerprint(generate_test_case(a))
    == program_fingerprint(generate_test_case(b))``; only
    ``metadata["knobs"]`` (provenance, never simulated) may differ.
    """
    from dataclasses import astuple

    options = options or GenerationOptions()
    profile = _profile_from_knobs(knobs)
    # Same normalization as apportion(): w / weight_sum is IEEE
    # correctly-rounded, so proportionally scaled profiles produce the
    # exact same ideal shares and therefore the same program.
    weight_sum = sum(profile.values())
    norm_profile = tuple(
        sorted((mnemonic, weight / weight_sum) for mnemonic, weight in profile.items())
    )
    # Identical has_mem expression to default_pass_list: when false the
    # memory pass is absent and the MEM_* knobs are provably inert.
    has_mem = any(knobs.get(k, 0) > 0 for k in ("LD", "LW", "SD", "SW")) or (
        knobs.get("STREAMS")
    )
    streams = (
        tuple(astuple(s) for s in _streams_from_knobs(knobs)) if has_mem else ()
    )
    # The branch pass consumes RNG once per branch *instruction*; with
    # no branches in the profile, B_PATTERN never reaches the program.
    has_branches = any(m in profile for m in ("BEQ", "BNE"))
    b_pattern = float(knobs.get("B_PATTERN", 0.0)) if has_branches else None
    known = set(KNOB_INSTRUCTIONS) | {
        "REG_DIST", "MEM_SIZE", "MEM_STRIDE", "MEM_TEMP1", "MEM_TEMP2",
        "B_PATTERN", "STREAMS",
    }
    extra = tuple(
        sorted((k, repr(v)) for k, v in knobs.items() if k not in known)
    )
    return (
        "genfp-v1",
        norm_profile,
        int(knobs.get("REG_DIST", 1)),
        b_pattern,
        streams,
        extra,
        options.loop_size,
        options.seed,
        tuple(options.base_pattern),
    )


def generate_test_case(
    knobs: dict, options: GenerationOptions | None = None
) -> Program:
    """Generate a test case from a knob configuration.

    Args:
        knobs: Listing 1 knob dictionary (see module docstring).  The
            optional ``STREAMS`` key overrides the single-stream memory
            knobs with explicit :class:`MemoryStreamSpec` entries.
        options: non-knob generation parameters.

    Returns:
        The generated, verified program; ``program.metadata["knobs"]``
        records the configuration for provenance.
    """
    options = options or GenerationOptions()
    with obs.span("codegen"):
        synth = Synthesizer(
            default_pass_list(knobs, options), seed=options.seed
        )
        program = synth.synthesize()
    obs.inc("codegen.programs")
    program.metadata["knobs"] = {
        k: (v if not isinstance(v, list) else list(v)) for k, v in knobs.items()
        if k != "STREAMS"
    }
    return program
