"""Phased (multi-section) test-case generation.

dI/dt stressmarks alternate high- and low-activity sections within one
loop so the current ramps every iteration (Kim & John; Bertran et al.'s
voltage-noise work, both cited by the paper).  This module composes
multiple knob configurations into a single loop: each section is
generated with the ordinary pipeline, streams are renumbered so sections
do not alias, bodies are concatenated and re-laid-out.

The generated program records section boundaries in
``metadata["sections"]`` so analyses (e.g. per-phase power) can split it
back apart with :func:`split_sections`.
"""

from __future__ import annotations

import numpy as np

from repro.codegen.wrapper import GenerationOptions, generate_test_case
from repro.isa.program import OP_IS_BRANCH, Program

#: Stream-id stride between sections (keeps their address regions apart).
_SECTION_STREAM_OFFSET = 8


def _renumber_streams(knobs: dict, section: int) -> dict:
    """Give a section's streams ids unique to that section."""
    updated = dict(knobs)
    explicit = updated.get("STREAMS")
    if explicit is not None:
        renumbered = []
        for spec in explicit:
            spec = list(spec)
            spec[0] = spec[0] + section * _SECTION_STREAM_OFFSET
            renumbered.append(spec)
        updated["STREAMS"] = renumbered
    else:
        updated["STREAMS"] = [[
            1 + section * _SECTION_STREAM_OFFSET,
            int(float(updated.get("MEM_SIZE", 64)) * 1024),
            1.0,
            int(updated.get("MEM_STRIDE", 64)),
            int(updated.get("MEM_TEMP1", 1)),
            int(updated.get("MEM_TEMP2", 1)),
        ]]
    return updated


def generate_phased_test_case(
    sections: list[dict], options: GenerationOptions | None = None
) -> Program:
    """Generate one loop whose body alternates through ``sections``.

    Args:
        sections: knob configurations, one per section; each section gets
            an equal share of the loop body.
        options: generation options; ``loop_size`` is the total size.

    Returns:
        The merged, validated program with ``metadata["sections"]`` set
        to ``[(start, end), ...]`` body index ranges.

    Raises:
        ValueError: with fewer than two sections (use the plain
            generator for one).
    """
    if len(sections) < 2:
        raise ValueError("phased generation needs >= 2 sections")
    options = options or GenerationOptions()
    per_section = max(1, options.loop_size // len(sections))

    body = []
    boundaries = []
    cursor = 0
    for n, knobs in enumerate(sections):
        has_mem = any(knobs.get(k, 0) > 0 for k in ("LD", "LW", "SD", "SW"))
        section_knobs = _renumber_streams(knobs, n) if has_mem else dict(knobs)
        section_options = GenerationOptions(
            loop_size=per_section,
            seed=options.seed + n,
            base_pattern=options.base_pattern,
        )
        part = generate_test_case(section_knobs, section_options)
        body += part.body
        boundaries.append((cursor, cursor + len(part)))
        cursor += len(part)

    # Re-layout addresses across the merged body.
    merged = Program(body=body)
    entry = merged.entry_address
    merged.addresses = entry + 4 * np.arange(len(merged), dtype=np.int64)
    merged.immediates = np.where(
        OP_IS_BRANCH[merged.ops], entry, merged.immediates
    )
    merged.metadata["code_bytes"] = 4 * len(merged)
    merged.metadata["sections"] = boundaries
    merged.metadata["section_knobs"] = [dict(s) for s in sections]
    merged.metadata["loop_size"] = len(merged)
    merged.metadata["dependency_distance"] = max(
        int(s.get("REG_DIST", 1)) for s in sections
    )
    merged.validate()
    return merged


def split_sections(program: Program) -> list[Program]:
    """Split a phased program back into per-section programs.

    Raises:
        ValueError: if the program carries no section metadata.
    """
    boundaries = program.metadata.get("sections")
    if not boundaries:
        raise ValueError("program has no section metadata")
    parts = []
    for n, (start, end) in enumerate(boundaries):
        part = Program(
            body=program.body[start:end],
            entry_address=program.entry_address + 4 * start,
        )
        part.metadata["loop_size"] = end - start
        section_knobs = program.metadata.get("section_knobs")
        if section_knobs:
            part.metadata["knobs"] = section_knobs[n]
            part.metadata["dependency_distance"] = int(
                section_knobs[n].get("REG_DIST", 1)
            )
        part.metadata["code_bytes"] = 4 * (end - start)
        parts.append(part)
    return parts
