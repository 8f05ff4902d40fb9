"""Fixtures shared across the test tree."""

import pytest

from repro.sim.artifact import GLOBAL_ARTIFACT_CACHE, TraceArtifact


@pytest.fixture
def artifact_builds(monkeypatch):
    """The budget of every ``TraceArtifact.build`` call, in call order,
    counted from an empty process-wide artifact cache."""
    GLOBAL_ARTIFACT_CACHE.clear()
    budgets: list[int] = []
    build = TraceArtifact.build.__func__

    def counting(cls, program, instructions, fingerprint=None):
        budgets.append(instructions)
        return build(cls, program, instructions, fingerprint)

    monkeypatch.setattr(TraceArtifact, "build", classmethod(counting))
    return budgets
