"""Evaluation platforms (Section III-E).

MicroGrad interfaces with performance simulators, power estimators and
native hardware; all the tuner sees is "program in, metric dict out".  The
platforms here wrap this reproduction's Gem5-like simulator and McPAT-like
power model; a new backend (e.g. real perf counters) plugs in by
implementing :class:`EvaluationPlatform`.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.isa.program import Program
from repro.power.mcpat import PowerModel
from repro.sim.config import CoreConfig, core_by_name
from repro.sim.simulator import DEFAULT_INSTRUCTIONS, Simulator


@runtime_checkable
class EvaluationPlatform(Protocol):
    """Anything that can execute a program and report metrics.

    Platforms are picklable: execution backends ship whole platform
    instances (plus a chunk of knob configurations) into worker
    processes, where generation and evaluation both run.
    """

    name: str

    def evaluate(self, program: Program) -> dict[str, float]:
        """Run ``program`` and return its metric dict."""
        ...

    def evaluate_group(
        self, program: Program, count: int
    ) -> list[dict[str, float]]:
        """Metrics for ``count`` configs that all generate ``program``.

        The platform decides what such a group costs: simulators serve
        it from one shared pass, native execution runs every member.
        """
        ...


class SimulationPlatformMixin:
    """Shared evaluation shape for simulator-backed platforms.

    Subclasses set ``self.simulator``/``self.instructions`` in their
    constructor and override :meth:`_stats_metrics` to derive their
    metric dict from one :class:`~repro.sim.stats.SimStats`.  Because
    the metric derivation is a pure function of the stats, these
    platforms serve a whole group of equivalent evaluations from one
    shared simulation pass (:meth:`evaluate_group`) with results
    bit-identical to per-program :meth:`evaluate` calls.
    """

    def _stats_metrics(self, stats) -> dict[str, float]:
        return stats.metrics()

    def evaluate(self, program: Program) -> dict[str, float]:
        stats = self.simulator.run(program, instructions=self.instructions)
        return self._stats_metrics(stats)

    def evaluate_group(
        self, program: Program, count: int
    ) -> list[dict[str, float]]:
        """Metrics for ``count`` equivalent evaluations of ``program``.

        One :meth:`~repro.sim.simulator.Simulator.run_group` dispatch
        serves the whole group through the config-batched shared pass.
        """
        stats_list = self.simulator.run_group(
            program, count, instructions=self.instructions
        )
        return [self._stats_metrics(stats) for stats in stats_list]


class PerformancePlatform(SimulationPlatformMixin):
    """Performance-simulator platform (the Gem5 role).

    Produces the canonical metric keys of
    :data:`repro.sim.stats.METRIC_KEYS`.
    """

    def __init__(self, core: CoreConfig, instructions: int = DEFAULT_INSTRUCTIONS):
        self.core = core
        self.instructions = instructions
        self.simulator = Simulator(core)
        self.name = f"perf:{core.name}"


class PowerPlatform(SimulationPlatformMixin):
    """Performance + power platform (the Gem5 -> McPAT pipeline).

    Adds ``dynamic_power`` and ``total_power`` (watts) to the performance
    metrics, mirroring the statistics transfer of Section IV-A2.
    """

    def __init__(
        self,
        core: CoreConfig,
        instructions: int = DEFAULT_INSTRUCTIONS,
        power_model: PowerModel | None = None,
    ):
        self.core = core
        self.instructions = instructions
        self.simulator = Simulator(core)
        self.power_model = power_model or PowerModel(core)
        self.name = f"power:{core.name}"

    def _stats_metrics(self, stats) -> dict[str, float]:
        metrics = stats.metrics()
        report = self.power_model.estimate(stats)
        metrics["dynamic_power"] = report.dynamic_w
        metrics["total_power"] = report.total_w
        return metrics


class VoltageDroopPlatform(SimulationPlatformMixin):
    """dI/dt stress platform: alternate the candidate against a baseline.

    Models the classic dI/dt stressmark structure: execution alternates
    between a fixed low-activity phase (``baseline_knobs``) and the
    candidate test case; the PDN model converts the resulting power swing
    into a droop.  Metrics: the candidate's performance metrics plus
    ``droop_mv``, ``didt_a_per_ns``, ``power_swing_w`` and
    ``dynamic_power``.
    """

    def __init__(
        self,
        core: CoreConfig,
        baseline_knobs: dict | None = None,
        instructions: int = DEFAULT_INSTRUCTIONS,
        pdn=None,
    ):
        from repro.codegen.wrapper import generate_test_case
        from repro.power.droop import DroopModel

        self.core = core
        self.instructions = instructions
        self.simulator = Simulator(core)
        self.power_model = PowerModel(core)
        self.droop_model = DroopModel(pdn)
        self.name = f"droop:{core.name}"
        baseline_knobs = baseline_knobs or {
            "ADD": 2, "BEQ": 1, "REG_DIST": 1, "B_PATTERN": 0.0,
        }
        baseline_program = generate_test_case(baseline_knobs)
        baseline_stats = self.simulator.run(
            baseline_program, instructions=instructions
        )
        self._baseline_power = self.power_model.estimate(
            baseline_stats
        ).dynamic_w

    @property
    def baseline_power_w(self) -> float:
        """Dynamic power of the fixed low-activity phase."""
        return self._baseline_power

    def _stats_metrics(self, stats) -> dict[str, float]:
        metrics = stats.metrics()
        candidate_power = self.power_model.estimate(stats).dynamic_w
        report = self.droop_model.estimate(self._baseline_power,
                                           candidate_power)
        metrics["dynamic_power"] = candidate_power
        metrics["power_swing_w"] = report.power_high_w - report.power_low_w
        metrics["didt_a_per_ns"] = report.didt_a_per_ns
        metrics["droop_mv"] = report.droop_mv
        return metrics


class NativeExecutionPlatform:
    """Functional-execution platform (the "native hardware" role).

    Architecturally executes the test case with the ISA interpreter and
    reports the counters real hardware would expose without a simulator:
    dynamic instruction distribution, memory-operation and taken-branch
    rates, plus host execution throughput (``host_mips``).  Useful for
    validating generated programs and for use cases whose metrics are
    functional rather than microarchitectural.
    """

    def __init__(self, iterations: int = 40):
        self.iterations = iterations
        self.name = "native"

    def evaluate(self, program: Program) -> dict[str, float]:
        import time

        from repro.isa.interpreter import Interpreter

        start = time.perf_counter()
        result = Interpreter(program).run(iterations=self.iterations)
        elapsed = max(time.perf_counter() - start, 1e-9)

        total = max(1, result.instructions)
        metrics: dict[str, float] = {
            "instructions": float(total),
            "loads_per_instr": result.loads / total,
            "stores_per_instr": result.stores / total,
            "taken_branch_rate": (
                result.taken_branches
                / max(1, sum(
                    n for c, n in result.class_counts.items()
                    if c.name == "BRANCH"
                ))
            ),
            "host_mips": total / elapsed / 1e6,
        }
        from repro.isa.instructions import class_of_group

        group_counts: dict[str, int] = {}
        for iclass, count in result.class_counts.items():
            group = class_of_group(iclass)
            group_counts[group] = group_counts.get(group, 0) + count
        for group in ("integer", "float", "load", "store", "branch"):
            metrics[group] = group_counts.get(group, 0) / total
        return metrics

    def evaluate_group(
        self, program: Program, count: int
    ) -> list[dict[str, float]]:
        """Run ``program`` once per member: ``host_mips`` is a
        wall-clock measurement, so no member may share another's."""
        return [self.evaluate(program) for _ in range(count)]


class CompositePlatform:
    """Merge the metric dicts of several platforms (later ones win ties).

    Simulating members share each :class:`~repro.sim.artifact.TraceArtifact`
    through the process-wide artifact cache, by fingerprint and
    instruction budget, so a perf + power + droop composite expands the
    trace and simulates each event stream once per program, not once per
    member.
    """

    def __init__(self, platforms: list[EvaluationPlatform]):
        if not platforms:
            raise ValueError("composite platform needs at least one platform")
        self.platforms = list(platforms)
        self.name = "+".join(p.name for p in platforms)

    def evaluate(self, program: Program) -> dict[str, float]:
        return self.evaluate_group(program, 1)[0]

    def evaluate_group(
        self, program: Program, count: int
    ) -> list[dict[str, float]]:
        """Each member serves the whole group its own way."""
        merged: list[dict[str, float]] = [{} for _ in range(count)]
        for platform in self.platforms:
            group = platform.evaluate_group(program, count)
            for slot, metrics in zip(merged, group):
                slot.update(metrics)
        return merged


def platform_for(
    core: CoreConfig | str,
    with_power: bool = False,
    instructions: int = DEFAULT_INSTRUCTIONS,
) -> EvaluationPlatform:
    """Convenience factory: core (or name) -> platform."""
    core_config = core_by_name(core) if isinstance(core, str) else core
    if with_power:
        return PowerPlatform(core_config, instructions=instructions)
    return PerformancePlatform(core_config, instructions=instructions)
