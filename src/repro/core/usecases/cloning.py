"""Workload cloning use case (Section II-A, III-A1).

Resolves the clone's target metric vector — from explicit values, from a
reference application characterized on the evaluation platform, or per
simpoint — and provides the log-loss the tuner minimizes plus the
accuracy-based stopping condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import MicroGradConfig
from repro.sim.config import core_by_name
from repro.tuning.knobs import KnobSpace
from repro.tuning.loss import CloningLoss
from repro.workloads.spec import get_benchmark

#: Mix knobs per reporting group (used by the informed initialization).
_GROUP_KNOBS = {
    "integer": ("ADD", "MUL"),
    "float": ("FADDD", "FMULD"),
    "branch": ("BEQ", "BNE"),
    "load": ("LD", "LW"),
    "store": ("SD", "SW"),
}


@dataclass
class CloningUseCase:
    """Builds the loss/targets for one cloning run."""

    config: MicroGradConfig

    def resolve_targets(self) -> dict[str, float]:
        """The metric values the clone must match.

        Explicit ``targets`` win; otherwise the named reference
        application is characterized on the configured core with the
        configured instruction budget (the "provide the application
        binary" input mode).

        Raises:
            ValueError: if a metric of interest has no target value.
        """
        if self.config.targets:
            targets = dict(self.config.targets)
        else:
            workload = get_benchmark(self.config.application)
            core = core_by_name(self.config.core)
            if self.config.application_scope == "simpoint":
                targets = workload.dominant_phase_metrics(
                    core, instructions=self.config.instructions
                )
            else:
                targets = workload.reference_metrics(
                    core, instructions=self.config.instructions
                )
        missing = [m for m in self.config.metrics if m not in targets]
        if missing:
            raise ValueError(f"no target value for metrics: {missing}")
        return {m: targets[m] for m in self.config.metrics}

    #: Instruction-distribution metrics depend only on the mix knobs,
    #: which makes them near-separable from the rest of the search; a
    #: higher weight lets the tuner pin the distribution first and spend
    #: the remaining knobs on rates and IPC, mirroring how the paper's
    #: clones match distributions essentially exactly.
    DISTRIBUTION_WEIGHT = 3.0
    _DISTRIBUTION_METRICS = ("integer", "float", "load", "store", "branch")

    def loss(self, targets: dict[str, float]) -> CloningLoss:
        """Log loss over the metrics of interest (Section IV-A4)."""
        weights = {
            m: self.DISTRIBUTION_WEIGHT
            for m in targets
            if m in self._DISTRIBUTION_METRICS
        }
        return CloningLoss(targets=targets, weights=weights)

    def target_loss(self) -> float:
        """Loss threshold equivalent to the configured accuracy target.

        A uniform per-metric ratio of ``accuracy_target`` produces a log
        loss of ``ln(accuracy)^2``; reaching it means every metric is at
        least that accurate on average.
        """
        return math.log(self.config.accuracy_target) ** 2

    def initial_vector(
        self, targets: dict[str, float], space: KnobSpace
    ) -> np.ndarray:
        """Informed starting point for the gradient tuner.

        Classic cloning generators (Bell & John) build the synthetic
        spine directly from the measured characteristics; we seed the
        tuner the same way: mix-knob positions from the target
        instruction distribution, ``B_PATTERN`` from the target
        misprediction rate, footprint from the target hit rates, and the
        remaining knobs at mid-range.  Gradient descent then refines
        jointly — keeping the paper's few-epoch convergence while
        retaining its synergic (non-greedy) tuning.
        """
        # Desired per-knob weight: group fraction split across its knobs,
        # scaled so the largest knob sits at the lattice top.
        desired: dict[str, float] = {}
        for group, knob_names in _GROUP_KNOBS.items():
            fraction = max(0.0, targets.get(group, 0.0))
            for name in knob_names:
                desired[name] = fraction / len(knob_names)
        peak = max(desired.values()) or 1.0

        mispredict = targets.get("mispredict_rate", 0.1)
        # Invert the measured gshare mispredict-vs-B_PATTERN curve (steep
        # at the low end where the predictor's history is only partially
        # polluted; saturating near 0.5 at full randomness).
        curve_b = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.7, 1.0)
        curve_mis = (0.003, 0.088, 0.153, 0.199, 0.245, 0.275, 0.306,
                     0.358, 0.400, 0.450, 0.505)
        b_pattern = float(np.interp(mispredict, curve_mis, curve_b))

        l1d_hit = targets.get("l1d_hit_rate", 0.9)
        l2_hit = targets.get("l2_hit_rate", 0.9)
        ipc = targets.get("ipc", 1.0)
        if l1d_hit > 0.97:
            mem_kb = 8.0
        elif l2_hit > 0.6:
            mem_kb = 128.0
        else:
            mem_kb = 1024.0
        # Temporal locality: a low L1D hit target means the application
        # streams (no reuse); a high one means tight reuse windows.
        if l1d_hit < 0.6:
            reuse_count, reuse_period = 1.0, 1.0
        elif l1d_hit < 0.9:
            reuse_count, reuse_period = 4.0, 2.0
        else:
            reuse_count, reuse_period = 16.0, 4.0
        stride = 48.0 if l1d_hit < 0.7 else 16.0
        # ILP seed: very low target IPC usually means short dependency
        # chains (pointer chasing); high IPC means ample parallelism.
        if ipc < 0.3:
            reg_dist = 2.0
        elif ipc < 1.0:
            reg_dist = 4.0
        else:
            reg_dist = 7.0

        seeds = {
            "B_PATTERN": b_pattern,
            "MEM_SIZE": mem_kb,
            "MEM_TEMP1": reuse_count,
            "MEM_TEMP2": reuse_period,
            "MEM_STRIDE": stride,
            "REG_DIST": reg_dist,
        }
        positions = []
        for knob in space.knobs:
            values = np.asarray(knob.values, dtype=float)
            if knob.name in desired:
                value = 10.0 * desired[knob.name] / peak
            elif knob.name in seeds:
                value = seeds[knob.name]
            else:
                positions.append((len(values) - 1) / 2.0)
                continue
            positions.append(float(np.argmin(np.abs(values - value))))
        return np.asarray(positions)
