#!/usr/bin/env python3
"""Generation-model comparison: abstract knobs vs instruction level.

Section II-B1 of the paper contrasts the abstract workload model (few
well-defined knobs, MicroGrad's choice) with the instruction-level model
(GeST: per-instruction genomes tuned by a GA).  This example runs both on
the same worst-case-IPC task with an equal evaluation budget and shows
why the paper picked the abstract model.  Both run on the same tuner
machinery: the instruction-level genome space plugs into the Table I
``GeneticTuner`` and ``Evaluator`` the abstract model's GA uses.

Usage::

    python examples/instruction_level_stress.py
"""

from functools import partial

from repro import MicroGrad, MicroGradConfig
from repro.codegen.instlevel import (
    FixedCodeParams,
    InstructionLevelSpace,
    evaluate_genome,
)
from repro.core.platform import PerformancePlatform
from repro.sim import LARGE_CORE
from repro.tuning.brute import CLASS_KNOB_NAMES
from repro.tuning.evaluator import Evaluator
from repro.tuning.genetic import GAParams, GeneticTuner
from repro.tuning.loss import StressLoss


def run_abstract_model():
    config = MicroGradConfig(
        use_case="stress",
        metrics=("ipc",),
        core="large",
        tuner="gd",
        knobs=CLASS_KNOB_NAMES,
        fixed_knobs={"REG_DIST": 10, "MEM_SIZE": 16, "B_PATTERN": 0.1,
                     "MUL": 0, "FADDD": 0, "BNE": 0, "LW": 0, "SW": 0},
        max_epochs=25,
        loop_size=300,
        instructions=8_000,
        seed=0,
    )
    return MicroGrad(config).run()


def run_instruction_level(evaluation_budget: int):
    platform = PerformancePlatform(LARGE_CORE, instructions=8_000)
    code = FixedCodeParams(dependency_distance=10,
                           mem_footprint_bytes=16 * 1024,
                           branch_random_ratio=0.1)
    evaluator = Evaluator(InstructionLevelSpace(length=300),
                          partial(evaluate_genome, platform.evaluate, code))
    generations = max(1, evaluation_budget // GAParams().population_size)
    tuner = GeneticTuner(
        evaluator, StressLoss("ipc"),
        GAParams(max_epochs=generations), seed=0,
    )
    return tuner.run()


def main() -> None:
    abstract = run_abstract_model()
    budget = abstract.tuning.requested_evaluations
    instruction_level = run_instruction_level(budget)

    print("worst-case IPC hunt on the Large core, equal evaluation budget")
    print(f"  abstract model + GD : IPC {abstract.metrics['ipc']:.3f} "
          f"({budget} evaluations over {len(CLASS_KNOB_NAMES)} knobs)")
    print(f"  instr-level  + GA   : IPC "
          f"{instruction_level.best_metrics['ipc']:.3f} "
          f"({instruction_level.requested_evaluations} evaluations over "
          f"300-gene genomes)")

    genome = instruction_level.best_config["GENOME"]
    print("\nfirst 20 genes of the best instruction-level genome:")
    print("  " + " ".join(genome[:20]))
    print("\nabstract-model winning knobs:")
    print(f"  {abstract.knobs}")


if __name__ == "__main__":
    main()
