"""Ablation: abstract workload model vs instruction-level model.

Section II-B1 argues the abstract model's few, well-defined knobs make
tuning dramatically cheaper, while instruction-level models (GeST) need
GA operators over long per-instruction genomes.  This bench runs both on
the same worst-case-IPC task and compares outcome per evaluation spent.
"""

from functools import partial

import pytest

from repro.codegen.instlevel import (
    FixedCodeParams,
    InstructionLevelSpace,
    evaluate_genome,
)
from repro.core.framework import MicroGrad
from repro.core.platform import PerformancePlatform
from repro.sim import LARGE_CORE
from repro.tuning.evaluator import Evaluator
from repro.tuning.genetic import GAParams, GeneticTuner
from repro.tuning.loss import StressLoss

from benchmarks.harness import BUDGETS, print_header, stress_config


@pytest.fixture(scope="module")
def abstract_result():
    return MicroGrad(stress_config("ipc", False, "large", "gd")).run()


@pytest.fixture(scope="module")
def instruction_level_result(abstract_result):
    platform = PerformancePlatform(
        LARGE_CORE, instructions=BUDGETS.stress_instructions
    )
    code = FixedCodeParams(
        dependency_distance=10,
        mem_footprint_bytes=16 * 1024,
        branch_random_ratio=0.1,
    )
    evaluator = Evaluator(
        InstructionLevelSpace(length=BUDGETS.stress_loop),
        partial(evaluate_genome, platform.evaluate, code),
    )
    # Equal evaluation budget to the abstract-model GD run.
    budget = max(1, abstract_result.tuning.requested_evaluations)
    epochs = max(1, budget // GAParams().population_size)
    tuner = GeneticTuner(
        evaluator, StressLoss("ipc"),
        GAParams(max_epochs=epochs), seed=0,
    )
    return tuner.run()


def test_ablation_model_comparison(abstract_result, instruction_level_result):
    print_header(
        "Ablation: abstract workload model (GD) vs instruction-level (GA)",
        "Section II-B1: few well-defined knobs reduce tuning complexity; "
        "instruction-level control needs far more evaluations",
    )
    abstract_ipc = abstract_result.metrics["ipc"]
    inst_ipc = instruction_level_result.best_metrics["ipc"]
    print(
        f"abstract+GD        : worst IPC {abstract_ipc:.3f} in "
        f"{abstract_result.tuning.requested_evaluations} evaluations "
        f"({abstract_result.tuning.epochs} epochs, 5 knobs)"
    )
    print(
        f"instruction-level+GA: worst IPC {inst_ipc:.3f} in "
        f"{instruction_level_result.requested_evaluations} evaluations "
        f"({instruction_level_result.epochs} generations, "
        f"{BUDGETS.stress_loop}-gene genomes)"
    )
    # At an equal evaluation budget the abstract model must not lose:
    # its search space is exponentially smaller for the same behaviours.
    assert abstract_ipc <= inst_ipc * 1.05


def test_ablation_genome_dimensionality(instruction_level_result):
    """The instruction-level genome is orders of magnitude larger than
    the knob vector — the paper's core complexity argument."""
    genome = instruction_level_result.best_config["GENOME"]
    print(f"instruction-level genome length: {len(genome)} genes "
          f"vs 5 abstract class knobs")
    assert len(genome) >= 50


def test_ablation_instruction_level_still_tunes(instruction_level_result):
    """Sanity: the GeST-style path does make progress (it is a real
    baseline, not a strawman)."""
    curve = [r.best_loss for r in instruction_level_result.history]
    assert curve[-1] <= curve[0]
