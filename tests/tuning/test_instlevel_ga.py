"""The Table I GA tuning the instruction-level model.

The instruction-level genome space plugs into the same
:class:`GeneticTuner` and :class:`Evaluator` the abstract model uses.
"""

from functools import partial

from repro import obs
from repro.codegen.instlevel import InstructionLevelSpace, evaluate_genome
from repro.tuning.evaluator import Evaluator
from repro.tuning.genetic import GAParams, GeneticTuner
from repro.tuning.loss import StressLoss


def _stores(program):
    """Loss = fraction of non-SD genes: global optimum is all stores."""
    stores = sum(1 for i in program if i.mnemonic == "SD")
    return {"y": 1.0 - stores / len(program)}


def _synthetic_tuner(params, seed):
    evaluator = Evaluator(InstructionLevelSpace(length=12),
                          partial(evaluate_genome, _stores, None))
    return GeneticTuner(evaluator, StressLoss(metric="y"), params, seed=seed)


class TestInstructionLevelGA:
    def test_seeded_run_is_pinned(self):
        """Values recorded from the dedicated instruction-level GA this
        tuner replaced: the run is draw-for-draw the same."""
        result = _synthetic_tuner(
            GAParams(max_epochs=8, population_size=12), seed=3
        ).run()
        assert result.best_config["GENOME"] == (
            "SD", "ADD", "MUL", "LD", "SD", "SD", "SD", "BNE", "ADD", "SD",
            "FMUL.D", "MUL",
        )
        assert result.best_loss == 0.5833333333333333
        assert [r.loss for r in result.history] == [
            0.75, 0.75, 0.6666666666666667, 0.6666666666666667,
            0.5833333333333333, 0.5833333333333333, 0.5833333333333333,
            0.5833333333333333,
        ]
        assert [r.evaluations for r in result.history] == [
            12, 24, 36, 48, 60, 72, 84, 96,
        ]
        assert result.requested_evaluations == 96
        assert result.unique_evaluations == 46
        assert (result.epochs, result.stop_reason) == (8, "max_epochs")

    def test_converges_toward_optimum(self):
        result = _synthetic_tuner(
            GAParams(max_epochs=20, population_size=30), seed=0
        ).run()
        assert result.best_loss < 0.35  # mostly stores

    def test_epoch_cost_is_population_size(self):
        result = _synthetic_tuner(
            GAParams(max_epochs=3, population_size=15, target_loss=-1.0),
            seed=1,
        ).run()
        assert result.requested_evaluations == 3 * 15

    def test_generation_is_one_evaluator_batch(self):
        batches = []

        def batch_fn(configs):
            batches.append(len(configs))
            return [evaluate_genome(_stores, None, c) for c in configs]

        evaluator = Evaluator(InstructionLevelSpace(length=12),
                              partial(evaluate_genome, _stores, None),
                              batch_fn=batch_fn)
        with obs.collect() as scope:
            result = GeneticTuner(
                evaluator, StressLoss(metric="y"),
                GAParams(max_epochs=3, population_size=10, target_loss=-1.0),
                seed=2,
            ).run()
        # One dispatch per generation, of its unique genomes only.
        assert len(batches) == 3
        assert sum(batches) == result.unique_evaluations
        assert scope.snapshot().timers["tuner.epoch"].count == 3

    def test_result_config_carries_genome(self):
        result = _synthetic_tuner(
            GAParams(max_epochs=2, population_size=10), seed=2
        ).run()
        genome = result.best_config["GENOME"]
        assert len(genome) == 12

    def test_best_loss_monotone(self):
        result = _synthetic_tuner(
            GAParams(max_epochs=8, population_size=12), seed=3
        ).run()
        curve = result.loss_curve()
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_target_loss_stops_early(self):
        result = _synthetic_tuner(
            GAParams(max_epochs=60, population_size=30, target_loss=0.35),
            seed=4,
        ).run()
        assert result.converged
        assert result.epochs < 60


class TestModelComparisonOnSubstrate:
    def test_instruction_level_ga_runs_on_real_platform(self):
        """End to end on the simulator: minimize IPC over sequences."""
        from repro.core.platform import PerformancePlatform
        from repro.sim import SMALL_CORE

        platform = PerformancePlatform(SMALL_CORE, instructions=3_000)
        evaluator = Evaluator(InstructionLevelSpace(length=40),
                              partial(evaluate_genome, platform.evaluate,
                                      None))
        result = GeneticTuner(
            evaluator, StressLoss("ipc"),
            GAParams(max_epochs=4, population_size=12), seed=5,
        ).run()
        assert result.best_metrics["ipc"] > 0
        first = result.history[0].loss
        assert result.best_loss <= first

