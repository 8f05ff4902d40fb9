"""Unit tests for the gradient-descent tuner (Listing 3)."""

import numpy as np
import pytest

from repro.tuning.gradient import GDParams, GradientDescentTuner

from tests.tuning.conftest import make_quadratic_problem


class TestSchedules:
    def test_step_size_decays_monotonically(self):
        p = GDParams()
        steps = [p.step_size(e) for e in range(30)]
        assert all(a >= b for a, b in zip(steps, steps[1:]))
        assert steps[0] == p.step_initial
        assert steps[-1] >= p.step_final

    def test_step_size_floors_at_final(self):
        p = GDParams(step_initial=2.0, step_final=0.5, step_decay=0.5)
        assert p.step_size(100) == 0.5

    def test_skip_chance_decays(self):
        p = GDParams()
        chances = [p.skip_chance(e) for e in range(20)]
        assert all(a >= b for a, b in zip(chances, chances[1:]))
        assert chances[0] == p.skip_probability


class TestConvergence:
    def test_converges_to_quadratic_minimum(self, quadratic_problem):
        space, evaluator, loss = quadratic_problem
        tuner = GradientDescentTuner(
            evaluator, loss, GDParams(max_epochs=40), seed=3
        )
        result = tuner.run()
        assert result.best_loss <= 1.0
        assert result.best_config["K0"] == pytest.approx(3.0, abs=1.0)
        assert result.best_config["K1"] == pytest.approx(7.0, abs=1.0)

    def test_target_loss_stops_early(self, quadratic_problem):
        space, evaluator, loss = quadratic_problem
        tuner = GradientDescentTuner(
            evaluator, loss, GDParams(max_epochs=60, target_loss=0.5), seed=3
        )
        result = tuner.run()
        assert result.converged
        assert result.stop_reason == "target_loss"
        assert result.epochs < 60

    def test_initial_vector_is_honoured(self, quadratic_problem):
        space, evaluator, loss = quadratic_problem
        start = np.array([3.0, 7.0, 5.0])
        tuner = GradientDescentTuner(
            evaluator, loss,
            GDParams(max_epochs=5, target_loss=1e-9),
            initial=start, seed=0,
        )
        result = tuner.run()
        assert result.best_loss == pytest.approx(0.0)
        assert result.epochs == 1

    def test_escapes_local_minimum_with_restarts(self, multimodal_problem):
        space, evaluator, loss = multimodal_problem
        # Start inside the deceptive basin.
        escaped = 0
        for seed in range(5):
            space, evaluator, loss = multimodal_problem
            evaluator.reset_counters()
            tuner = GradientDescentTuner(
                evaluator, loss,
                GDParams(max_epochs=120, target_loss=0.1, patience=5,
                         restarts_on_plateau=8),
                initial=np.array([1.0, 1.0]), seed=seed,
            )
            if tuner.run().best_loss < 2.0:  # local basin floors at 2.0
                escaped += 1
        assert escaped >= 4


class TestCostAccounting:
    def test_epoch_cost_is_about_two_gradient_checks_per_knob(self):
        space, evaluator, loss = make_quadratic_problem((3.0, 7.0, 5.0))
        params = GDParams(max_epochs=4, skip_probability=0.0,
                          target_loss=-1.0, restarts_on_plateau=0,
                          movement_epsilon=0.0, patience=100)
        tuner = GradientDescentTuner(evaluator, loss, params, seed=0)
        result = tuner.run()
        # Per epoch: 1 base + 2*knobs gradient checks.
        expected = result.epochs * (1 + 2 * len(space))
        assert result.requested_evaluations == expected

    def test_skipping_reduces_evaluations(self):
        space_a, eval_a, loss_a = make_quadratic_problem()
        space_b, eval_b, loss_b = make_quadratic_problem()
        never_skip = GradientDescentTuner(
            eval_a, loss_a,
            GDParams(max_epochs=6, skip_probability=0.0, target_loss=-1,
                     movement_epsilon=0.0, patience=100,
                     restarts_on_plateau=0),
            seed=1,
        ).run()
        heavy_skip = GradientDescentTuner(
            eval_b, loss_b,
            GDParams(max_epochs=6, skip_probability=0.9, skip_decay=1.0,
                     target_loss=-1, movement_epsilon=0.0, patience=100,
                     restarts_on_plateau=0),
            seed=1,
        ).run()
        assert (
            heavy_skip.requested_evaluations < never_skip.requested_evaluations
        )


class TestHistory:
    def test_history_records_every_epoch(self, quadratic_problem):
        space, evaluator, loss = quadratic_problem
        params = GDParams(max_epochs=8, target_loss=-1.0,
                          movement_epsilon=0.0, patience=100,
                          restarts_on_plateau=0)
        result = GradientDescentTuner(evaluator, loss, params, seed=2).run()
        assert len(result.history) == result.epochs
        assert [r.epoch for r in result.history] == list(
            range(1, result.epochs + 1)
        )

    def test_best_loss_curve_is_monotone(self, quadratic_problem):
        space, evaluator, loss = quadratic_problem
        result = GradientDescentTuner(
            evaluator, loss, GDParams(max_epochs=20), seed=4
        ).run()
        curve = result.loss_curve()
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_evaluation_counter_is_cumulative(self, quadratic_problem):
        space, evaluator, loss = quadratic_problem
        result = GradientDescentTuner(
            evaluator, loss, GDParams(max_epochs=10), seed=4
        ).run()
        counts = [r.evaluations for r in result.history]
        assert all(a <= b for a, b in zip(counts, counts[1:]))


class TestWholeEpochBatches:
    def test_each_epoch_is_one_batch(self, quadratic_problem):
        space, evaluator, loss = quadratic_problem
        sizes = []
        original = evaluator.evaluate_batch

        def spy(batch):
            sizes.append(len(batch))
            return original(batch)

        evaluator.evaluate_batch = spy
        result = GradientDescentTuner(
            evaluator, loss, GDParams(max_epochs=6, target_loss=-1.0,
                                      patience=99, movement_epsilon=0.0),
            seed=1,
        ).run()
        # Exactly one evaluator round-trip per epoch: base + 2 probes
        # per non-skipped knob, never a separate base evaluate() call.
        assert len(sizes) == len(result.history) == 6
        assert all(s % 2 == 1 and 1 <= s <= 1 + 2 * len(space)
                   for s in sizes)

    def test_batched_epochs_match_sequential_formulation(self):
        """Trajectory regression: the epoch batch must not change results.

        A second evaluator that refuses batching (``batch_fn`` mapping
        serially, caching untouched) produces the exact same history —
        the batch is a dispatch change, not an algorithm change.
        """
        space_a, eval_a, loss_a = make_quadratic_problem()
        space_b, eval_b, loss_b = make_quadratic_problem()
        params = GDParams(max_epochs=12)
        a = GradientDescentTuner(eval_a, loss_a, params, seed=7).run()
        b = GradientDescentTuner(eval_b, loss_b, params, seed=7).run()
        assert [h.best_loss for h in a.history] == \
            [h.best_loss for h in b.history]
        assert a.best_config == b.best_config
        assert eval_a.requested_evaluations == eval_b.requested_evaluations
        assert eval_a.unique_evaluations == eval_b.unique_evaluations
