"""Unit tests for the Adam-style tuner extension."""

import numpy as np
import pytest

from repro.tuning.adam import AdamParams, AdamTuner

from tests.tuning.conftest import make_quadratic_problem


class TestAdamTuner:
    def test_converges_to_quadratic_minimum(self):
        space, evaluator, loss = make_quadratic_problem((3.0, 7.0, 5.0))
        result = AdamTuner(
            evaluator, loss, AdamParams(max_epochs=50), seed=1
        ).run()
        assert result.best_loss <= 2.0

    def test_target_loss_stops_early(self):
        space, evaluator, loss = make_quadratic_problem((3.0, 7.0, 5.0))
        result = AdamTuner(
            evaluator, loss, AdamParams(max_epochs=80, target_loss=1.0),
            seed=2,
        ).run()
        assert result.converged
        assert result.epochs < 80

    def test_initial_vector_honoured(self):
        space, evaluator, loss = make_quadratic_problem((3.0, 7.0, 5.0))
        result = AdamTuner(
            evaluator, loss, AdamParams(max_epochs=3, target_loss=1e-9),
            initial=np.array([3.0, 7.0, 5.0]), seed=0,
        ).run()
        assert result.best_loss == pytest.approx(0.0)

    def test_epoch_cost_matches_gd_accounting(self):
        space, evaluator, loss = make_quadratic_problem()
        params = AdamParams(max_epochs=5, target_loss=-1.0, patience=99)
        result = AdamTuner(evaluator, loss, params, seed=0).run()
        # 1 base + 2 x knobs per epoch, same currency as Listing 3.
        assert result.requested_evaluations == 5 * (1 + 2 * len(space))

    def test_patience_stops_on_plateau(self):
        space, evaluator, loss = make_quadratic_problem()
        result = AdamTuner(
            evaluator, loss,
            AdamParams(max_epochs=100, patience=3, target_loss=-1.0),
            seed=3,
        ).run()
        assert result.stop_reason in ("patience", "max_epochs")
        assert result.epochs < 100

    def test_history_monotone_best(self):
        space, evaluator, loss = make_quadratic_problem()
        result = AdamTuner(evaluator, loss, AdamParams(max_epochs=20),
                           seed=4).run()
        curve = result.loss_curve()
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_comparable_to_gd_on_synthetic_problem(self):
        from repro.tuning.gradient import GDParams, GradientDescentTuner

        losses = {}
        for name in ("adam", "gd"):
            space, evaluator, loss = make_quadratic_problem((3.0, 7.0, 5.0))
            if name == "adam":
                result = AdamTuner(evaluator, loss,
                                   AdamParams(max_epochs=30), seed=5).run()
            else:
                result = GradientDescentTuner(
                    evaluator, loss, GDParams(max_epochs=30), seed=5
                ).run()
            losses[name] = result.best_loss
        # Both adaptive-gradient methods should solve the smooth problem.
        assert losses["adam"] <= 4.0
        assert losses["gd"] <= 4.0


class TestWholeEpochBatches:
    def test_each_epoch_is_one_batch(self):
        space, evaluator, loss = make_quadratic_problem()
        sizes = []
        original = evaluator.evaluate_batch

        def spy(batch):
            sizes.append(len(batch))
            return original(batch)

        evaluator.evaluate_batch = spy
        params = AdamParams(max_epochs=5, target_loss=-1.0, patience=99)
        result = AdamTuner(evaluator, loss, params, seed=0).run()
        assert len(sizes) == len(result.history) == 5
        # Adam never skips knobs: always base + 2 x knobs.
        assert sizes == [1 + 2 * len(space)] * 5
