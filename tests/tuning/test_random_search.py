"""Unit tests for the random-search control baseline."""

import pytest

from repro.tuning.random_search import RandomSearch

from tests.tuning.conftest import make_quadratic_problem


class TestRandomSearch:
    def test_budget_is_epochs_times_group(self):
        space, evaluator, loss = make_quadratic_problem()
        result = RandomSearch(
            evaluator, loss, max_epochs=5, evaluations_per_epoch=7, seed=0
        ).run()
        assert result.requested_evaluations == 35
        assert result.epochs == 5

    def test_eventually_finds_decent_point(self):
        space, evaluator, loss = make_quadratic_problem((3.0, 7.0, 5.0))
        result = RandomSearch(
            evaluator, loss, max_epochs=30, evaluations_per_epoch=20, seed=1
        ).run()
        assert result.best_loss < 10.0

    def test_history_best_monotone(self):
        space, evaluator, loss = make_quadratic_problem()
        result = RandomSearch(
            evaluator, loss, max_epochs=10, evaluations_per_epoch=5, seed=2
        ).run()
        curve = result.loss_curve()
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_deterministic_per_seed(self):
        def run(seed):
            space, evaluator, loss = make_quadratic_problem()
            return RandomSearch(
                evaluator, loss, max_epochs=5, evaluations_per_epoch=5,
                seed=seed,
            ).run().best_loss

        assert run(7) == run(7)

    def test_empty_epochs_rejected(self):
        space, evaluator, loss = make_quadratic_problem()
        with pytest.raises(ValueError, match="evaluations_per_epoch"):
            RandomSearch(evaluator, loss, evaluations_per_epoch=0)
