"""Random search — a sanity baseline for tuner comparisons.

Not part of the paper's evaluation, but a standard control: any tuner
worth its complexity must beat random sampling at equal evaluation budget.
"""

from __future__ import annotations

from repro.tuning.base import LossFn, Tuner, TuningResult
from repro.tuning.evaluator import Evaluator


class RandomSearch(Tuner):
    """Uniformly samples the knob lattice.

    Args:
        evaluations_per_epoch: grouping used only for history records so
            progress curves are comparable with other tuners.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        loss: LossFn,
        max_epochs: int = 60,
        evaluations_per_epoch: int = 20,
        seed: int = 0,
    ):
        super().__init__(evaluator, loss, seed=seed)
        if evaluations_per_epoch < 1:
            raise ValueError("evaluations_per_epoch must be >= 1")
        self.max_epochs = max_epochs
        self.evaluations_per_epoch = evaluations_per_epoch
        self.space = evaluator.knob_space

    def run(self) -> TuningResult:
        epoch = 0
        for epoch in range(1, self.max_epochs + 1):
            # Draw the epoch's samples up front and evaluate them as one
            # batch (the draws never depend on the metrics, so the RNG
            # stream is identical to the sequential formulation).
            samples = [
                self.space.random_vector(self.rng)
                for _ in range(self.evaluations_per_epoch)
            ]
            metrics_batch = self.evaluator.evaluate_batch(samples)
            epoch_best = float("inf")
            epoch_metrics: dict = {}
            epoch_config: dict = {}
            for x, metrics in zip(samples, metrics_batch):
                value = self._observe(self.space.materialize(x), metrics)
                if value < epoch_best:
                    epoch_best = value
                    epoch_metrics = metrics
                    epoch_config = self.space.materialize(x)
            self._record_epoch(epoch, epoch_best, epoch_metrics, epoch_config)
        return self._result(epoch, False, "max_epochs")
