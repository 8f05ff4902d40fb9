"""Adam-style adaptive gradient tuner.

The paper's step-size schedule is "inspired by adaptive learning rate
based gradient methods [Adam]" and the conclusion invites "running more
optimum tuning algorithms" on the framework.  This tuner goes the rest of
the way: per-knob first/second moment estimates (Adam proper) over the
same finite-difference gradients Listing 3 computes, sharing the
evaluator, loss and stopping machinery so it drops into every use case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tuning.base import LossFn, Tuner, TuningResult
from repro.tuning.evaluator import Evaluator
from repro.tuning.gradient import gradient_check


@dataclass(frozen=True)
class AdamParams:
    """Adam hyper-parameters on the knob-index lattice.

    Attributes:
        max_epochs: tuning epoch limit.
        delta: finite-difference perturbation (lattice-index units).
        learning_rate: base step in index units.
        beta1 / beta2: first/second moment decay rates.
        epsilon: numerical floor for the second moment.
        target_loss: early-stop threshold.
        patience: epochs without improvement before stopping.
    """

    max_epochs: int = 60
    delta: float = 1.0
    learning_rate: float = 1.2
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    target_loss: float = 1e-4
    patience: int = 12


class AdamTuner(Tuner):
    """Adam over finite-difference gradients of the knob lattice.

    Uses the same 2-x-knobs gradient checks per epoch as the paper's GD,
    so cost accounting is directly comparable.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        loss: LossFn,
        params: AdamParams | None = None,
        initial: np.ndarray | None = None,
        seed: int = 0,
    ):
        super().__init__(evaluator, loss, seed=seed)
        self.params = params or AdamParams()
        self.space = evaluator.knob_space
        self._initial = initial

    def run(self) -> TuningResult:
        p = self.params
        kc = (
            self.space.clip(np.asarray(self._initial, dtype=float))
            if self._initial is not None
            else self.space.random_vector(self.rng)
        )
        m = np.zeros(len(self.space))
        v = np.zeros(len(self.space))
        stall = 0
        converged = False
        stop_reason = "max_epochs"
        epoch = 0

        for epoch in range(1, p.max_epochs + 1):
            # The paper GD's whole-epoch gradient check, minus its knob
            # skipping: Adam draws nothing from its RNG here.
            check = gradient_check(self, kc, p.delta)
            grad = check.grad
            m = p.beta1 * m + (1 - p.beta1) * grad
            v = p.beta2 * v + (1 - p.beta2) * grad**2
            m_hat = m / (1 - p.beta1**epoch)
            v_hat = v / (1 - p.beta2**epoch)
            kc = self.space.clip(
                kc - p.learning_rate * m_hat / (np.sqrt(v_hat) + p.epsilon)
            )

            self._record_epoch(epoch, check.base_loss, check.base_metrics,
                               check.base_config)
            if self._best_loss <= p.target_loss:
                converged, stop_reason = True, "target_loss"
                break
            improved = self._best_loss < check.previous_best - 1e-12
            stall = 0 if improved else stall + 1
            if stall >= p.patience:
                converged, stop_reason = True, "patience"
                break

        return self._result(epoch, converged, stop_reason)
