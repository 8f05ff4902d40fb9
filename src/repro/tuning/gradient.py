"""Gradient-descent tuning (Listing 3 of the paper).

Each epoch perturbs every (non-skipped) knob by +/- delta in index space,
measures the loss at each gradient-check configuration (2 x knobs
evaluations), forms the finite-difference gradient, and steps the knob
vector so the steepest knob moves one full step-size while the others move
proportionally.  The schedule features the paper calls out:

* adaptive step sizes — larger early, smaller late (Adam-inspired, step 8);
* stochastic knob skipping with decaying probability, to escape local
  minima (step 9);
* convergence on configuration movement, target loss/accuracy, or the
  epoch limit (step 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.tuning.base import LossFn, Tuner, TuningResult
from repro.tuning.evaluator import Evaluator


@dataclass(frozen=True)
class GDParams:
    """Gradient-descent hyper-parameters.

    Attributes:
        max_epochs: tuning epoch limit.
        delta: gradient-check perturbation in lattice-index units.
        step_initial / step_final / step_decay: geometric step schedule.
        skip_probability / skip_decay: per-knob skip chance per epoch and
            its decay (robustness against local minima).
        movement_epsilon: stop when the materialized config moved less
            than this (L-inf, index units) between epochs.
        target_loss: stop when the best loss drops below this.
        patience: epochs without best-loss improvement before stopping.
        restarts_on_plateau: random re-kicks allowed before giving up.
    """

    max_epochs: int = 60
    delta: float = 1.0
    step_initial: float = 2.5
    step_final: float = 0.51
    step_decay: float = 0.93
    skip_probability: float = 0.25
    skip_decay: float = 0.85
    movement_epsilon: float = 0.40
    target_loss: float = 1e-4
    patience: int = 8
    restarts_on_plateau: int = 3

    def step_size(self, epoch: int) -> float:
        """Step size for a 0-based epoch (larger early, smaller late)."""
        return max(self.step_final, self.step_initial * self.step_decay**epoch)

    def skip_chance(self, epoch: int) -> float:
        """Knob-skip probability for a 0-based epoch."""
        return self.skip_probability * self.skip_decay**epoch


@dataclass(frozen=True)
class GradientCheck:
    """One epoch's finite-difference gradient check around a position.

    Attributes:
        base_config / base_metrics / base_loss: the position itself.
        previous_best: the tuner's best loss after observing the base
            and before any probe (the improvement test's baseline).
        grad: per-knob ``(loss(+delta) - loss(-delta)) / span``; zero
            for skipped knobs and knobs pinned at both lattice ends.
    """

    base_config: dict
    base_metrics: dict
    base_loss: float
    previous_best: float
    grad: np.ndarray


def gradient_check(
    tuner: Tuner,
    kc: np.ndarray,
    delta: float,
    skipped: Sequence[bool] = (),
) -> GradientCheck:
    """Evaluate ``kc`` and its +/- ``delta`` probes as ONE batch.

    The whole epoch — the base position plus both probes of every knob
    not marked in ``skipped`` — is one evaluator batch, so the evaluator
    dedups across all of it (a probe clipped back onto the base costs
    nothing) and the execution backend sees the full generation at
    once.  The base is observed first and ``previous_best`` captured
    before any probe is observed, so trajectories match evaluating the
    base and the probes one call at a time.  Draws nothing from the
    tuner's RNG.
    """
    space = tuner.evaluator.knob_space
    probes: list[tuple[int, np.ndarray, np.ndarray, float]] = []
    for i in range(len(space)):
        if skipped and skipped[i]:
            continue
        step = np.zeros(len(kc))
        step[i] = delta
        plus = space.clip(kc + step)
        minus = space.clip(kc - step)
        span = plus[i] - minus[i]
        if span > 0:
            probes.append((i, plus, minus, span))
    metrics_batch = tuner.evaluator.evaluate_batch(
        [kc] + [v for _, plus, minus, _ in probes for v in (plus, minus)]
    )
    base_config = space.materialize(kc)
    base_loss = tuner._observe(base_config, metrics_batch[0])
    previous_best = tuner._best_loss
    grad = np.zeros(len(space))
    for n, (i, plus, minus, span) in enumerate(probes):
        loss_plus = tuner._observe(
            space.materialize(plus), metrics_batch[1 + 2 * n]
        )
        loss_minus = tuner._observe(
            space.materialize(minus), metrics_batch[2 + 2 * n]
        )
        grad[i] = (loss_plus - loss_minus) / span
    return GradientCheck(base_config, metrics_batch[0], base_loss,
                         previous_best, grad)


class GradientDescentTuner(Tuner):
    """The Listing 3 tuning mechanism.

    Args:
        evaluator: shared evaluation engine.
        loss: use-case loss function.
        params: hyper-parameters (paper-default schedule when omitted).
        initial: starting position vector; random when omitted
            (Listing 3: ``if !KC: KC_base = random()``).
    """

    def __init__(
        self,
        evaluator: Evaluator,
        loss: LossFn,
        params: GDParams | None = None,
        initial: np.ndarray | None = None,
        seed: int = 0,
        restart_anchor: bool = False,
    ):
        super().__init__(evaluator, loss, seed=seed)
        self.params = params or GDParams()
        self.space = evaluator.knob_space
        self._initial = initial
        # When an informed initial vector is supplied, plateau restarts
        # can jitter around it instead of resampling uniformly — the
        # anchor usually sits near the optimum already.
        self._restart_anchor = restart_anchor and initial is not None

    # -- one epoch ------------------------------------------------------

    def _epoch_step(
        self, kc: np.ndarray, grad: np.ndarray, epoch: int
    ) -> np.ndarray:
        """Finish one epoch from its gradient: the new position."""
        p = self.params
        steepest = np.max(np.abs(grad))
        if steepest <= 0:
            # Flat neighbourhood: take a small random step to keep moving.
            kick = self.rng.uniform(-1.0, 1.0, len(kc))
            return self.space.clip(kc + kick)
        # The steepest knob moves one full step-size; the others move a
        # fraction proportional to their gradient (Section III-D step 7).
        return self.space.clip(kc - p.step_size(epoch) * grad / steepest)

    # -- full run -------------------------------------------------------

    def run(self) -> TuningResult:
        p = self.params
        kc = (
            self.space.clip(np.asarray(self._initial, dtype=float))
            if self._initial is not None
            else self.space.random_vector(self.rng)
        )
        stall = 0
        restarts = 0
        converged = False
        stop_reason = "max_epochs"
        epoch = 0

        for epoch in range(1, p.max_epochs + 1):
            # Stochastic knob skipping (step 9): one draw per knob, in
            # knob order, before the epoch's batch.
            skip_chance = p.skip_chance(epoch - 1)
            skipped = [self.rng.random() < skip_chance
                       for _ in range(len(self.space))]
            check = gradient_check(self, kc, p.delta, skipped)
            kc_new = self._epoch_step(kc, check.grad, epoch - 1)
            self._record_epoch(epoch, check.base_loss, check.base_metrics,
                               check.base_config)

            if self._best_loss <= p.target_loss:
                converged, stop_reason = True, "target_loss"
                break

            movement = np.max(
                np.abs(
                    _materialized_positions(self.space, kc_new)
                    - _materialized_positions(self.space, kc)
                )
            )
            improved = self._best_loss < check.previous_best - 1e-12
            stall = 0 if improved else stall + 1

            if movement < p.movement_epsilon or stall >= p.patience:
                if restarts < p.restarts_on_plateau and self._best_loss > p.target_loss:
                    restarts += 1
                    stall = 0
                    if self._restart_anchor:
                        anchor = np.asarray(self._initial, dtype=float)
                        jitter = self.rng.normal(0.0, 1.0 + restarts, len(anchor))
                        kc_new = self.space.clip(anchor + jitter)
                    else:
                        kc_new = self.space.random_vector(self.rng)
                else:
                    converged, stop_reason = True, (
                        "converged" if movement < p.movement_epsilon else "patience"
                    )
                    kc = kc_new
                    break
            kc = kc_new

        return self._result(epoch, converged, stop_reason)


def _materialized_positions(space, kc: np.ndarray) -> np.ndarray:
    """Positions snapped to the lattice (movement measured on real knobs)."""
    return np.round(space.clip(kc))
