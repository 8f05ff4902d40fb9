"""Genetic-algorithm tuning baseline (Table I parameters).

Prior cloning/stress-test generators (GeST and the abstract-model works the
paper cites) tune with a GA; MicroGrad's evaluation compares against this
configuration: population 50, tournament selection of 5, single-point
crossover at 100% rate, 3% per-gene random mutation, elitism.  One GA epoch
(generation) evaluates the whole population — the 50-vs-2x-knobs cost
asymmetry the paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tuning.base import LossFn, Tuner, TuningResult
from repro.tuning.evaluator import Evaluator


@dataclass(frozen=True)
class GAParams:
    """Table I genetic-algorithm parameters."""

    population_size: int = 50
    mutation_rate: float = 0.03
    crossover_rate: float = 1.0
    tournament_size: int = 5
    elitism: bool = True
    max_epochs: int = 60
    target_loss: float = 1e-4


class GeneticTuner(Tuner):
    """GA over knob-index genomes.

    Individuals are integer lattice-index vectors.  Selection is
    tournament-of-5 on loss; crossover is single-point at a random
    position; mutation redraws each gene uniformly with 3% probability;
    the best individual survives unchanged when elitism is on.

    The lattice is the evaluator's space: a knob space for the abstract
    workload model, or an
    :class:`~repro.codegen.instlevel.InstructionLevelSpace`, whose genes
    are instruction slots, for the GeST-style instruction-level model.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        loss: LossFn,
        params: GAParams | None = None,
        seed: int = 0,
    ):
        super().__init__(evaluator, loss, seed=seed)
        self.params = params or GAParams()
        self.space = evaluator.knob_space

    # -- GA operators ---------------------------------------------------

    def _random_individual(self) -> np.ndarray:
        return np.round(self.space.random_vector(self.rng))

    def _tournament(self, population: list[np.ndarray],
                    losses: list[float]) -> np.ndarray:
        contenders = self.rng.integers(
            0, len(population), self.params.tournament_size
        )
        winner = min(contenders, key=lambda idx: losses[idx])
        return population[winner]

    def _crossover(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.rng.random() > self.params.crossover_rate or len(a) < 2:
            return a.copy()
        point = int(self.rng.integers(1, len(a)))
        return np.concatenate([a[:point], b[point:]])

    def _mutate(self, genome: np.ndarray) -> np.ndarray:
        out = genome.copy()
        bounds = self.space.upper_bounds()
        for i in range(len(out)):
            if self.rng.random() < self.params.mutation_rate:
                out[i] = float(self.rng.integers(0, int(bounds[i]) + 1))
        return out

    def _evaluate_population(
        self, population: list[np.ndarray]
    ) -> tuple[list[float], list[dict]]:
        # One generation = one batch: the 50-individual population goes
        # to the evaluator together, which dedups repeat genomes and
        # fans the unique ones out across the execution backend.
        metrics_list = self.evaluator.evaluate_batch(population)
        losses = [
            self._observe(self.space.materialize(genome), metrics)
            for genome, metrics in zip(population, metrics_list)
        ]
        return losses, metrics_list

    # -- full run -------------------------------------------------------

    def run(self) -> TuningResult:
        p = self.params
        population = [self._random_individual() for _ in range(p.population_size)]
        converged = False
        stop_reason = "max_epochs"
        epoch = 0

        for epoch in range(1, p.max_epochs + 1):
            losses, metrics_list = self._evaluate_population(population)
            best_idx = int(np.argmin(losses))
            self._record_epoch(
                epoch,
                losses[best_idx],
                metrics_list[best_idx],
                self.space.materialize(population[best_idx]),
            )
            if self._best_loss <= p.target_loss:
                converged, stop_reason = True, "target_loss"
                break

            next_gen: list[np.ndarray] = []
            if p.elitism:
                next_gen.append(population[best_idx].copy())
            while len(next_gen) < p.population_size:
                parent_a = self._tournament(population, losses)
                parent_b = self._tournament(population, losses)
                child = self._mutate(self._crossover(parent_a, parent_b))
                next_gen.append(child)
            population = next_gen

        return self._result(epoch, converged, stop_reason)
