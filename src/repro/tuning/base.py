"""Common tuner machinery: results, history and the run loop skeleton."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.tuning.evaluator import Evaluator

LossFn = Callable[[dict[str, float]], float]

#: Per-epoch progress lines land here at INFO.  Silent by default;
#: ``repro.cli --progress`` (or any logging config that enables this
#: logger) turns them on without touching tuner code.
progress_logger = logging.getLogger("repro.tuning.progress")


def _result_cache_counts() -> tuple[float, float]:
    """Process-lifetime (hits, misses) of the persistent result cache."""
    cache = obs.counters("cache.result.")
    return (cache.get("cache.result.hits", 0),
            cache.get("cache.result.misses", 0))


@dataclass
class EpochRecord:
    """Progress snapshot after one tuning epoch.

    ``evaluations`` is cumulative *requested* evaluations — the cost
    currency the paper compares GD and GA in (Section II-B2).
    """

    epoch: int
    loss: float
    best_loss: float
    metrics: dict[str, float]
    config: dict
    evaluations: int


@dataclass
class TuningResult:
    """Outcome of a tuning run.

    Attributes:
        best_config: best materialized knob configuration found.
        best_metrics: metrics measured at that configuration.
        best_loss: its loss.
        epochs: epochs executed.
        converged: whether a convergence/target criterion fired (rather
            than the epoch limit).
        stop_reason: human-readable stop cause.
        history: per-epoch records (the "epoch progression" output of
            Section III-F).
        requested_evaluations / unique_evaluations: evaluation accounting.
    """

    best_config: dict
    best_metrics: dict[str, float]
    best_loss: float
    epochs: int
    converged: bool
    stop_reason: str
    history: list[EpochRecord] = field(default_factory=list)
    requested_evaluations: int = 0
    unique_evaluations: int = 0

    def loss_curve(self) -> list[float]:
        """Best-so-far loss per epoch (for Figs 5/6 style plots)."""
        return [r.best_loss for r in self.history]


class Tuner:
    """Base class: holds the evaluator/loss pair and the best-seen state."""

    def __init__(self, evaluator: Evaluator, loss: LossFn,
                 seed: int = 0):
        self.evaluator = evaluator
        self.loss = loss
        self.rng = np.random.default_rng(seed)
        self.history: list[EpochRecord] = []
        self._best_loss = float("inf")
        self._best_config: dict | None = None
        self._best_metrics: dict[str, float] | None = None
        self._epoch_mark = time.perf_counter()
        self._eval_mark = 0
        self._cache_mark = _result_cache_counts()

    def _observe(self, config: dict, metrics: dict[str, float]) -> float:
        """Score a configuration and update the best-seen state."""
        value = self.loss(metrics)
        if value < self._best_loss:
            self._best_loss = value
            self._best_config = dict(config)
            self._best_metrics = dict(metrics)
        return value

    def _record_epoch(self, epoch: int, loss_value: float,
                      metrics: dict[str, float], config: dict) -> None:
        now = time.perf_counter()
        epoch_s = now - self._epoch_mark
        self._epoch_mark = now
        obs.observe("tuner.epoch", epoch_s)
        obs.inc("tuner.epochs")
        requested = self.evaluator.requested_evaluations
        epoch_evals = requested - self._eval_mark
        self._eval_mark = requested
        # The result-cache counters are process-wide: this epoch's
        # lookups are their change since the last epoch.
        cache_counts = _result_cache_counts()
        hits, misses = (
            count - mark for count, mark in zip(cache_counts, self._cache_mark)
        )
        self._cache_mark = cache_counts
        self.history.append(
            EpochRecord(
                epoch=epoch,
                loss=loss_value,
                best_loss=self._best_loss,
                metrics=dict(metrics),
                config=dict(config),
                evaluations=requested,
            )
        )
        if progress_logger.isEnabledFor(logging.INFO):
            hit_txt = (
                f"{hits / (hits + misses) * 100.0:.1f}%"
                if hits + misses else "n/a"
            )
            rate = epoch_evals / epoch_s if epoch_s > 0 else 0.0
            progress_logger.info(
                "epoch %d: loss %.6g (best %.6g) | %d configs in %.2fs "
                "(%.1f/s) | cache hit %s",
                epoch, loss_value, self._best_loss, epoch_evals,
                epoch_s, rate, hit_txt,
            )

    def _result(self, epochs: int, converged: bool, stop_reason: str) -> TuningResult:
        if self._best_config is None:
            raise RuntimeError("tuner produced no evaluations")
        return TuningResult(
            best_config=self._best_config,
            best_metrics=self._best_metrics or {},
            best_loss=self._best_loss,
            epochs=epochs,
            converged=converged,
            stop_reason=stop_reason,
            history=self.history,
            requested_evaluations=self.evaluator.requested_evaluations,
            unique_evaluations=self.evaluator.unique_evaluations,
        )

    def run(self) -> TuningResult:
        """Execute the tuning loop (implemented by subclasses)."""
        raise NotImplementedError
