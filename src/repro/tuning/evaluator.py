"""Knob-configuration evaluator with memoization, batching and accounting.

The evaluator is the framework's inner loop: knob config -> Microprobe-style
generation -> platform execution -> metrics.  It memoizes on the
materialized configuration (the knob lattice is discrete, so tuners revisit
points constantly) and counts both *requested* evaluations — the paper's
epoch-cost currency (2 x knobs per GD epoch, population size per GA epoch)
— and *unique* evaluations, the actual simulation work.

Tuners submit their per-epoch candidates as **batches**
(:meth:`Evaluator.evaluate_batch`): the evaluator dedups the batch against
its memo cache (and an optional persistent :class:`~repro.exec.cache.
DiskResultCache`), then dispatches only the unique remainder through a
``batch_fn`` — wired by the core framework to an execution backend that
fans generation + simulation out across worker processes.  Results always
come back in request order, so serial and parallel execution are
bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro import obs
from repro.tuning.knobs import KnobSpace, canonical_config_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.exec.cache import DiskResultCache

EvaluateFn = Callable[[dict], dict[str, float]]
BatchEvaluateFn = Callable[[list[dict]], list[dict[str, float]]]


class Evaluator:
    """Maps knob position vectors to metric dicts.

    Args:
        knob_space: the space vectors live in.
        evaluate_config: config dict -> metric dict (wired by the core
            framework to generation + simulation + power estimation).
        cache: memoize identical materialized configurations.
        batch_fn: list-of-configs -> list-of-metrics used by the batch
            path (the core framework wires it to
            :func:`repro.exec.jobs.evaluate_configs`); falls back to
            mapping ``evaluate_config`` serially.
        disk_cache: optional persistent result cache shared across runs.
        cache_context: identity of everything besides the knob config
            that determines metrics (core, instruction budget, ...);
            keys the disk cache.

    The unique remainder of a batch is dispatched in first-seen order;
    grouping it by generated program is the job layer's business
    (:func:`repro.exec.jobs.evaluate_configs`).
    """

    def __init__(
        self,
        knob_space: KnobSpace,
        evaluate_config: EvaluateFn,
        cache: bool = True,
        batch_fn: BatchEvaluateFn | None = None,
        disk_cache: "DiskResultCache | None" = None,
        cache_context: str = "",
    ):
        self.knob_space = knob_space
        self._evaluate_config = evaluate_config
        self._batch_fn = batch_fn
        self._cache_enabled = cache
        self._cache: dict[tuple, dict[str, float]] = {}
        self._disk_cache = disk_cache
        self._cache_context = cache_context
        self.requested_evaluations = 0
        self.unique_evaluations = 0

    # -- cache plumbing -------------------------------------------------

    def _lookup_many(self, keys: list[tuple]) -> list[dict[str, float] | None]:
        """Memo first, then one persistent-cache directory pass.

        Memo hits are served in-process; the remainder probes the
        persistent cache through ``get_many`` (duplicate keys included —
        the disk cache promotes the first and serves the rest from
        memory, exactly like sequential ``get`` calls).  Disk hits are
        promoted into the memo.
        """
        results = [self._cache.get(key) for key in keys]
        if self._disk_cache is not None:
            missing = [i for i, hit in enumerate(results) if hit is None]
            if missing:
                disk = self._disk_cache.get_many(
                    self._cache_context, [keys[i] for i in missing]
                )
                for i, metrics in zip(missing, disk):
                    if metrics is not None:
                        self._cache[keys[i]] = metrics
                        results[i] = metrics
        return results

    def _store(self, key: tuple, metrics: dict[str, float]) -> None:
        self._cache[key] = metrics
        if self._disk_cache is not None:
            self._disk_cache.put(self._cache_context, key, metrics)

    def _run_batch(self, configs: list[dict]) -> list[dict[str, float]]:
        if not configs:
            return []
        if self._batch_fn is not None:
            results = list(self._batch_fn(configs))
            if len(results) != len(configs):
                raise RuntimeError(
                    f"batch_fn returned {len(results)} results for "
                    f"{len(configs)} configs"
                )
            return results
        return [self._evaluate_config(config) for config in configs]

    # -- single-config paths --------------------------------------------

    def evaluate(self, positions: np.ndarray) -> dict[str, float]:
        """Evaluate a position vector (materialize, memoize, run)."""
        return self.evaluate_batch([positions])[0]

    def evaluate_raw(self, config: dict) -> dict[str, float]:
        """Evaluate a concrete knob configuration (still cached/counted)."""
        return self.evaluate_raw_batch([config])[0]

    # -- batch paths ----------------------------------------------------

    def evaluate_batch(
        self, positions_batch: Sequence[np.ndarray]
    ) -> list[dict[str, float]]:
        """Evaluate position vectors as one batch, results in input order.

        Counts every entry as a requested evaluation, dedups the batch
        against the caches *and against itself* (two vectors rounding to
        the same lattice point cost one simulation), and dispatches only
        the unique remainder.
        """
        configs = [self.knob_space.materialize(p) for p in positions_batch]
        return self._evaluate_config_batch(configs)

    def evaluate_raw_batch(
        self, configs: Sequence[dict]
    ) -> list[dict[str, float]]:
        """Batch-evaluate concrete knob configurations (same accounting)."""
        return self._evaluate_config_batch([dict(c) for c in configs])

    def _evaluate_config_batch(
        self, configs: list[dict]
    ) -> list[dict[str, float]]:
        self.requested_evaluations += len(configs)
        obs.inc("evaluator.requested", len(configs))
        if not self._cache_enabled:
            # No memoization anywhere: every request is real work, even
            # duplicates within the batch (matches the serial semantics).
            self.unique_evaluations += len(configs)
            obs.inc("evaluator.unique", len(configs))
            return self._run_batch(configs)
        results: list[dict[str, float] | None] = [None] * len(configs)
        pending: dict[tuple, list[int]] = {}
        keys = [canonical_config_key(config) for config in configs]
        for idx, (key, cached) in enumerate(zip(keys, self._lookup_many(keys))):
            if cached is not None:
                results[idx] = cached
            else:
                pending.setdefault(key, []).append(idx)

        unique_configs = [configs[indices[0]] for indices in pending.values()]
        self.unique_evaluations += len(unique_configs)
        obs.inc("evaluator.unique", len(unique_configs))
        metrics_batch = self._run_batch(unique_configs)
        for (key, indices), metrics in zip(pending.items(), metrics_batch):
            self._store(key, metrics)
            for idx in indices:
                results[idx] = metrics
        return results  # type: ignore[return-value]

    def reset_counters(self) -> None:
        """Zero the evaluation counters (cache contents are kept)."""
        self.requested_evaluations = 0
        self.unique_evaluations = 0
