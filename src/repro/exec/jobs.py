"""Picklable job functions dispatched through execution backends.

Worker processes receive module-level functions plus plain-data arguments
(platforms, generation options and knob configurations all pickle), so
generation **and** simulation run inside the worker — the parent process
only ships knob dictionaries out and metric dictionaries back.

Every chunk job additionally returns a :class:`~repro.obs.MetricsSnapshot`
of the metrics it recorded (engine paths, cache hits, stage spans) so
counters survive the process boundary: the caller folds each chunk's
snapshot into its own registry via :func:`repro.obs.merge_remote`, which
skips same-process echoes (serial/thread backends record directly) and
merges foreign ones (process pools, distributed workers).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Iterator, Sequence

from repro import obs
from repro.codegen.wrapper import (
    GenerationOptions,
    generate_test_case,
    generation_fingerprint,
)
from repro.exec.backend import ExecutionBackend, chunk_evenly, chunk_on_groups

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import MicroGradConfig
    from repro.core.outputs import MicroGradResult
    from repro.core.platform import EvaluationPlatform


def _attach_store(store_spec: tuple[str, int | None] | None) -> None:
    """Attach the shared on-disk trace-artifact store in this process.

    Attach is idempotent, so repeated chunks in a reused worker pay
    nothing.
    """
    if store_spec is not None:
        from repro.sim.artifact import attach_artifact_store

        attach_artifact_store(store_spec[0], max_entries=store_spec[1])


def _evaluate_chunk(platform, options: GenerationOptions,
                    store_spec: tuple[str, int | None] | None,
                    configs: list[dict]):
    """Generate and evaluate one contiguous chunk of configurations.

    ``store_spec`` (the backend's ``artifact_store_spec()``) attaches the
    shared on-disk trace-artifact store in whichever process the chunk
    runs.

    Returns ``(metrics_list, snapshot)`` — the per-config metrics plus
    the chunk's metrics delta for the caller to merge.
    """
    _attach_store(store_spec)
    with obs.collect() as scope, obs.span("exec.chunk"):
        obs.inc("engine_path.evaluate.single", len(configs))
        programs = [
            generate_test_case(config, options) for config in configs
        ]
        results = platform.evaluate_many(programs)
    return results, scope.snapshot()


def _evaluate_chunk_grouped(platform, options: GenerationOptions,
                            store_spec: tuple[str, int | None] | None,
                            configs: list[dict]):
    """Generate and evaluate one chunk, collapsing equivalence groups.

    Configs with equal :func:`generation_fingerprint` provably generate
    the identical program, so each group is generated **once** and
    dispatched through one config-batched shared simulation pass
    (``platform.evaluate_group`` →
    :meth:`~repro.sim.simulator.Simulator.run_group`); results fan back
    out per config.  Grouping covers the whole chunk, not just adjacent
    runs, so an unsorted GA population still collapses its clone
    children.  Bit-identical to :func:`_evaluate_chunk`.

    Returns ``(metrics_list, snapshot)`` like :func:`_evaluate_chunk`.
    """
    _attach_store(store_spec)
    with obs.collect() as scope, obs.span("exec.chunk"):
        obs.inc("engine_path.evaluate.batch")
        groups: dict[tuple, list[int]] = {}
        for i, config in enumerate(configs):
            groups.setdefault(
                generation_fingerprint(config, options), []
            ).append(i)
        results: list[dict[str, float] | None] = [None] * len(configs)
        for indices in groups.values():
            program = generate_test_case(configs[indices[0]], options)
            obs.inc("engine_path.evaluate.group")
            for i, metrics in zip(
                indices, platform.evaluate_group(program, len(indices))
            ):
                results[i] = metrics
    return results, scope.snapshot()


def _plan_chunks(
    backend: ExecutionBackend,
    platform: "EvaluationPlatform",
    options: GenerationOptions,
    configs: list[dict],
):
    """(chunks, job fn) for one evaluation batch.

    Platforms that support config batching get group-aligned chunking
    (``chunk_on_groups`` over generation fingerprints, chunk count from
    the backend's ``chunk_hint``) and the grouped job; everything else
    keeps the historical even chunking and per-config job.
    """
    spec = getattr(backend, "artifact_store_spec", lambda: None)()
    if getattr(platform, "supports_config_batch", False):
        keys = [generation_fingerprint(c, options) for c in configs]
        hint = getattr(backend, "chunk_hint", None)
        n_chunks = (
            hint(len(configs)) if hint is not None else max(1, backend.jobs)
        )
        min_chunk = getattr(backend, "batch_group_min", 1)
        chunks = chunk_on_groups(configs, n_chunks, keys, min_chunk=min_chunk)
        job = partial(_evaluate_chunk_grouped, platform, options, spec)
    else:
        chunks = chunk_evenly(configs, backend.jobs)
        job = partial(_evaluate_chunk, platform, options, spec)
    return chunks, job


def evaluate_configs(
    backend: ExecutionBackend,
    platform: "EvaluationPlatform",
    options: GenerationOptions,
    configs: Sequence[dict],
) -> list[dict[str, float]]:
    """Evaluate knob configurations through ``backend``, preserving order.

    Configurations are split into one contiguous chunk per worker so the
    platform is pickled once per chunk, not once per configuration; each
    worker generates its test cases and runs them via the platform's
    :meth:`evaluate_many` — or, when the platform supports config
    batching, one generation + one shared simulation pass per
    equivalence group (see :func:`_evaluate_chunk_grouped`).
    """
    configs = list(configs)
    if not configs:
        return []
    chunks, job = _plan_chunks(backend, platform, options, configs)
    results: list[dict[str, float]] = []
    for chunk_metrics, snapshot in backend.map(job, chunks):
        obs.merge_remote(snapshot)
        results.extend(chunk_metrics)
    return results


def evaluate_configs_stream(
    backend: ExecutionBackend,
    platform: "EvaluationPlatform",
    options: GenerationOptions,
    configs: Sequence[dict],
) -> Iterator[dict[str, float]]:
    """Yield per-config metrics in input order, as chunks complete.

    Same chunking, same results and same order as
    :func:`evaluate_configs`; the difference is that each chunk's
    metrics surface as soon as that chunk (and every earlier one) is
    done — partial-epoch results for streaming consumers.  Backends
    without ``map_stream`` (externally supplied ones) fall back to the
    batch path.
    """
    configs = list(configs)
    if not configs:
        return
    chunks, job = _plan_chunks(backend, platform, options, configs)
    stream = getattr(backend, "map_stream", None)
    mapper = stream if stream is not None else backend.map
    for chunk_metrics, snapshot in mapper(job, chunks):
        obs.merge_remote(snapshot)
        yield from chunk_metrics


def _clone_job(job):
    """Run one full cloning pass (used for per-simpoint fan-out).

    Returns ``(result, snapshot)`` so the parent process inherits the
    pass's metrics even when it ran in a worker.
    """
    from repro.core.framework import MicroGrad

    config, platform = job
    with obs.collect() as scope:
        result = MicroGrad(config, platform=platform).run()
    return result, scope.snapshot()


def run_clone_jobs(
    backend: ExecutionBackend,
    configs: Sequence["MicroGradConfig"],
    platform: "EvaluationPlatform | None" = None,
) -> list["MicroGradResult"]:
    """Run independent cloning passes through ``backend`` in input order.

    ``platform`` (when picklable) ships to every worker so parallel
    passes evaluate on exactly the platform the caller configured;
    ``None`` lets each worker rebuild the default platform from its
    sub-config.
    """
    results = []
    for result, snapshot in backend.map(
        _clone_job, [(config, platform) for config in configs]
    ):
        obs.merge_remote(snapshot)
        results.append(result)
    return results
