"""Picklable job functions dispatched through execution backends.

Worker processes receive module-level functions plus plain-data arguments
(platforms, generation options and knob configurations all pickle), so
generation **and** simulation run inside the worker — the parent process
only ships knob dictionaries out and metric dictionaries back.

Every evaluation batch takes one route: :func:`evaluate_configs` splits
it into group-aligned chunks, ``backend.map`` runs one
:func:`_evaluate_chunk` per chunk, and each chunk generates one program
per generation-equivalence group and hands it to
``platform.evaluate_group`` — the platform decides what a group costs.

Every chunk job additionally returns a :class:`~repro.obs.MetricsSnapshot`
of the metrics it recorded (engine paths, cache hits, stage spans) so
counters survive the process boundary: the caller folds each chunk's
snapshot into its own registry via :func:`repro.obs.merge_remote`, which
skips same-process echoes (serial/thread backends record directly) and
merges foreign ones (process pools, distributed workers).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro.codegen.wrapper import (
    GenerationOptions,
    generate_test_case,
    generation_fingerprint,
)
from repro.exec.backend import ExecutionBackend, chunk_on_groups
from repro.sim.artifact import attach_artifact_store

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import MicroGradConfig
    from repro.core.outputs import MicroGradResult
    from repro.core.platform import EvaluationPlatform


def _evaluate_chunk(platform, options: GenerationOptions,
                    store_spec: tuple[str, int | None] | None,
                    configs: list[dict]):
    """Generate and evaluate one chunk, collapsing equivalence groups.

    Configs with equal :func:`generation_fingerprint` provably generate
    the identical program, so each group is generated **once** and
    handed to ``platform.evaluate_group`` (simulators serve it from one
    config-batched shared pass); results fan back out per config.
    Grouping covers the whole chunk, not just adjacent runs, so an
    unsorted GA population still collapses its clone children.

    ``store_spec`` (the backend's ``artifact_store_spec()``) attaches the
    shared on-disk trace-artifact store in whichever process the chunk
    runs; attach is idempotent, so reused workers pay nothing.

    Returns ``(metrics_list, snapshot)`` — the per-config metrics plus
    the chunk's metrics delta for the caller to merge.
    """
    if store_spec is not None:
        attach_artifact_store(store_spec[0], max_entries=store_spec[1])
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


def evaluate_configs(
    backend: ExecutionBackend,
    platform: "EvaluationPlatform",
    options: GenerationOptions,
    configs: Sequence[dict],
) -> list[dict[str, float]]:
    """Evaluate knob configurations through ``backend``, preserving order.

    Configurations are split into contiguous chunks along
    generation-fingerprint group boundaries (chunk count from the
    backend's ``chunk_hint``, floored by its ``batch_group_min``), so
    the platform is pickled once per chunk, not once per configuration,
    and no equivalence group is sheared across two workers.  Each chunk
    runs :func:`_evaluate_chunk`.
    """
    configs = list(configs)
    if not configs:
        return []
    keys = [generation_fingerprint(c, options) for c in configs]
    chunks = chunk_on_groups(
        configs, backend.chunk_hint(len(configs)), keys,
        min_chunk=backend.batch_group_min,
    )
    job = partial(_evaluate_chunk, platform, options,
                  backend.artifact_store_spec())
    results: list[dict[str, float]] = []
    for chunk_metrics, snapshot in backend.map(job, chunks):
        obs.merge_remote(snapshot)
        results.extend(chunk_metrics)
    return results


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
