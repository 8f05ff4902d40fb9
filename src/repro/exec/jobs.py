"""Picklable job functions dispatched through execution backends.

Worker processes receive module-level functions plus plain-data arguments
(platforms, generation options and knob configurations all pickle), so
generation **and** simulation run inside the worker — the parent process
only ships knob dictionaries out and metric dictionaries back.

Every evaluation batch takes one route, and :func:`evaluate_configs` is
the only code that decides it: it groups the batch by generation
fingerprint, splits the groups into chunks of whole groups
(:func:`chunk_groups`), and ``backend.map`` runs one
:func:`_evaluate_chunk` per chunk, which generates one program per group
and hands it to ``platform.evaluate_group`` — the platform decides what
a group costs.

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
from repro.exec.backend import ExecutionBackend
from repro.sim.artifact import active_artifact_store, attach_artifact_store

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import MicroGradConfig
    from repro.core.outputs import MicroGradResult
    from repro.core.platform import EvaluationPlatform


def _evaluate_chunk(platform, options: GenerationOptions,
                    store_spec: tuple[str, int | None] | None,
                    groups: list[tuple[dict, int]]):
    """Generate and evaluate one chunk of equivalence groups.

    Each ``(config, count)`` pair stands for ``count`` configs whose
    :func:`generation_fingerprint` equals ``config``'s, so they provably
    generate the identical program: it is generated **once** and handed
    to ``platform.evaluate_group`` (simulators serve it from one
    config-batched shared pass).

    ``store_spec`` is the caller's artifact store as ``(root, max
    entries)``: the chunk attaches the same on-disk store in whichever
    process it runs; attach is idempotent, so reused workers pay nothing.

    Returns ``(metrics_lists, snapshot)`` — one list of ``count``
    metrics per group plus the chunk's metrics delta for the caller to
    merge.
    """
    if store_spec is not None:
        attach_artifact_store(store_spec[0], max_entries=store_spec[1])
    with obs.collect() as scope, obs.span("exec.chunk"):
        obs.inc("engine_path.evaluate.batch")
        results = []
        for config, count in groups:
            program = generate_test_case(config, options)
            obs.inc("engine_path.evaluate.group")
            results.append(platform.evaluate_group(program, count))
    return results, scope.snapshot()


def chunk_groups(groups: Sequence, sizes: Sequence[int],
                 chunks: int) -> list[list]:
    """Split ``groups`` into at most ``chunks`` contiguous pieces.

    ``sizes[i]`` is group ``i``'s member count.  Groups are never split
    — a split group would be generated and simulated once per piece —
    so the chunk count is also capped by the number of groups.  Each
    chunk but the last takes at least one group, then more while it
    stays within an even share of the members still unassigned, so
    all-singleton groups split evenly (sizes differ by at most one).
    Order is preserved under concatenation; no chunk is empty.
    """
    groups = list(groups)
    sizes = list(sizes)
    if len(groups) != len(sizes):
        raise ValueError(f"{len(groups)} groups but {len(sizes)} sizes")
    if not groups:
        return []
    out = []
    start = 0
    remaining = sum(sizes)
    for chunks_left in range(max(1, min(chunks, len(groups))), 1, -1):
        target = -(-remaining // chunks_left)  # ceil
        # Leave one group for each later chunk so none ends up empty.
        limit = len(groups) - (chunks_left - 1)
        end = start + 1
        size = sizes[start]
        while end < limit and size + sizes[end] <= target:
            size += sizes[end]
            end += 1
        out.append(groups[start:end])
        remaining -= size
        start = end
    out.append(groups[start:])
    return out


def evaluate_configs(
    backend: ExecutionBackend,
    platform: "EvaluationPlatform",
    options: GenerationOptions,
    configs: Sequence[dict],
) -> list[dict[str, float]]:
    """Evaluate knob configurations through ``backend``, preserving order.

    Configs with equal :func:`generation_fingerprint` form one group, in
    first-seen order; each config is fingerprinted exactly once.  The
    groups are split into at most ``backend.jobs`` chunks of whole
    groups (:func:`chunk_groups`), so the platform is pickled once per
    chunk and every group is generated once.  Each chunk ships one
    ``(representative config, member count)`` pair per group to
    :func:`_evaluate_chunk`, and each group's metrics land back at its
    members' input positions.  Workers attach the caller's on-disk
    artifact store, so every process shares one set of trace artifacts.
    """
    configs = list(configs)
    if not configs:
        return []
    members: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        members.setdefault(
            generation_fingerprint(config, options), []
        ).append(i)
    groups = list(members.values())
    chunks = chunk_groups(
        [(configs[indices[0]], len(indices)) for indices in groups],
        [len(indices) for indices in groups],
        backend.jobs,
    )
    store = active_artifact_store()
    store_spec = None if store is None else (str(store.root),
                                             store.max_entries)
    job = partial(_evaluate_chunk, platform, options, store_spec)
    group_metrics: list[list[dict[str, float]]] = []
    for chunk_metrics, snapshot in backend.map(job, chunks):
        obs.merge_remote(snapshot)
        group_metrics.extend(chunk_metrics)
    results: list[dict[str, float] | None] = [None] * len(configs)
    for indices, metrics_list in zip(groups, group_metrics):
        for i, metrics in zip(indices, metrics_list):
            results[i] = metrics
    return results  # type: ignore[return-value]


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
